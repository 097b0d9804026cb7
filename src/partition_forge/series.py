"""Exact coefficient engines for the P/Q product families.

Both engines run integer recurrences on the log-series weights
W(L) = L * [z^L] log F(z):

* the exponential recurrence for F = exp(G) with G_L = W(L)/L, scaled
  so that the stored value is the numerator p_n = n! * [z^n] F(z):

      p_m = sum_{j=0..m-1} W(m-j) * p_j * (j+1)(j+2)...(m-1),   p_0 = 1.

  (A j = 0 pair skips it: its F_n are integers, and p_n = n! * F_n.)
  The targets are solved by halves (van der Hoeven, "Relax, but don't be
  too lazy", J. Symbolic Comput. 34, 2002).  While a range [lo, hi) is
  open, each p[m] in it holds the Horner accumulator of the indices
  j < lo.  The range splits at mid; once [lo, mid) is solved, its values
  are scaled once to the split point, q_j = p_j * (j+1)...(mid-1), and
  every target m in [mid, hi) takes
  p[m] <- p[m] * lo(lo+1)...(mid-1) + sum_{lo<=j<mid} W(m-j) * q_j,
  the chain factor lo(lo+1)...(mid-1) carrying the indices below lo
  across the split.  The sums are a Toeplitz matrix of small weights
  times the big q_j, a middle product, and Karatsuba's split forms it
  from three half-size middle products in place of four (Hanrot, Quercia
  & Zimmermann, AAECC 14, 2004); when [mid, hi) is one target longer,
  that target is summed directly.  Ranges of at most 32 targets run
  Horner's rule in j, acc = acc*j + W(m-j)*p_j.  The v-weighted family
  with v = a/b runs through the same code: the scaled weights
  T(k) = b^(k+1) W_v(k) are integers, and the scaled numerators
  P_m = b^(2m) p_m obey P_m = sum_j T(m-j) P_j prod_{i=j+1..m-1} (i*b),
  the same recurrence with factors i*b in place of i.  Every term but
  T(1) P_(m-1) = a^2 P_(m-1) has a factor b, so P_m = a^(2m) mod each
  prime of b: P_m / b^(2m) is in lowest terms, denominator exactly
  b^(2m), checked by one remainder mod b and built without a gcd;

* the log-derivative recurrence for the ordinary (j = 0) coefficients:

      n * F_n = sum_{k=1..n} W(k) F_{n-k},   F_0 = 1,

  where for j = 0 W(k) equals sum_{d|k} d*psi(d) for P and the
  sign-alternating analogue for Q.  Each is a positive integer, so each
  F_n is too (a negative weight is refused): W is multiplicative, with
  Bell series prod (1 - p^s x)^(-count) at odd p and, for Q at p = 2,
  (1 - 4x)^(-i) (1 - 2x)^(1-k) (1 - x)^(-1), b_e - 2 b_(e-1) > 0 at k = 0
  for b of (1 - 4x)^(-i) (1 - x)^(-1).  W is known in advance, so the sum
  runs semi-relaxed (van der Hoeven, as above): for four targets n0..n0+3
  at a time, lags 4..255 as one dot product of W with windows of F in
  S-bit slots, H_a = sum_{s<4} F_{a+s} 2^(s*S), slot s summing the
  non-negative terms of target n0+s, H_(a+1) = (H_a >> S) + (F_(a+4) << 3S)
  (from H = 0 when S widens); lags 1..3 term by term; for each
  b = 256 * 2^r the block product F[a : a+b) * W[b : 2b), a a multiple
  of b, once F[a : a+b) is known, by Kronecker substitution (Harvey,
  J. Symbolic Comput. 44, 2009) in base 10: each factor is packed as one
  Decimal in fixed-width digit slots, and decimal's number-theoretic
  multiply (libmpdec), faster than the interpreter's Karatsuba at these
  sizes, forms the product.  The division by n is exact; an
  ArithmeticError reports it if it ever is not.

Values of any size render through ``to_decimal`` and parse through
``from_decimal``: long ones split in decimal halves at 10^k, k a power
of two (Brent & Zimmermann, Modern Computer Arithmetic, 1.7), down to
pieces of at most 512 digits, which str() and int() convert under any
int/str digit limit without changing it; above 2^16 bits, binary halves
are joined in Decimal (as CPython 3.12's ``_pylong`` does).
"""

from __future__ import annotations

import re
import sys
from collections import deque
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import add, mul, sub

# DivisorTable, psi_table and cycle_weight_weighted are not called here;
# they stay importable from this module because perfbench/spans.py wraps
# them by name.
from .divisors import (  # noqa: F401
    AdmissibleTriple,
    DivisorTable,
    as_triple,
    check_form,
    check_upto,
    chi_table,
    cycle_weight_table,
    cycle_weight_weighted,
    psi_table,
)

KIND_EGF = "egf-numerator"
KIND_OGF = "ogf"

_DECIMAL_TOKEN = re.compile(r"[+-]?[0-9]+")

_NAIVE_LAGS = 256  # OGF lags below it run as sums: 256..384 tied at N = 2000 and 10^4, 128..192 slower
_PACK = 4  # OGF targets whose lags _PACK.._NAIVE_LAGS-1 share one dot product over packed F: 4 and 8 tied
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])  # integer arithmetic in Decimal, of any length
_INT_DIGITS = 512  # digit strings this short parse with int(): under the lowest int/str digit limit allowed (640)
_STR_BITS = (10**_INT_DIGITS).bit_length() - 1  # 1700: ints this short (< 10^_INT_DIGITS) render with str()
_DECIMAL_BITS = 1 << 16  # ints longer than this join binary halves in Decimal: libmpdec beats CPython's division there
_POW10 = {}  # k -> 10^k, k a power of two: the split points of to_decimal and _from_digits
_EXP_LEAF = 32  # exponential target ranges this short run Horner's rule in j: 16..64 tied
_MIDDLE_LEAF = 16  # middle products this small run as direct sums: 8 and 24..32 slower


class CoeffSequence:
    """An exact coefficient run values[0..N] with its provenance tags.

    Immutable, equal and hashed alike when all five fields are.  Not a
    tuple: iterating it yields its values.
    """

    __slots__ = ("triple", "form", "kind", "values", "v")  # form "P", "Q" or "weighted"; kind KIND_EGF or KIND_OGF

    def __init__(self, triple: AdmissibleTriple, form: str, kind: str, values: tuple, v: Fraction | None = None):
        if kind not in (KIND_EGF, KIND_OGF):
            raise ValueError(f"unknown kind {kind!r}")
        if form not in ("P", "Q", "weighted"):
            raise ValueError(f"unknown form {form!r}")
        if not values or values[0] != 1:
            raise ValueError("values[0] must be 1 (empty structure)")
        for name, value in zip(self.__slots__, (triple, form, kind, values, v)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # rebuilt through __init__, since __setattr__ refuses
        return type(self), self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]


def _middle(w: list[int], x: list[int]) -> list[int]:
    """y[a] = sum_b w[a-b+n-1] * x[b] for a, b < n = len(x), len(w) = 2n-1: a Toeplitz middle product, by Karatsuba."""
    n = len(x)
    if n <= _MIDDLE_LEAF:
        xr = x[::-1]
        return [sum(map(mul, w[a : a + n], xr)) for a in range(n)]
    if n & 1:  # peel the last column and the last row
        y = list(map(add, _middle(w[1:-1], x[:-1]), map(mul, w, repeat(x[-1], n - 1))))
        y.append(sum(map(mul, w[n - 1 :], reversed(x))))
        return y
    k = n >> 1
    w0 = w[k : 3 * k - 1]  # the diagonal blocks' window
    both = _middle(w0, list(map(add, x[:k], x[k:])))
    top = _middle(list(map(sub, w[: 2 * k - 1], w0)), x[k:])
    bottom = _middle(list(map(sub, w[2 * k :], w0)), x[:k])
    return [*map(add, both, top), *map(add, both, bottom)]


def _exp_solve(weights: list[int], p: list[int], lo: int, hi: int, scale: int) -> None:
    """Complete p[lo:hi], where each p[m] holds sum_{j<lo} W(m-j) p_j prod_{i=j+1..lo-1} (i*scale), so p[lo] is done."""
    if hi - lo <= _EXP_LEAF:  # Horner's rule in j
        for m in range(lo + 1, hi):
            acc = p[m]
            for js, w, pj in zip(range(lo * scale, m * scale, scale), weights[m - lo : 0 : -1], p[lo:m]):
                acc = acc * js + w * pj
            p[m] = acc
        return
    mid = (lo + hi) >> 1
    _exp_solve(weights, p, lo, mid, scale)
    q, tail = [], 1  # q_j = p_j prod_{i=j+1..mid-1} (i*scale); tail ends as the chain factor prod_{i=lo..mid-1}
    for pj, js in zip(reversed(p[lo:mid]), range((mid - 1) * scale, (lo - 1) * scale, -scale)):
        q.append(pj * tail)
        tail *= js
    q.reverse()
    s = mid - lo
    sums = _middle(weights[1 : 2 * s], q)  # targets mid..mid+s-1, lags 1..2s-1
    if hi - mid > s:  # the odd target hi-1
        sums.append(sum(map(mul, weights[2 * s : s : -1], q)))
    for m, y in zip(range(mid, hi), sums):
        p[m] = p[m] * tail + y  # p[m] = tail = 0 at lo = 0
    del q, sums  # not held through the right half
    _exp_solve(weights, p, mid, hi, scale)


def _exp_numerators(weights: list[int], upto: int, scale: int = 1) -> list[int]:
    """p_0..p_upto of the exponential recurrence with Horner factors j*scale."""
    p = [1] + [0] * upto
    _exp_solve(weights, p, 0, upto + 1, scale)
    return p


def egf_coeffs(t, form: str, upto: int) -> CoeffSequence:
    """Numerators p_n = n! * [z^n] F(z) for n = 0..upto, exact."""
    t = as_triple(t)
    check_form(form)
    check_upto(upto)
    if t.j == 0:  # F_n is an integer: p_n = n! F_n, from the ordinary kernel
        factorials = accumulate(range(1, upto + 1), mul, initial=1)
        return CoeffSequence(t, form, KIND_EGF, tuple(map(mul, factorials, ogf_coeffs_euler(t, form, upto))))
    weights = cycle_weight_table(t, form, max(upto, 1))
    return CoeffSequence(t, form, KIND_EGF, tuple(_exp_numerators(weights, upto)))


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator, already in lowest terms with denominator > 0: a Fraction without a gcd."""
    value = object.__new__(Fraction)  # as CPython 3.12's Fraction._from_coprime_ints does
    value._numerator, value._denominator = numerator, denominator
    return value


def egf_coeffs_weighted(t, v, upto: int) -> CoeffSequence:
    """Numerators of the v-weighted family, exact rationals.

    The weight of a cycle of length L picks up a factor v^(l+1) per
    l-fold winding, so W_v(k) = sum_{d|k} v^(k/d+1) chi(d).  v = 1
    recovers the P engine and v = -1 the Q engine.  With v = a/b the
    recurrence runs on the integers b^(k+1) W_v(k), the least power of b
    that clears their denominators, with the Horner factors j*b; the
    numerators it returns are b^(2m) p_m, over exactly b^(2m).
    """
    t = as_triple(t)
    check_upto(upto)
    v = Fraction(v)
    a, b = v.numerator, v.denominator
    limit = max(upto, 1)
    chis = chi_table(t, limit)
    a_pow = list(accumulate(repeat(a, limit + 1), mul, initial=1))
    b_pow = list(accumulate(repeat(b, 2 * limit), mul, initial=1))
    scaled = [0] * (limit + 1)
    for d in range(1, upto + 1):  # chi(d) adds to every multiple k = e*d
        for e, k in enumerate(range(d, upto + 1, d), 1):
            scaled[k] += a_pow[e + 1] * b_pow[k - e] * chis[d]
    numerators = _exp_numerators(scaled, upto, b)
    if any(gcd(q % b, b) != 1 for q in numerators):  # never: P_m = a^(2m) mod each prime of b, gcd(a, b) = 1
        raise ArithmeticError(f"a numerator shares a factor with b = {b} for triple {t}, v = {v}")
    values = tuple(map(_coprime_fraction, numerators, b_pow[::2]))
    return CoeffSequence(t, "weighted", KIND_EGF, values, v=v)


def _pack(xs: list[int], digits: int) -> Decimal:
    """The non-negative ints xs as one Decimal, xs[0] in its highest `digits`-digit slot (Kronecker substitution)."""
    render = str if digits <= _INT_DIGITS else to_decimal  # no value in slots this narrow passes a digit limit
    return Decimal("".join([render(x).zfill(digits) for x in xs]))


def _add_block_product(f: list[int], w: list[int], acc: list[int], start: int) -> None:
    """acc[start + i] += sum_{p+q=i} f[p] * w[q] for f, w >= 0: one product of two packs, read back by slots."""
    digits = len(to_decimal(max(f))) + len(to_decimal(max(w))) + len(str(len(f)))
    span = len(f) + len(w) - 1
    text = str(_EXACT.multiply(_pack(f, digits), _pack(w, digits))).zfill(span * digits)
    slots = [text[i : i + digits] for i in range(0, span * digits, digits)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (none before 3.10.7)
    coeffs = map(int, slots) if not limit or digits <= limit else map(_from_digits, slots)
    acc[start : start + span] = map(add, acc[start : start + span], coeffs)


def ogf_coeffs_euler(t, form: str, upto: int) -> CoeffSequence:
    """Ordinary coefficients [z^n] F(z) for a j = 0 triple, exact."""
    t = as_triple(t)
    check_form(form)
    if t.j != 0:
        raise ValueError(f"ordinary coefficients require j = 0 (triple {t})")
    check_upto(upto)
    c = cycle_weight_table(t, form, max(upto, 1))
    if min(c[1:]) < 0:  # never: every j = 0 weight is a positive integer (module docstring)
        lag = next(n for n in range(1, len(c)) if c[n] < 0)
        raise ArithmeticError(f"negative weight W({lag}) = {c[lag]} for triple {t}, form {form}")
    k = min(_PACK, _NAIVE_LAGS - 1)  # targets per group; at least one lag is packed
    near, far = c[1:k], c[k:_NAIVE_LAGS]  # lags 1..k-1 term by term, k.._NAIVE_LAGS-1 packed
    far_bits = max(map(int.bit_length, far), default=0) + len(far).bit_length()
    recent = deque([1], maxlen=k - 1)  # F_{n-1}, ..., F_{n-k+1}, newest first
    values = [1] + [0] * upto
    acc = [0] * (2 * upto + 1)  # sums over the lags >= _NAIVE_LAGS; block targets run past upto
    width = f_bits = 0
    for n0 in range(1, upto + 1, k):
        f_bits = max(f_bits, *map(int.bit_length, values[max(n0 - k, 0) : n0]))
        start = n0 - k  # windows H_a = sum_{s<k} F_{a+s} 2^(s*width), newest first, H_{n0-k} due
        if f_bits + far_bits > width:  # F outgrew its slots: widen them, rebuild the windows from H = 0
            width = f_bits + far_bits + max(64, (f_bits + far_bits) >> 2)  # margins 32 or 64, or doubling: slower
            mask, top, start = (1 << width) - 1, (k - 1) * width, max(start - len(far) + 1, 0)
            windows = deque([0], maxlen=max(len(far), 1))  # H_a = 0 for a <= -k; far is empty when upto < k
        for f in values[start:n0]:  # H_{a+1} = (H_a >> width) + (F_{a+k} << top): k of them push out any window
            windows.appendleft((windows[0] >> width) + (f << top))
        packed = sum(map(mul, far, windows))  # slot s: lags k.._NAIVE_LAGS-1 of target n0+s
        for n in range(n0, min(n0 + k, upto + 1)):
            q, r = divmod(acc[n] + (packed >> (n - n0) * width & mask) + sum(map(mul, near, recent)), n)
            if r:
                raise ArithmeticError(f"inexact division at n={n} for triple {t}, form {form}")
            values[n] = q
            recent.appendleft(q)
            # F[n+1-b : n+1] is complete; of each factor only m terms reach a target <= upto
            b = _NAIVE_LAGS
            while (n + 1) % b == 0 and n < upto:
                m = min(b, upto - n)
                _add_block_product(values[n + 1 - b : n + 1 - b + m], c[b : b + m], acc, n + 1)
                b *= 2
    return CoeffSequence(t, form, KIND_OGF, tuple(values))


def _split(digits: int) -> tuple[int, int]:
    """k and 10^k, k the power of two nearest half of `digits`: the parts keep a third to two thirds of them."""
    k = 1 << (2 * digits // 3).bit_length() - 1
    return k, _POW10.get(k) or _POW10.setdefault(k, 10**k)


def _digits(n: int, width: int = 0) -> str:
    """The digits of n >= 0, zero-filled to `width`: decimal halves by divmod, binary ones in Decimal past 2^16 bits."""
    if n.bit_length() <= _STR_BITS:
        return str(n).zfill(width)
    if n.bit_length() > _DECIMAL_BITS:
        return str(_to_decimal_exact(n)).zfill(width)
    k, power = _split(n.bit_length() * 3 // 10)  # about bits * log10(2) digits
    high, low = divmod(n, power)
    return _digits(high, width - k) + _digits(low, k)


def _to_decimal_exact(n: int) -> Decimal:
    """n >= 0 as an exact Decimal: binary halves joined by decimal's multiply (CPython 3.12 _pylong)."""
    powers = {}

    def join(n, bits):  # 0 <= n < 2^bits
        if bits <= _DECIMAL_BITS:
            return Decimal(_digits(n))
        low = bits >> 1
        power = powers.get(low) or powers.setdefault(low, Decimal(2) ** low)
        return join(n >> low, bits - low) * power + join(n & (1 << low) - 1, low)

    with localcontext(_EXACT):
        return join(n, n.bit_length())


def _from_digits(digits: str) -> int:
    """The int of a string of decimal digits: halves of the string, joined by the powers of 10 that _split keeps."""
    if len(digits) <= _INT_DIGITS:
        return int(digits)
    k, power = _split(len(digits))
    return _from_digits(digits[:-k]) * power + _from_digits(digits[-k:])


def to_decimal(value) -> str:
    """Decimal text of an int, or 'num/den' of a non-integral Fraction, at any size."""
    if type(value) is not int:  # a Fraction, part by part
        text = to_decimal(value.numerator)
        return text if value.denominator == 1 else f"{text}/{to_decimal(value.denominator)}"
    return "-" + _digits(-value) if value < 0 else _digits(value)


def from_decimal(token: str) -> int:
    """The int spelled by a decimal token [+-]?[0-9]+ of any length."""
    if not _DECIMAL_TOKEN.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    try:
        return int(token)
    except ValueError:  # past the int/str digit limit
        value = _from_digits(token.lstrip("+-"))
        return -value if token[0] == "-" else value


def to_bfile(seq: CoeffSequence) -> str:
    """Render a sequence as b-file text: one ascii 'index value' pair per line."""
    return "".join(f"{n} {to_decimal(value)}\n" for n, value in enumerate(seq.values))


def to_json(seq: CoeffSequence) -> str:
    """JSON text as json.dumps writes it; values (and v) travel as decimal strings, which need no escaping."""
    (i, j, k), v = seq.triple, "" if seq.v is None else f', "v": "{to_decimal(seq.v)}"'
    texts = list(map(to_decimal, seq.values))  # never empty; the end items carry head and tail: one join, one copy
    texts[0] = f'{{"triple": [{i}, {j}, {k}], "form": "{seq.form}", "kind": "{seq.kind}", "values": ["{texts[0]}'
    texts[-1] += f'"]{v}}}'
    return '", "'.join(texts)
