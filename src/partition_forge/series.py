"""Exact coefficient engines for the P/Q product families.

Both engines run integer recurrences on the log-series weights
W(L) = L * [z^L] log F(z):

* the exponential recurrence for F = exp(G) with G_L = W(L)/L, scaled
  so that the stored value is the numerator p_n = n! * [z^n] F(z):

      p_m = sum_{j=0..m-1} W(m-j) * p_j * (j+1)(j+2)...(m-1),   p_0 = 1.

  The indices j run in blocks [lo, lo+r) of r = 32.  Once a block is
  known, each p_j in it is stored scaled to the block's end e as
  q_j = p_j * (j+1)...(e-1), a few hundred bits above p_j.  For each m,
  every complete block adds one dot product sum W(m-j) * q_j, the blocks
  chain by Horner's rule through their rising factors lo(lo+1)...(e-1),
  and the partial block below m runs Horner's rule in j itself,
  acc = acc*j + W(m-j)*p_j.  A term of a complete block then costs one
  big-by-small multiply and one add, inside a C-level sum, where a
  Horner step costs three big-integer operations.  The v-weighted
  family with v = a/b runs through the same loop: the scaled weights
  T(k) = b^(k+1) W_v(k) are integers, and the scaled numerators
  P_m = b^(2m) p_m obey P_m = sum_j T(m-j) P_j prod_{i=j+1..m-1} (i*b),
  the same recurrence with Horner factors j*b in place of j; each P_m is
  reduced to a Fraction once, at the end;

* the log-derivative recurrence for the ordinary (j = 0) coefficients:

      n * F_n = sum_{k=1..n} W(k) F_{n-k},   F_0 = 1,

  where for j = 0 W(k) equals sum_{d|k} d*psi(d) for P and the
  sign-alternating analogue for Q.  W is known in advance, so the sum
  runs semi-relaxed (van der Hoeven, "Relax, but don't be too lazy",
  J. Symbolic Comput. 34, 2002): the lags below 128 as one dot product
  per target, and for each b = 128 * 2^r the block product
  F[a : a+b) * W[b : 2b), a a multiple of b, once F[a : a+b) is known,
  by Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009) in
  base 10: each factor is packed as one Decimal in fixed-width digit
  slots, and decimal's number-theoretic multiply (libmpdec), faster
  than the interpreter's Karatsuba at these sizes, forms the product.
  The division by n is exact; an ArithmeticError reports it if it ever
  is not.

Values of any size render through ``to_decimal`` and parse through
``from_decimal``; both step past the interpreter's int/str digit limit
by splitting the value or the text in halves (as CPython 3.12's
``_pylong`` does), without changing that limit.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub

# DivisorTable, psi_table and cycle_weight_weighted are not called here;
# they stay importable from this module because perfbench/spans.py wraps
# them by name.
from .divisors import (  # noqa: F401
    AdmissibleTriple,
    DivisorTable,
    as_triple,
    check_form,
    chi_table,
    cycle_weight_table,
    cycle_weight_weighted,
    psi_table,
)

KIND_EGF = "egf-numerator"
KIND_OGF = "ogf"

_DECIMAL_TOKEN = re.compile(r"[+-]?[0-9]+")

_NAIVE_LAGS = 128  # OGF lags below it run as sums: 64..128 tied on (0,0,1) P at N = 2000, 128..192 on all j = 0 pairs
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])  # integer arithmetic in Decimal, of any length
_EXP_BLOCK = 32  # j-block size of the exponential recurrence: tied with 64 at N <= 1600, with narrower q


@dataclass(frozen=True)
class CoeffSequence:
    """An exact coefficient run values[0..N] with its provenance tags."""

    triple: AdmissibleTriple
    form: str                 # "P", "Q" or "weighted"
    kind: str                 # KIND_EGF or KIND_OGF
    values: tuple
    v: Fraction | None = field(default=None)

    def __post_init__(self):
        if self.kind not in (KIND_EGF, KIND_OGF):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.form not in ("P", "Q", "weighted"):
            raise ValueError(f"unknown form {self.form!r}")
        if not self.values or self.values[0] != 1:
            raise ValueError("values[0] must be 1 (empty structure)")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]


def _exp_numerators(weights: list[int], upto: int, scale: int = 1) -> list[int]:
    """p_0..p_upto of the exponential recurrence with Horner factors j*scale: block dot products, then Horner's rule in j."""
    r = _EXP_BLOCK
    p = [1] + [0] * upto
    q = []  # q_j = p_j prod_{i=j+1..e-1} (i*scale), e the end of j's block, for every complete block
    rising = []  # prod_{i=lo..lo+r-1} (i*scale) for the block [lo, lo+r)
    for m in range(1, upto + 1):
        acc = 0
        for lo, step in zip(range(0, len(q), r), rising):
            acc = acc * step + sum(map(mul, weights[m - lo : m - lo - r : -1], q[lo : lo + r]))
        done = len(q)
        for js, w, pj in zip(range(done * scale, m * scale, scale), weights[m - done : 0 : -1], p[done:m]):
            acc = acc * js + w * pj
        p[m] = acc
        if (m + 1) % r == 0:  # the block [m+1-r, m+1) is complete
            tail, block = 1, []
            for pj, js in zip(reversed(p[m + 1 - r : m + 1]), range(m * scale, (m - r) * scale, -scale)):
                block.append(pj * tail)
                tail *= js
            q += reversed(block)
            rising.append(tail)
    return p


def egf_coeffs(t, form: str, upto: int) -> CoeffSequence:
    """Numerators p_n = n! * [z^n] F(z) for n = 0..upto, exact."""
    t = as_triple(t)
    check_form(form)
    if upto < 0:
        raise ValueError("upto must be >= 0")
    weights = cycle_weight_table(t, form, max(upto, 1))
    return CoeffSequence(t, form, KIND_EGF, tuple(_exp_numerators(weights, upto)))


def egf_coeffs_weighted(t, v, upto: int) -> CoeffSequence:
    """Numerators of the v-weighted family, exact rationals.

    The weight of a cycle of length L picks up a factor v^(l+1) per
    l-fold winding, so W_v(k) = sum_{d|k} v^(k/d+1) chi(d).  v = 1
    recovers the P engine and v = -1 the Q engine.  With v = a/b the
    recurrence runs on the integers b^(k+1) W_v(k), the least power of b
    that clears their denominators, with the Horner factors j*b; the
    numerators it returns are b^(2m) p_m.
    """
    t = as_triple(t)
    if upto < 0:
        raise ValueError("upto must be >= 0")
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
    values = tuple(Fraction(q, b_pow[2 * m]) for m, q in enumerate(numerators))
    return CoeffSequence(t, "weighted", KIND_EGF, values, v=v)


def _pack(xs: list[int], digits: int) -> Decimal:
    """The non-negative ints xs as one Decimal, xs[0] in its highest `digits`-digit slot (Kronecker substitution)."""
    return Decimal("".join([to_decimal(x).zfill(digits) for x in xs]))


def _add_block_product(f: list[int], w: list[int], acc: list[int], start: int) -> None:
    """acc[start + i] += sum_{p+q=i} f[p] * w[q] for f >= 0; w goes in split by sign."""
    digits = len(to_decimal(max(f))) + len(to_decimal(max(map(abs, w)))) + len(str(len(f)))
    packed_f = _pack(f, digits)
    span = len(f) + len(w) - 1
    powers = {}
    for op, part in ((add, [max(x, 0) for x in w]), (sub, [max(-x, 0) for x in w])):
        if any(part):
            text = str(_EXACT.multiply(packed_f, _pack(part, digits))).zfill(span * digits)
            coeffs = [_from_digits(text[i : i + digits], powers) for i in range(0, span * digits, digits)]
            acc[start : start + span] = map(op, acc[start : start + span], coeffs)


def ogf_coeffs_euler(t, form: str, upto: int) -> CoeffSequence:
    """Ordinary coefficients [z^n] F(z) for a j = 0 triple, exact."""
    t = as_triple(t)
    check_form(form)
    if t.j != 0:
        raise ValueError(f"ordinary coefficients require j = 0 (triple {t})")
    if upto < 0:
        raise ValueError("upto must be >= 0")
    c = cycle_weight_table(t, form, max(upto, 1))
    short = c[1:_NAIVE_LAGS]
    recent = deque([1], maxlen=_NAIVE_LAGS - 1)  # F_{n-1}, F_{n-2}, ..., newest first
    values = [1] + [0] * upto
    acc = [0] * (2 * upto + 1)  # sums over the lags k >= _NAIVE_LAGS; block targets run past upto
    for n in range(1, upto + 1):
        q, r = divmod(acc[n] + sum(map(mul, short, recent)), n)
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


def _to_decimal_exact(n: int) -> Decimal:
    """n as an exact Decimal: halves split in binary, joined by decimal's multiply (CPython 3.12 _pylong)."""
    powers = {}

    def join(n, bits):  # 0 <= n < 2^bits
        if bits <= 128:
            return Decimal(n)
        low = bits >> 1
        power = powers.get(low) or powers.setdefault(low, Decimal(2) ** low)
        return join(n >> low, bits - low) * power + join(n & (1 << low) - 1, low)

    with localcontext(_EXACT):
        return join(n, n.bit_length()) if n >= 0 else -join(-n, n.bit_length())


def _from_digits(digits: str, powers: dict) -> int:
    """The int of a string of decimal digits: halves of the string, joined by cached powers of 10."""
    if len(digits) <= 512:  # under the lowest digit limit the interpreter allows (640)
        return int(digits)
    low = len(digits) >> 1
    power = powers.get(low) or powers.setdefault(low, 10 ** low)
    return _from_digits(digits[:-low], powers) * power + _from_digits(digits[-low:], powers)


def to_decimal(value) -> str:
    """Decimal text of an int, or 'num/den' of a non-integral Fraction, at any size."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return to_decimal(value.numerator)
        return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"
    try:
        return str(value)
    except ValueError:  # past the int/str digit limit
        return str(_to_decimal_exact(value))


def from_decimal(token: str) -> int:
    """The int spelled by a decimal token [+-]?[0-9]+ of any length."""
    if not _DECIMAL_TOKEN.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    try:
        return int(token)
    except ValueError:  # past the int/str digit limit
        value = _from_digits(token.lstrip("+-"), {})
        return -value if token[0] == "-" else value


def to_bfile(seq: CoeffSequence) -> str:
    """Render a sequence as b-file text: one ascii 'index value' pair per line."""
    return "".join(f"{n} {to_decimal(value)}\n" for n, value in enumerate(seq.values))


def to_json(seq: CoeffSequence) -> str:
    """JSON rendering; big integers (and rationals) travel as decimal strings."""
    payload = {
        "triple": [seq.triple.i, seq.triple.j, seq.triple.k],
        "form": seq.form,
        "kind": seq.kind,
        "values": [to_decimal(value) for value in seq.values],
    }
    if seq.v is not None:
        payload["v"] = to_decimal(seq.v)
    return json.dumps(payload)
