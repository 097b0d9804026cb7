"""Exact coefficient engines for the P/Q product families.

Both engines run O(N^2) integer recurrences on the log-series weights
W(L) = L * [z^L] log F(z):

* the exponential recurrence for F = exp(G) with G_L = W(L)/L, scaled
  so that the stored value is the numerator p_n = n! * [z^n] F(z):

      p_m = sum_{j=0..m-1} W(m-j) * p_j * (j+1)(j+2)...(m-1),   p_0 = 1.

  It runs by Horner's rule upward in j, acc = acc*j + W(m-j)*p_j, so
  every step multiplies a big integer by a small one.  The v-weighted
  family with v = a/b runs through the same loop: the scaled weights
  b^(2k) W_v(k) are integers, the scaled numerators b^(2m) p_m obey the
  same recurrence, and each is reduced to a Fraction once, at the end;

* the log-derivative recurrence for the ordinary (j = 0) coefficients:

      n * F_n = sum_{k=1..n} W(k) F_{n-k},   F_0 = 1,

  where for j = 0 W(k) equals sum_{d|k} d*psi(d) for P and the
  sign-alternating analogue for Q.  The division by n is exact; an
  ArithmeticError reports it if it ever is not.

Values of any size render through ``to_decimal`` and parse through
``from_decimal``; both step past the interpreter's int/str digit limit
through ``decimal`` without changing that limit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

# psi_table and cycle_weight_weighted are not called here any more; they
# stay importable from this module because perfbench/spans.py wraps them
# by name.
from .divisors import (  # noqa: F401
    AdmissibleTriple,
    DivisorTable,
    as_triple,
    chi_table,
    cycle_weight_table,
    cycle_weight_weighted,
    psi_table,
)

KIND_EGF = "egf-numerator"
KIND_OGF = "ogf"

_DECIMAL_TOKEN = re.compile(r"[+-]?[0-9]+")


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


def _check_form(form: str):
    if form not in ("P", "Q"):
        raise ValueError(f"form must be 'P' or 'Q', got {form!r}")


def _exp_numerators(weights: list[int], upto: int) -> list[int]:
    """p_0..p_upto of the exponential recurrence, by Horner's rule in j."""
    p = [1] + [0] * upto
    for m in range(1, upto + 1):
        acc = 0
        for j, w, pj in zip(range(m), weights[m:0:-1], p):
            acc = acc * j + w * pj
        p[m] = acc
    return p


def egf_coeffs(t, form: str, upto: int) -> CoeffSequence:
    """Numerators p_n = n! * [z^n] F(z) for n = 0..upto, exact."""
    t = as_triple(t)
    _check_form(form)
    if upto < 0:
        raise ValueError("upto must be >= 0")
    weights = cycle_weight_table(t, form, max(upto, 1))
    return CoeffSequence(t, form, KIND_EGF, tuple(_exp_numerators(weights, upto)))


def egf_coeffs_weighted(t, v, upto: int) -> CoeffSequence:
    """Numerators of the v-weighted family, exact rationals.

    The weight of a cycle of length L picks up a factor v^(l+1) per
    l-fold winding, so W_v(k) = sum_{d|k} v^(k/d+1) chi(d).  v = 1
    recovers the P engine and v = -1 the Q engine.  With v = a/b the
    recurrence runs on the integers b^(2k) W_v(k).
    """
    t = as_triple(t)
    if upto < 0:
        raise ValueError("upto must be >= 0")
    v = Fraction(v)
    a, b = v.numerator, v.denominator
    limit = max(upto, 1)
    dt = DivisorTable(limit)
    chis = chi_table(t, limit, dt)
    scaled = [0] * (limit + 1)
    for k in range(1, upto + 1):
        scaled[k] = sum(
            a ** (k // d + 1) * b ** (2 * k - k // d - 1) * chis[d] for d in dt.divisors(k)
        )
    numerators = _exp_numerators(scaled, upto)
    values = tuple(Fraction(q, b ** (2 * m)) for m, q in enumerate(numerators))
    return CoeffSequence(t, "weighted", KIND_EGF, values, v=v)


def ogf_coeffs_euler(t, form: str, upto: int) -> CoeffSequence:
    """Ordinary coefficients [z^n] F(z) for a j = 0 triple, exact."""
    t = as_triple(t)
    _check_form(form)
    if t.j != 0:
        raise ValueError(f"ordinary coefficients require j = 0 (triple {t})")
    if upto < 0:
        raise ValueError("upto must be >= 0")
    c = cycle_weight_table(t, form, max(upto, 1))
    values = [0] * (upto + 1)
    values[0] = 1
    for n in range(1, upto + 1):
        s = 0
        for k in range(1, n + 1):
            ck = c[k]
            if ck:
                s += ck * values[n - k]
        q, r = divmod(s, n)
        if r:
            raise ArithmeticError(f"inexact division at n={n} for triple {t}, form {form}")
        values[n] = q
    return CoeffSequence(t, form, KIND_OGF, tuple(values))


def to_decimal(value) -> str:
    """Decimal text of an int, or 'num/den' of a non-integral Fraction, at any size."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return to_decimal(value.numerator)
        return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"
    try:
        return str(value)
    except ValueError:  # past the int/str digit limit
        return str(Decimal(value))


def from_decimal(token: str) -> int:
    """The int spelled by a decimal token [+-]?[0-9]+ of any length."""
    if not _DECIMAL_TOKEN.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    try:
        return int(token)
    except ValueError:  # past the int/str digit limit
        return int(Decimal(token))


def to_bfile(seq: CoeffSequence, start_index: int = 0) -> str:
    """Render a sequence as b-file text: one ascii 'index value' pair per line."""
    lines = []
    for n, value in enumerate(seq.values):
        lines.append(f"{start_index + n} {to_decimal(value)}")
    return "\n".join(lines) + "\n"


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
