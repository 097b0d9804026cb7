"""Growth estimates for the P/Q coefficient families.

The machinery here mirrors the analytic pipeline that produces the
estimates: leading residue constants A, B, C, D attached to the poles
at s = 2, 1, 0 of the Mellin transform of log F(e^-t), in closed form
for every triple; the full residue polynomials (in log t) where every
coefficient is known, the lower ones at s = 0 from a six-row table; a
Lambert W kernel that reads only log x and takes one or two
fourth-order steps, so indices far beyond float range stay in reach;
weak saddle points alpha(n) with r = exp(-exp(alpha(n))); first-order
growth of log [z^n] F(z); and the closed-form coefficient estimates for
the five (triple, form) pairs that have one.

Sign conventions: the closed forms for A, B, C, D carry alternating
signs such as (-1)^(i-1).  Saddle points and growth rates need only the
dominant pole: the rightmost pole s, the degree p of its residue
polynomial in log t, and the magnitude of its leading coefficient,
taken after checking that the sign is (-1)^p (a ValueError otherwise),
which keeps all intermediates real.  The growth constant is checked real
and positive once, when the record of a (triple, form) is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from math import exp, factorial, inf, log, log1p, pi, sqrt
from typing import NamedTuple

from .divisors import AdmissibleTriple, as_triple, check_form


class MathConstants(NamedTuple):
    """Reference constants, each correct to at least 16 significant digits."""

    pi: float = math.pi
    euler_gamma: float = 0.5772156649015329
    stieltjes_gamma1: float = -0.07281584548367673
    zeta3: float = 1.2020569031595943
    zeta_prime_minus1: float = -0.16542114370045094
    log2: float = 0.6931471805599453
    log_2pi: float = 1.8378770664093456


CONSTANTS = MathConstants()


class PoleAbsentError(ValueError):
    """Requested a residue at a pole this triple does not have."""


class NotTabulatedError(ValueError):
    """Requested a full residue polynomial outside the tabulated cases."""


class NoClosedFormError(ValueError):
    """No closed-form coefficient estimate is available for this case."""


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def _fsc_step(w: float, y: float) -> float:
    # One fourth-order Fritsch-Shafer-Crowley step toward w + ln w = y, their
    # q written as 2 (1 + w) h so that nothing overflows near the float maximum.
    z = y - log(w) - w
    w1 = 1.0 + w
    h, t = w1 + 2.0 / 3.0 * z, z / w1
    return w * (1.0 + t * (h - 0.5 * t) / (h - t))


def lambert_w_log(ln_x: float) -> float:
    """Principal-branch Lambert W of x = e^y > 0, from y = ln_x alone.

    Solves w + ln w = y in fixed fourth-order Fritsch-Shafer-Crowley steps
    (CACM 16, 1973), so y may lie far beyond float range: one step (_fsc_step
    written out inline, to save the call) from y - ln y + ln y / y for y > 8,
    two from Winitzki's approximation (2003) for -37 < y <= 8, within 4e-15
    relative.  Below, W(x) rounds to x, so e^y is returned (0.0 at y = -800
    or -inf); inf or NaN raises ValueError.
    """
    y = ln_x
    if 8.0 < y < inf:
        w = y - log(y) * (1.0 - 1.0 / y)
        z = y - log(w) - w
        w1 = 1.0 + w
        h, t = w1 + 2.0 / 3.0 * z, z / w1
        return w * (1.0 + t * (h - 0.5 * t) / (h - t))
    if -37.0 < y <= 8.0:
        a = log1p(exp(y))
        return _fsc_step(_fsc_step(a * (1.0 - log1p(a) / (2.0 + a)), y), y)
    if y <= -37.0:
        return exp(y)
    raise ValueError(f"lambert_w_log needs a real ln_x below inf, got ln_x={ln_x}")


# ---------------------------------------------------------------------------
# Residue constants and polynomials
# ---------------------------------------------------------------------------

def _pole_degree(t: AdmissibleTriple, form: str, pole: int) -> int:
    """Degree in log t of the residue at s = pole: i - 1 at 2, k - 1 at 1, j + 1 (P) or j (Q)
    at 0.  PoleAbsentError if that is negative; ValueError for another pole, a bool or a float."""
    if not isinstance(pole, int) or isinstance(pole, bool) or pole not in (2, 1, 0):
        raise ValueError(f"pole must be 2, 1 or 0, got {pole!r}")
    if pole == 2:
        degree, need = t.i - 1, "s=2 needs i"
    elif pole == 1:
        degree, need = t.k - 1, "s=1 needs k"
    else:
        return t.j + 1 if form == "P" else t.j
    if degree < 0:
        raise PoleAbsentError(f"pole absent for this triple: {need} >= 1, triple {t}")
    return degree


def residue_leading(t, form: str, pole: int) -> float:
    """Leading residue constant at the given pole of the Mellin transform.

    pole 2 -> A (needs i >= 1), pole 1 -> B (needs k >= 1), pole 0 -> C
    for the P form and D for the Q form.  The Q form picks up the
    factors 3/4 (at s = 2) and 1/2 (at s = 1) from the eta cofactor.
    """
    t = as_triple(t)
    check_form(form)
    _pole_degree(t, form, pole)
    i, j, k = t
    c = CONSTANTS
    if pole == 2:
        value = (-1.0) ** (i - 1) * c.zeta3 ** (j + 1) * pi ** (2 * k) / (6 ** k * factorial(i - 1))
        return value * 0.75 if form == "Q" else value
    if pole == 1:
        value = (-1.0) ** (i + k - 1) * pi ** (2 * (j + 1)) / (6 ** (j + 1) * 2 ** i * factorial(k - 1))
        return value * 0.5 if form == "Q" else value
    if form == "P":
        return (-1.0) ** (i + j + k + 1) / (2 ** k * factorial(j + 1) * 12 ** i)
    return c.log2 * (-1.0) ** (i + j + k) / (2 ** k * factorial(j) * 12 ** i)


class ResiduePolynomial(NamedTuple):
    """Residue of L*(s) t^-s at a pole, as a polynomial in log t."""

    triple: AdmissibleTriple
    form: str
    pole: int
    role: str                     # 'a', 'b', 'c' or 'd'
    coefficients: tuple[float, ...]  # ascending degree in log t

    @property
    def leading(self) -> float:
        return self.coefficients[-1]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, log_t: float) -> float:
        acc = 0.0
        for coef in reversed(self.coefficients):
            acc = acc * log_t + coef
        return acc


_G, _G1 = CONSTANTS.euler_gamma, CONSTANTS.stieltjes_gamma1
_ZP, _L2, _L2PI = CONSTANTS.zeta_prime_minus1, CONSTANTS.log2, CONSTANTS.log_2pi

# (form, triple) -> the coefficients below the leading one of the residue at
# s = 0, ascending in log t: the terms that no closed form here gives
_POLE0_LOWER_TERMS = {
    ("P", (1, 0, 0)): (_ZP,),
    ("P", (1, 0, 1)): (-_ZP / 2.0 + _L2PI / 24.0,),
    ("P", (0, 0, 1)): (-_L2PI / 2.0,),
    ("P", (0, 1, 0)): (pi * pi / 12.0 - _G * _G / 2.0 - 2.0 * _G1, -_G),
    ("Q", (0, 1, 0)): (_G * _L2 - _L2 * _L2 / 2.0,),
    ("Q", (0, 2, 0)): (
        _G * _G * _L2 / 2.0 + pi * pi * _L2 / 12.0 - _G * _L2 * _L2
        + _L2 ** 3 / 6.0 - 3.0 * _G1 * _L2,
        _L2 * _L2 / 2.0 - 2.0 * _G * _L2,
    ),
}
_ROLE_BY_POLE = {2: "a", 1: "b"}


def residue_polynomial(t, form: str, pole: int) -> ResiduePolynomial:
    """Full residue polynomial: its lower terms, then residue_leading's value.

    Known at every pole of degree 0 and at s = 0 for the six rows of
    _POLE0_LOWER_TERMS; NotTabulatedError elsewhere.
    """
    t = as_triple(t)
    check_form(form)
    lower = _POLE0_LOWER_TERMS.get((form, t), ()) if pole == 0 else ()
    if len(lower) != _pole_degree(t, form, pole):  # a bad or absent pole raises there, first
        raise NotTabulatedError(f"residue polynomial not tabulated for triple {t}, form {form}, pole {pole}")
    role = _ROLE_BY_POLE.get(pole, "c" if form == "P" else "d")
    return ResiduePolynomial(t, form, pole, role, lower + (residue_leading(t, form, pole),))


def _magnitude(value: float, parity: int) -> float:
    # parity is the exponent of (-1) in the closed form; the simplified
    # real evaluations rely on the sign matching it exactly.
    expected = -1.0 if parity % 2 else 1.0
    if not value * expected > 0.0:
        raise ValueError(f"sign cancellation failed: {value} vs (-1)^{parity}")
    return abs(value)


class GrowthTerms(NamedTuple):
    """log [z^n] F(z) ~ constant * (ln n)^log_power * n^index_power."""

    constant: float
    log_power: float
    index_power: float


_GrowthRecord = namedtuple("_GrowthRecord", "triple s ln_C m ln_scale factor terms closed_form")


@lru_cache(maxsize=256)  # every (triple, form) with i, j, k <= 4 fits
def _growth_record(form: str, t) -> _GrowthRecord:
    """The dominant pole (s, p, c) of one (triple, form) and the constants read off it.

    s is the rightmost pole (2 if i >= 1, else 1 if k >= 1, else 0), p
    the degree in log t of its residue polynomial (_pole_degree), and c
    the magnitude of the leading coefficient, whose sign is checked
    against (-1)^p; no pole-0 residue, which two closed forms read from
    constants.  The cache is untyped, so it is reached only through
    _record, which lets in no True or 1.0 to match a cached 1.
    """
    t = as_triple(t)
    check_form(form)
    s = 2 if t.i else 1 if t.k else 0
    p = _pole_degree(t, form, s)
    c = _magnitude(residue_leading(t, form, s), p)
    C, m = (s * c, p) if s else (p * c, p - 1)
    ln_scale = (log((s + 1) / m) if s else -log(m)) if m else 0.0
    if s:
        const = (s + 1) / s * (s * c / (s + 1) ** p) ** (1 / (s + 1))
        terms = GrowthTerms(const, p / (s + 1), s / (s + 1))
    else:
        terms = GrowthTerms(c, float(p), 0.0)
    if not 0.0 < terms.constant < inf:
        raise ValueError(f"growth constant must be real and positive, got {terms.constant} for {t} {form}")
    return _GrowthRecord(t, s, log(C), m, ln_scale, -m / (s + 1), terms, _FULL_COEFF.get((form, t)))


def _record(form: str, t) -> _GrowthRecord:
    # the only way into _growth_record's untyped cache: all but a tuple of three exact ints pass through as_triple
    if not (type(t) is tuple and len(t) == 3 and type(t[0]) is type(t[1]) is type(t[2]) is int):
        t = as_triple(t)
    return _growth_record(form, t)


# ---------------------------------------------------------------------------
# Saddle points and growth of log-coefficients
# ---------------------------------------------------------------------------

def _resolve_ln_n(n, ln_n, minimum: float = 0.0) -> float:
    """ln n from exactly one of n and ln_n; a ValueError names a bad value."""
    if n is None and ln_n is not None:
        value = float(ln_n)
    elif (n is None) == (ln_n is None):
        raise ValueError("supply exactly one of n and its logarithm")
    elif 0 < n < inf:
        value = log(n)
    else:
        raise ValueError(f"index must be finite and positive, got n = {n}")
    if not minimum < value < inf:
        raise ValueError(f"index out of range: need {minimum} < ln n < inf, got ln n = {value}")
    return value


def weak_saddle_alpha(t, form: str, n: float | None = None, *, ln_n: float | None = None) -> float:
    """Weak asymptotic saddle point alpha(n); the saddle radius is
    r = exp(-exp(alpha(n))).

    With (s, p, c) the dominant pole, u = -alpha solves
    C * u^m * e^((s+1) u) = n, where (C, m) = (s c, p) for s > 0 and
    (p c, p - 1) at s = 0.  For m = 0 that is a logarithm; otherwise
    v = (s+1) u / m solves v e^v = ((s+1)/m) (n/C)^(1/m), which the
    log-domain Lambert W kernel takes as a logarithm, so n may be far
    beyond float range.
    """
    r = _record(form, t)
    L = ln_n if n is None and type(ln_n) is float and 0.0 < ln_n < inf else _resolve_ln_n(n, ln_n)
    if r.m == 0:
        return -(L - r.ln_C) / (r.s + 1)
    return r.factor * lambert_w_log(r.ln_scale + (L - r.ln_C) / r.m)


def log_growth_terms(t, form: str) -> GrowthTerms:
    """Sign-simplified constant and exponents of the first-order growth law.

    From the dominant pole (s, p, c): for s > 0 the law is
    ((s+1)/s) (s c / (s+1)^p)^(1/(s+1)) (ln n)^(p/(s+1)) n^(s/(s+1)),
    and at s = 0 it is c (ln n)^p.
    """
    return _record(form, t).terms


def log_coeff_asymptotic(t, form: str, n: float | None = None, *, ln_n: float | None = None) -> float:
    """First-order estimate of log [z^n] F(z).

    Four regimes: n^(2/3) growth when i >= 1, n^(1/2) when i = 0 and
    k >= 1, and purely poly-logarithmic growth (ln n)^(j+1) resp.
    (ln n)^j for the remaining P resp. Q cases.

    For Q with i = k = 0, j = 1 the value is the leading-residue law
    D * ln n = log2 * ln n, not the asymptote of log [z^n] Q: there the
    Gaussian width term -ln n is of the same order, and log [z^n] Q ~
    (log2 - 1) * ln n, which coeff_asymptotic gives.
    """
    L = ln_n if n is None and type(ln_n) is float and 0.0 < ln_n < inf else _resolve_ln_n(n, ln_n)
    value, log_power, index_power = _record(form, t).terms
    if log_power:
        value *= L ** log_power
    if index_power:
        value *= exp(index_power * L)
    return value


def log_coeff_asymptotic_ln(t, form: str, n: float | None = None, *, ln_n: float | None = None) -> float:
    """ln of log_coeff_asymptotic, ln constant + log_power ln ln n + index_power ln n."""
    L = _resolve_ln_n(n, ln_n)
    constant, log_power, index_power = _record(form, t).terms
    return log(constant) + log_power * log(L) + index_power * L


# ---------------------------------------------------------------------------
# Full coefficient estimates for the closed-form pairs
# ---------------------------------------------------------------------------

_LN10 = math.log(10.0)


class CoeffEstimate(NamedTuple):
    """A coefficient estimate carried as its natural logarithm."""

    ln: float

    @property
    def log10(self) -> float:
        return self.ln / _LN10

    @property
    def exponent10(self) -> int:
        return math.floor(self.log10)

    @property
    def mantissa(self) -> float:
        return 10.0 ** (self.log10 - self.exponent10)

    def scientific(self, digits: int = 3) -> str:
        mantissa, exponent = f"{self.mantissa:.{digits}f}", self.exponent10
        if float(mantissa) >= 10.0:  # rounded up to 10: carry into the exponent
            mantissa, exponent = f"{1:.{digits}f}", exponent + 1
        return f"{mantissa}e{exponent:+d}"

    @property
    def value(self) -> float:
        return exp(self.ln)


# (form, triple) -> the tag of its closed-form coefficient estimate, which its growth record carries
_FULL_COEFF = {("P", (0, 0, 1)): "P001", ("Q", (0, 0, 1)): "Q001", ("P", (0, 1, 0)): "P010",
               ("Q", (0, 1, 0)): "Q010", ("Q", (0, 2, 0)): "Q020"}
_MIN_LN_N = math.log(2.0) - 1e-12  # coeff_asymptotic needs n >= 2, less a rounding margin
_P010_C0 = residue_polynomial((0, 1, 0), "P", 0).coefficients[0]  # c0: the constant term of the pole-0 residue
_Q020_D = residue_polynomial((0, 2, 0), "Q", 0).coefficients  # d0, d1, d2: the whole pole-0 residue


def coeff_asymptotic(t, form: str, n: float | None = None, *, ln_n: float | None = None) -> CoeffEstimate:
    """Closed-form estimate of [z^n] F(z), evaluated in log space.

    Available exactly where the closed forms exist: (0,0,1) for both
    forms, (0,1,0) for both forms, and (0,2,0) for Q; any other pair
    raises NoClosedFormError before the index is read.  For the cycle-sum
    families the coefficient being estimated is [z^n] F(z) = p_n / n!.
    Square roots of log factors that are negative for every finite index
    are evaluated on the real branch, i.e. with the magnitude of the log.
    """
    r = _record(form, t)
    if (closed_form := r.closed_form) is None:  # before n is read, so a caller can fall back to the growth law
        raise NoClosedFormError(f"no closed-form coefficient estimate for triple {r.triple}, form {form}")
    fast = n is None and type(ln_n) is float and _MIN_LN_N < ln_n < inf
    L = ln_n if fast else _resolve_ln_n(n, ln_n, minimum=_MIN_LN_N)
    g = _G
    if closed_form == "P001":
        # exp(pi*sqrt(2n/3)) / (4*sqrt(3)*n)
        ln_est = pi * sqrt(2.0 * exp(L) / 3.0) - log(4.0 * sqrt(3.0)) - L
    elif closed_form == "Q001":
        # exp(pi*sqrt(n/3)) / (4*3^(1/4)*n^(3/4))
        ln_est = pi * sqrt(exp(L) / 3.0) - log(4.0) - 0.25 * log(3.0) - 0.75 * L
    elif closed_form == "P010":
        # (w/n)^(1-gamma) * exp(c0 + w + log^2(w/n)/2) / width
        # with w = W(e^gamma * n).  The Gaussian width under the root is
        # evaluated exactly as 2*pi*(gamma + 1 - log(w/n)), the curvature
        # of the truncated saddle equation; its first-order simplification
        # -log(w/n) alone misestimates the coefficient by ~16% even at
        # n = 455 (and is negative as literally printed).
        w = lambert_w_log(g + L)
        lt = log(w) - L
        width = 2.0 * pi * (g + 1.0 - lt)
        ln_est = (1.0 - g) * lt + _P010_C0 + w + lt * lt / 2.0 - 0.5 * log(width)
    elif closed_form == "Q010":
        # 2^(gamma - log2/2 + 1/2) / (sqrt(pi) * log2^(log2 - 1/2)) * n^(log2 - 1)
        l2 = _L2
        ln_const = (g - l2 / 2.0 + 0.5) * l2 - 0.5 * log(pi) - (l2 - 0.5) * log(l2)
        ln_est = ln_const + (l2 - 1.0) * L
    else:
        # Q, (0,2,0): theta(n) = (2 d2 / n) * W(n * exp(-d1/(2 d2)) / (2 d2))
        d0, d1, d2 = _Q020_D
        ln_arg = L - d1 / (2.0 * d2) - log(2.0 * d2)
        w = lambert_w_log(ln_arg)
        ln_theta = log(2.0 * d2) - L + log(w)
        ln_x = log(2.0 * d2) - L + log(ln_arg)
        ln_est = (
            d0
            + d1 * ln_theta
            + d2 * ln_theta * ln_theta
            - d1
            - log(2.0 * sqrt(pi))
            - 0.5 * log(d2 * abs(ln_x))
            + (1.0 - 2.0 * d2) * ln_x
        )
    if not math.isfinite(ln_est):  # a product that overflowed to inf instead of raising
        raise OverflowError(f"estimate out of float range at ln n = {L!r}")
    return CoeffEstimate(ln_est)


def kotesovec_ratio(n: float | None = None, *, log10_n: float | None = None) -> float:
    """w_n^2 / (ln n)^2 with w_n = W(e^gamma * n), from ln n alone.

    The slow drift of this ratio toward 1 is what separates the correct
    constant 1/2 in front of ln^2 n from the conjectured (log 2)/2: at
    desk scale the ratio lingers near log 2, which is the numerical trap.
    n may be given directly or as log10(n) for indices like 10^(10^5).
    Near n = 1 the ratio leaves float range: OverflowError.
    """
    L = _resolve_ln_n(n, None if log10_n is None else float(log10_n) * _LN10)
    try:
        ratio = (lambert_w_log(_G + L) / L) ** 2
    except OverflowError:  # raised by the square; w / L itself turns inf without raising
        ratio = inf
    if ratio < inf:
        return ratio
    raise OverflowError(f"ratio out of float range at ln n = {L!r}")
