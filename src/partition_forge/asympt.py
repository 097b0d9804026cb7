"""Growth estimates for the P/Q coefficient families.

The machinery here mirrors the analytic pipeline that produces the
estimates: leading residue constants A, B, C, D attached to the poles
at s = 2, 1, 0 of the Mellin transform of log F(e^-t); the full residue
polynomials (in log t) for the nine triples where every coefficient is
known in closed form; a real Lambert W kernel (with a log-domain mode
for indices far beyond float range); weak saddle points alpha(n) with
r = exp(-exp(alpha(n))); first-order growth of log [z^n] F(z); and the
closed-form coefficient estimates for the handful of solvable cases.

Sign conventions: the closed forms for A, B, C, D carry alternating
signs such as (-1)^(i-1).  Saddle points and growth rates only ever
need the magnitudes; every formula below uses |A|, |B|, |C|, |D| after
checking that the sign matches its predicted parity (a ValueError
otherwise), which keeps all intermediates real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, factorial, log, pi, sqrt
from typing import NamedTuple

from .divisors import AdmissibleTriple, as_triple


@dataclass(frozen=True)
class MathConstants:
    """Reference constants, each correct to at least 16 significant digits."""

    pi: float = math.pi
    euler_gamma: float = 0.5772156649015329
    stieltjes_gamma1: float = -0.07281584548367673
    zeta3: float = 1.2020569031595943
    zeta_prime_minus1: float = -0.16542114370045094
    log2: float = 0.6931471805599453
    log_2pi: float = 1.8378770664093456


CONSTANTS = MathConstants()

_INV_E = math.exp(-1.0)


class PoleAbsentError(ValueError):
    """Requested a residue at a pole this triple does not have."""


class NotTabulatedError(ValueError):
    """Requested a full residue polynomial outside the tabulated cases."""


class NoClosedFormError(ValueError):
    """No closed-form coefficient estimate is available for this case."""


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def lambert_w(x: float) -> float:
    """Principal-branch Lambert W: the w >= -1 with w * e^w = x.

    Defined for x >= -1/e.  Initial guess log(x) - log(log(x)) for large
    x, a series guess near the origin and near the branch point, then
    Halley iterations to a fixed point (cap 50, convergence asserted).
    """
    if x != x:
        raise ValueError("lambert_w of NaN")
    if x < -_INV_E:
        if x > -_INV_E - 1e-15:
            return -1.0
        raise ValueError(f"lambert_w domain error: {x} < -1/e on the principal branch")
    if x == 0.0:
        return 0.0
    if abs(x + _INV_E) < 5e-17:
        return -1.0
    if x < -0.32:
        p = sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3 - 43.0 / 540.0 * p ** 4
        if p < 1e-3:
            # Halley loses quadratic convergence this close to the branch
            # point; the series is already accurate to ~p^5.
            return w
    elif x < 1.0:
        w = x * (1.0 - x + 1.5 * x * x)
    elif x < math.e:
        w = log(1.0 + x)
    else:
        lx = log(x)
        w = lx - log(lx)
    for _ in range(50):
        ew = exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        w1 = w + 1.0
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        dw = f / denom
        prev = w
        w -= dw
        if w == prev or abs(dw) <= 4e-16 * (2.0 + abs(w)):
            return w
    raise ArithmeticError(f"lambert_w failed to converge for x={x}")


def lambert_w_log(ln_x: float) -> float:
    """Lambert W of e^(ln_x), computed from the logarithm alone.

    Solves w + log(w) = ln_x by Newton iteration, so ln_x may be far
    beyond the range where e^(ln_x) is representable.
    """
    y = ln_x
    if y != y:
        raise ValueError("lambert_w_log of NaN")
    if y > 2.0:
        w = y - log(y)
    elif y > 0.0:
        w = 1.0
    else:
        w = exp(y)
    for _ in range(60):
        f = w + log(w) - y
        dw = f * w / (w + 1.0)
        nw = w - dw
        if nw <= 0.0:
            nw = w * 0.5
        if nw == w or abs(dw) <= 4e-16 * (1.0 + abs(w)):
            return nw
        w = nw
    raise ArithmeticError(f"lambert_w_log failed to converge for ln_x={ln_x}")


# ---------------------------------------------------------------------------
# Residue constants and polynomials
# ---------------------------------------------------------------------------

def _check_form(form: str):
    if form not in ("P", "Q"):
        raise ValueError(f"form must be 'P' or 'Q', got {form!r}")


def residue_leading(t, form: str, pole: int) -> float:
    """Leading residue constant at the given pole of the Mellin transform.

    pole 2 -> A (needs i >= 1), pole 1 -> B (needs k >= 1), pole 0 -> C
    for the P form and D for the Q form.  The Q form picks up the
    factors 3/4 (at s = 2) and 1/2 (at s = 1) from the eta cofactor.
    """
    t = as_triple(t)
    _check_form(form)
    i, j, k = t
    c = CONSTANTS
    if pole == 2:
        if i < 1:
            raise PoleAbsentError(f"pole absent for this triple: s=2 needs i >= 1, triple {t}")
        value = (-1.0) ** (i - 1) * c.zeta3 ** (j + 1) * pi ** (2 * k) / (6 ** k * factorial(i - 1))
        return value * 0.75 if form == "Q" else value
    if pole == 1:
        if k < 1:
            raise PoleAbsentError(f"pole absent for this triple: s=1 needs k >= 1, triple {t}")
        value = (-1.0) ** (i + k - 1) * pi ** (2 * (j + 1)) / (6 ** (j + 1) * 2 ** i * factorial(k - 1))
        return value * 0.5 if form == "Q" else value
    if pole == 0:
        if form == "P":
            return (-1.0) ** (i + j + k + 1) / (2 ** k * factorial(j + 1) * 12 ** i)
        return c.log2 * (-1.0) ** (i + j + k) / (2 ** k * factorial(j) * 12 ** i)
    raise ValueError(f"pole must be 2, 1 or 0, got {pole!r}")


@dataclass(frozen=True)
class ResiduePolynomial:
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


def _tabulated_polynomials():
    c = CONSTANTS
    g, g1 = c.euler_gamma, c.stieltjes_gamma1
    z3, zp = c.zeta3, c.zeta_prime_minus1
    l2, l2pi = c.log2, c.log_2pi
    pi2 = pi * pi
    table = {
        ("P", (1, 0, 0), 2): (z3,),
        ("P", (1, 0, 0), 0): (zp, 1.0 / 12.0),
        ("P", (1, 0, 1), 2): (pi2 * z3 / 6.0,),
        ("P", (1, 0, 1), 1): (-pi2 / 12.0,),
        ("P", (1, 0, 1), 0): (-zp / 2.0 + l2pi / 24.0, -1.0 / 24.0),
        ("P", (0, 0, 1), 1): (pi2 / 6.0,),
        ("P", (0, 0, 1), 0): (-l2pi / 2.0, 0.5),
        ("P", (0, 1, 0), 0): (pi2 / 12.0 - g * g / 2.0 - 2.0 * g1, -g, 0.5),
        ("Q", (1, 0, 0), 2): (3.0 * z3 / 4.0,),
        ("Q", (1, 0, 0), 0): (-l2 / 12.0,),
        ("Q", (1, 0, 1), 2): (pi2 * z3 / 8.0,),
        ("Q", (1, 0, 1), 1): (-pi2 / 24.0,),
        ("Q", (1, 0, 1), 0): (l2 / 24.0,),
        ("Q", (0, 0, 1), 1): (pi2 / 12.0,),
        ("Q", (0, 0, 1), 0): (-l2 / 2.0,),
        ("Q", (0, 1, 0), 0): (g * l2 - l2 * l2 / 2.0, -l2),
        ("Q", (0, 2, 0), 0): (
            g * g * l2 / 2.0 + pi2 * l2 / 12.0 - g * l2 * l2 + l2 ** 3 / 6.0 - 3.0 * g1 * l2,
            l2 * l2 / 2.0 - 2.0 * g * l2,
            l2 / 2.0,
        ),
    }
    return table


_POLY_TABLE = _tabulated_polynomials()
_ROLE_BY_POLE = {2: "a", 1: "b"}

TABULATED_TRIPLES = {
    "P": ((1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0)),
    "Q": ((1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 2, 0)),
}


def residue_polynomial(t, form: str, pole: int) -> ResiduePolynomial:
    """Full residue polynomial for one of the tabulated (triple, form) rows.

    Raises NotTabulatedError outside the nine known rows; for a leading
    coefficient alone, residue_leading covers every admissible triple.
    """
    t = as_triple(t)
    _check_form(form)
    key = (form, (t.i, t.j, t.k), pole)
    if pole == 2 and t.i < 1:
        raise PoleAbsentError(f"pole absent for this triple: s=2 needs i >= 1, triple {t}")
    if pole == 1 and t.k < 1:
        raise PoleAbsentError(f"pole absent for this triple: s=1 needs k >= 1, triple {t}")
    coeffs = _POLY_TABLE.get(key)
    if coeffs is None:
        raise NotTabulatedError(
            f"residue polynomial not tabulated for triple {t}, form {form}, pole {pole}"
        )
    role = _ROLE_BY_POLE.get(pole, "c" if form == "P" else "d")
    return ResiduePolynomial(t, form, pole, role, coeffs)


def _magnitude(value: float, parity: int) -> float:
    # parity is the exponent of (-1) in the closed form; the simplified
    # real evaluations rely on the sign matching it exactly.
    expected = -1.0 if parity % 2 else 1.0
    if not value * expected > 0.0:
        raise ValueError(f"sign cancellation failed: {value} vs (-1)^{parity}")
    return abs(value)


# ---------------------------------------------------------------------------
# Saddle points and growth of log-coefficients
# ---------------------------------------------------------------------------

def _resolve_ln_n(n, ln_n, minimum: float = 0.0) -> float:
    if (n is None) == (ln_n is None):
        raise ValueError("supply exactly one of n or ln_n")
    value = log(n) if n is not None else float(ln_n)
    if not value > minimum:
        raise ValueError(f"index too small: need ln n > {minimum}, got {value}")
    return value


def weak_saddle_alpha(t, form: str, n: float | None = None, *, ln_n: float | None = None) -> float:
    """Weak asymptotic saddle point alpha(n); the saddle radius is
    r = exp(-exp(alpha(n))).

    Seven branches keyed on (i, k, j, form).  Branches that solve a
    transcendental equation do so through Lambert W with the argument in
    its sign-simplified real form; the magnitude substitutions are
    guarded by sign checks, and any residual domain violation
    surfaces as a ValueError from the W kernel.
    """
    t = as_triple(t)
    _check_form(form)
    L = _resolve_ln_n(n, ln_n)
    i, j, k = t
    if i == 1:
        a = _magnitude(residue_leading(t, form, 2), 0)
        return -(L - log(2.0 * a)) / 3.0
    if i > 1:
        a = _magnitude(residue_leading(t, form, 2), i - 1)
        w = lambert_w_log(log(3.0 / (i - 1)) + (L - log(2.0 * a)) / (i - 1))
        return -(i - 1) / 3.0 * w
    if k == 1:
        b = _magnitude(residue_leading(t, form, 1), 0)
        return -(L - log(b)) / 2.0
    if k > 1:
        b = _magnitude(residue_leading(t, form, 1), k - 1)
        w = lambert_w_log(log(2.0 / (k - 1)) + (L - log(b)) / (k - 1))
        return -(k - 1) / 2.0 * w
    # i = k = 0, j >= 1
    if form == "P":
        cc = _magnitude(residue_leading(t, "P", 0), j + 1)
        w = lambert_w_log(-log(float(j)) + (L - log((j + 1) * cc)) / j)
        return -float(j) * w
    d = _magnitude(residue_leading(t, "Q", 0), j)
    if j == 1:
        return log(d) - L
    w = lambert_w_log(-log(j - 1.0) + (L - log(j * d)) / (j - 1))
    return -(j - 1.0) * w


class GrowthTerms(NamedTuple):
    """log [z^n] F(z) ~ constant * (ln n)^log_power * n^index_power."""

    constant: float
    log_power: float
    index_power: float


def log_growth_terms(t, form: str) -> GrowthTerms:
    """Sign-simplified constant and exponents of the first-order growth law."""
    t = as_triple(t)
    _check_form(form)
    i, j, k = t
    if i >= 1:
        a = _magnitude(residue_leading(t, form, 2), i - 1)
        const = 1.5 * (2.0 * a / 3.0 ** (i - 1)) ** (1.0 / 3.0)
        terms = GrowthTerms(const, (i - 1) / 3.0, 2.0 / 3.0)
    elif k >= 1:
        b = _magnitude(residue_leading(t, form, 1), i + k - 1)
        const = 2.0 * (b / 2.0 ** (k - 1)) ** 0.5
        terms = GrowthTerms(const, (k - 1) / 2.0, 0.5)
    elif form == "P":
        cc = _magnitude(residue_leading(t, "P", 0), i + j + k + 1)
        terms = GrowthTerms(cc, j + 1.0, 0.0)
    else:
        d = _magnitude(residue_leading(t, "Q", 0), i + j + k)
        terms = GrowthTerms(d, float(j), 0.0)
    if not (terms.constant > 0.0 and math.isfinite(terms.constant)):
        raise ValueError(
            f"growth constant must be real and positive, got {terms.constant} for {t} {form}"
        )
    return terms


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
    L = _resolve_ln_n(n, ln_n)
    terms = log_growth_terms(t, form)
    value = terms.constant
    if terms.log_power:
        value *= L ** terms.log_power
    if terms.index_power:
        value *= exp(terms.index_power * L)
    return value


# ---------------------------------------------------------------------------
# Full coefficient estimates for the solvable cases
# ---------------------------------------------------------------------------

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class CoeffEstimate:
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

    def scientific(self) -> str:
        return f"{self.mantissa:.3f}e{self.exponent10:+d}"

    @property
    def value(self) -> float:
        return exp(self.ln)


_FULL_COEFF = {
    ("P", (0, 0, 1)),
    ("Q", (0, 0, 1)),
    ("P", (0, 1, 0)),
    ("Q", (0, 1, 0)),
    ("Q", (0, 2, 0)),
}

_SOLVABLE = {
    "P": {(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0)},
    "Q": {(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 2, 0)},
}

CAP_FULL = "full-coefficient"
CAP_LOG = "log-only"


@dataclass(frozen=True)
class AsymptoticModel:
    """What kind of estimate is available for a (triple, form) pair."""

    triple: AdmissibleTriple
    form: str
    capability: str     # CAP_FULL or CAP_LOG
    note: str = ""


def asymptotic_model(t, form: str) -> AsymptoticModel:
    t = as_triple(t)
    _check_form(form)
    key = (t.i, t.j, t.k)
    if (form, key) in _FULL_COEFF:
        return AsymptoticModel(t, form, CAP_FULL)
    if key in _SOLVABLE[form]:
        note = "saddle equation solvable; only the log-scale growth estimate is implemented"
        return AsymptoticModel(t, form, CAP_LOG, note)
    return AsymptoticModel(t, form, CAP_LOG)


def coeff_asymptotic(t, form: str, n: float | None = None, *, ln_n: float | None = None) -> CoeffEstimate:
    """Closed-form estimate of [z^n] F(z), evaluated in log space.

    Available exactly where the closed forms exist: (0,0,1) for both
    forms, (0,1,0) for both forms, and (0,2,0) for Q.  For the cycle-sum
    families the coefficient being estimated is [z^n] F(z) = p_n / n!.
    Square roots of log factors that are negative for every finite index
    are evaluated on the real branch, i.e. with the magnitude of the log.
    """
    t = as_triple(t)
    _check_form(form)
    L = _resolve_ln_n(n, ln_n, minimum=math.log(2.0) - 1e-12)
    c = CONSTANTS
    g = c.euler_gamma
    key = (form, (t.i, t.j, t.k))
    if key not in _FULL_COEFF:
        raise NoClosedFormError(
            f"no closed-form coefficient estimate for triple {t}, form {form}"
        )
    if key == ("P", (0, 0, 1)):
        # exp(pi*sqrt(2n/3)) / (4*sqrt(3)*n)
        ln_est = pi * sqrt(2.0 * exp(L) / 3.0) - log(4.0 * sqrt(3.0)) - L
    elif key == ("Q", (0, 0, 1)):
        # exp(pi*sqrt(n/3)) / (4*3^(1/4)*n^(3/4))
        ln_est = pi * sqrt(exp(L) / 3.0) - log(4.0) - 0.25 * log(3.0) - 0.75 * L
    elif key == ("P", (0, 1, 0)):
        # (w/n)^(1-gamma) * exp(c0 + w + log^2(w/n)/2) / width
        # with w = W(e^gamma * n).  The Gaussian width under the root is
        # evaluated exactly as 2*pi*(gamma + 1 - log(w/n)), the curvature
        # of the truncated saddle equation; its first-order simplification
        # -log(w/n) alone misestimates the coefficient by ~16% even at
        # n = 455 (and is negative as literally printed).
        c0 = residue_polynomial(t, "P", 0).coefficients[0]
        w = lambert_w_log(g + L)
        lt = log(w) - L
        width = 2.0 * pi * (g + 1.0 - lt)
        ln_est = (1.0 - g) * lt + c0 + w + lt * lt / 2.0 - 0.5 * log(width)
    elif key == ("Q", (0, 1, 0)):
        # 2^(gamma - log2/2 + 1/2) / (sqrt(pi) * log2^(log2 - 1/2)) * n^(log2 - 1)
        l2 = c.log2
        ln_const = (g - l2 / 2.0 + 0.5) * l2 - 0.5 * log(pi) - (l2 - 0.5) * log(l2)
        ln_est = ln_const + (l2 - 1.0) * L
    else:
        # Q, (0,2,0): theta(n) = (2 d2 / n) * W(n * exp(-d1/(2 d2)) / (2 d2))
        d0, d1, d2 = residue_polynomial(t, "Q", 0).coefficients
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
    return CoeffEstimate(ln_est)


def kotesovec_ratio(n: float | None = None, *, log10_n: float | None = None) -> float:
    """w_n^2 / (ln n)^2 with w_n = W(e^gamma * n), from ln n alone.

    The slow drift of this ratio toward 1 is what separates the correct
    constant 1/2 in front of ln^2 n from the conjectured (log 2)/2: at
    desk scale the ratio lingers near log 2, which is the numerical trap.
    n may be given directly or as log10(n) for indices like 10^(10^5).
    """
    if (n is None) == (log10_n is None):
        raise ValueError("supply exactly one of n or log10_n")
    L = log(n) if n is not None else float(log10_n) * _LN10
    if not L > 0.0:
        raise ValueError("need n >= 2")
    w = lambert_w_log(CONSTANTS.euler_gamma + L)
    return w * w / (L * L)
