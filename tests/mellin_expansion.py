"""Singular expansion of log F(e^-t) and its saddle-point value, in mpmath.

A reference route that shares no code with partition_forge.asympt: the
Mellin transform of log F(e^-t) is

    Gamma(s) zeta(s-1)^i zeta(s+1)^(j+1) zeta(s)^k,  times (1 - 2^-s) for Q,

and the residues of the transform times t^-s at its poles s = 2, 1, 0
give the singular expansion Phi(t) of log F(e^-t) as t -> 0+.  The
Laurent coefficients are read off one circle average per pole.

Helper module for the tests; pytest does not collect it.
"""

import functools

import mpmath as mp

DPS = 30
_NPTS = 32
_RADIUS = "0.25"


def pole_order(i, j, k, form, pole):
    if pole == 2:
        return i
    if pole == 1:
        return k
    return j + 2 if form == "P" else j + 1


def poles(i, j, k):
    return ([2] if i else []) + ([1] if k else []) + [0]


@functools.cache
def _circle(pole):
    """The _NPTS points s on the circle about the pole, each with the
    factors zeta(s-1), zeta(s+1), zeta(s), Gamma(s) and 1 - 2^-s of the
    transform.  None of them depends on the triple or the form, so every
    pair reads the same three circles."""
    with mp.workdps(DPS):
        radius = mp.mpf(_RADIUS)
        points = [pole + radius * mp.e ** (2j * mp.pi * idx / _NPTS) for idx in range(_NPTS)]
        return tuple(
            (s, mp.zeta(s - 1), mp.zeta(s + 1), mp.zeta(s), mp.gamma(s), 1 - 2 ** (-s))
            for s in points
        )


@functools.cache
def laurent_coefficients(i, j, k, form, pole):
    """Laurent coefficients (a_-1, ..., a_-m) of the Mellin transform at
    the pole, m its order, at DPS significant digits.

    One npts-point circle average serves every order: the transform is
    built once per circle point from the pole's shared factor values.
    The average is spectrally accurate, because the principal part is
    finite and the nearest other singularity is at distance 1.
    """
    with mp.workdps(DPS):
        points, samples = [], []
        for s, zeta_below, zeta_above, zeta_at, gamma, eta in _circle(pole):
            value = zeta_below ** i * zeta_above ** (j + 1) * zeta_at ** k * gamma
            points.append(s)
            samples.append(value * eta if form == "Q" else value)
        coefficients = []
        for order in range(1, pole_order(i, j, k, form, pole) + 1):
            acc = mp.mpf(0)
            for s, value in zip(points, samples):
                acc += value * (s - pole) ** order
            coefficients.append(acc / _NPTS)
        return tuple(coefficients)


def singular_expansion(i, j, k, form):
    """Phi(t) as ((pole, (c_0, c_1, ...)), ...): the residue at each pole
    is t^-pole * sum_u c_u (log t)^u, with c_u = (-1)^u a_(-1-u) / u!."""
    with mp.workdps(DPS):
        return tuple(
            (pole, tuple(
                mp.re((-1) ** u * a / mp.factorial(u))
                for u, a in enumerate(laurent_coefficients(i, j, k, form, pole))
            ))
            for pole in poles(i, j, k)
        )


def _phi_terms(expansion, x):
    """Phi(t), -t Phi'(t) and t^2 Phi''(t) at t = e^x."""
    phi = minus_t_dphi = t2_d2phi = mp.mpf(0)
    for pole, coefficients in expansion:
        scale = mp.exp(-pole * x)
        for u, c in enumerate(coefficients):
            xu = x ** u
            dxu = u * x ** (u - 1) if u else 0
            d2xu = u * (u - 1) * x ** (u - 2) if u > 1 else 0
            phi += c * scale * xu
            minus_t_dphi += c * scale * (pole * xu - dxu)
            t2_d2phi += c * scale * (pole * (pole + 1) * xu - (2 * pole + 1) * dxu + d2xu)
    return phi, minus_t_dphi, t2_d2phi


def saddle_log_coefficient(i, j, k, form, ln_n):
    """Gaussian saddle-point value of log [z^n] F(z):

        S(n) = n t + Phi(t) - log(2 pi Phi''(t)) / 2,  with -Phi'(t) = n,

    (Flajolet & Sedgewick, Analytic Combinatorics, ch. VIII).  ln_n may be
    far beyond float range, e.g. 10**5 * mp.log(10).  The saddle equation
    is solved by Newton's method in x = log t.
    """
    with mp.workdps(DPS):
        expansion = singular_expansion(i, j, k, form)
        ln_n = mp.mpf(ln_n)
        x = -ln_n / (1 + max(pole for pole, _ in expansion))
        for _ in range(100):
            _, f1, f2 = _phi_terms(expansion, x)
            if f1 <= 0:
                raise ArithmeticError(f"-Phi'(t) <= 0 at log t = {x}")
            # g(x) = log(-t Phi'(t)) - x - ln n, and d(-t Phi')/dx = f1 - f2
            step = (mp.log(f1) - x - ln_n) / ((f1 - f2) / f1 - 1)
            x -= step
            if abs(step) <= 1000 * mp.eps * (1 + abs(x)):
                break
        else:
            raise ArithmeticError(f"saddle equation did not converge for ln n = {ln_n}")
        phi, _, f2 = _phi_terms(expansion, x)
        if f2 <= 0:
            raise ArithmeticError(f"Phi''(t) <= 0 at the saddle, log t = {x}")
        # n t + Phi - log(2 pi f2 / t^2) / 2
        return mp.exp(ln_n + x) + phi - mp.log(2 * mp.pi * f2) / 2 + x
