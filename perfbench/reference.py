"""Independent references the benchmark checks outputs against.

Nothing here imports partition_forge.  The weights come straight from
the Dirichlet-product definition chi = N2^{*i} * N1^{*k} * 1^{*j}
(N_s(n) = n^s, f^{*0} = delta), evaluated by factorization, and the
exact runs are checked modulo a prime through the Horner form of the
exponential recurrence, which shares no code with the library's loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

MOD = (1 << 61) - 1  # prime, larger than every index the workloads use

ZETA3 = 1.2020569031595942854
PI2_OVER_6 = 1.6449340668482264365
EULER_GAMMA = 0.5772156649015328606

# p(n), the partition numbers: the (0,0,1) P ordinary run
PARTITIONS = {
    100: 190569292,
    200: 3972999029388,
    1000: 24061467864032622473692149727991,
}


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**a for d in divs for a in range(e + 1)]
    return sorted(divs)


def _power_star(s: int, m: int, n: int) -> int:
    """(N_s^{*m})(n) = n^s * tau_m(n), with the m = 0 power being delta."""
    if m == 0:
        return 1 if n == 1 else 0
    tau = 1
    for e in factorize(n).values():
        tau *= comb(e + m - 1, m - 1)
    return n**s * tau


def chi(t, n: int) -> int:
    i, j, k = t
    total = 0
    for a in divisors(n):
        fa = _power_star(2, i, a)
        if not fa:
            continue
        rest = n // a
        for b in divisors(rest):
            total += fa * _power_star(1, k, b) * _power_star(0, j, rest // b)
    return total


def weight(t, kind, length: int):
    """W(L) for kind "P" or "Q", or the v-weighted W_v(L) for a Fraction v."""
    total = 0
    for d in divisors(length):
        c = length // d
        if kind == "P":
            total += chi(t, d)
        elif kind == "Q":
            total += (-1) ** (c + 1) * chi(t, d)
        else:
            total += Fraction(kind) ** (c + 1) * chi(t, d)
    return total


def to_mod(x) -> int:
    if isinstance(x, Fraction):
        return x.numerator % MOD * pow(x.denominator, -1, MOD) % MOD
    return x % MOD


def numerators_mod(weights: list[int], upto: int) -> list[int]:
    """p_m = sum_j W(m-j) p_j (j+1)...(m-1) mod MOD, by Horner's rule in j."""
    p = [1] + [0] * upto
    for m in range(1, upto + 1):
        acc = 0
        for j in range(m):
            acc = (acc * j + weights[m - j] * p[j]) % MOD
        p[m] = acc
    return p


def exact_numerators_mod(t, kind, upto: int) -> list[int]:
    weights = [0] + [to_mod(weight(t, kind, L)) for L in range(1, upto + 1)]
    return numerators_mod(weights, upto)


def decimal_to_int(digits: str) -> int:
    """int(digits) in 1000-digit chunks, below the interpreter's digit limit."""
    value = 0
    for pos in range(0, len(digits), 1000):
        chunk = digits[pos:pos + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value

