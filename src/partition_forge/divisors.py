"""Admissible triples, divisor lists and the arithmetic weights.

The weights are multiplicative Dirichlet products of N_s(n) = n^s:
chi = N2^{*i} * N1^{*k} * 1^{*j}, psi = N1^{*i} * 1^{*k}, tau_k = 1^{*k}
(tau_0 = 1 by convention), W_P = chi * 1 and W_Q = chi * eps with
eps(m) = (-1)^(m+1).  Each is fixed by its Bell series at every prime p,
a product of geometric factors (1 - p^s x)^(-count); W adds (1 - x)^(-1),
and W_Q has a factor (1 - 2x) at p = 2 (Apostol, Introduction to
Analytic Number Theory, ch. 2).  One sieve builds a table for
n = 1..limit from the primes of a sieve of Eratosthenes, one list slice
per prime power; these tables are the only route to a weight.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt
from operator import mul


@dataclass(frozen=True)
class AdmissibleTriple:
    """Parameter triple (i, j, k) of nonnegative integers with i+j+k >= 1."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        for name in ("i", "j", "k"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        if self.i + self.j + self.k < 1:
            raise ValueError("triple must satisfy i + j + k >= 1")

    def __iter__(self):
        return iter((self.i, self.j, self.k))

    def __str__(self):
        return f"({self.i},{self.j},{self.k})"

    @classmethod
    def parse(cls, text: str) -> "AdmissibleTriple":
        """Parse a triple from a string like ``"0,1,0"``."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated integers, got {text!r}")
        try:
            i, j, k = (int(p.strip()) for p in parts)
        except ValueError:
            raise ValueError(f"expected three comma-separated integers, got {text!r}") from None
        return cls(i, j, k)


def as_triple(t) -> AdmissibleTriple:
    """Coerce a 3-tuple or AdmissibleTriple to an AdmissibleTriple."""
    if isinstance(t, AdmissibleTriple):
        return t
    i, j, k = t
    return AdmissibleTriple(i, j, k)


class DivisorTable:
    """Sieved divisor lists for every n in 1..limit, built once in O(N log N)."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        lists: list[list[int]] = [[] for _ in range(limit + 1)]
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                lists[m].append(d)
        self._lists = lists

    def divisors(self, n: int) -> list[int]:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n must be in 1..{self.limit}, got {n!r}")
        return self._lists[n]


def _bell(p: int, a: int, factors, form: str | None) -> list[int]:
    """f(1), f(p), ..., f(p^a): the Bell series of f at p, truncated at x^a."""
    c = [1] + [0] * a
    for s, count in (*factors, (0, 1)) if form else factors:
        q = p**s
        for _ in range(count):
            for e in range(1, a + 1):
                c[e] += q * c[e - 1]
    if form == "Q" and p == 2:
        for e in range(a, 0, -1):
            c[e] -= 2 * c[e - 1]
    return c


def _euler_table(factors, limit: int, form: str | None = None) -> list[int]:
    """f(n) for n = 1..limit (index 0 unused), f the multiplicative function
    with Bell series prod over (s, count) in factors of (1 - p^s x)^(-count);
    with form "P" or "Q" the table is W = f * 1 or f * eps instead."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    is_prime = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    primes = list(compress(range(limit + 1), is_prime))
    # 2 takes its whole Bell series even above sqrt(limit): W_Q has the factor (1 - 2x) there
    split = bisect(primes, max(isqrt(limit), 2))
    f = [0] + [1] * limit
    # a prime p > sqrt(limit) divides each n <= limit at most once and shares no n
    # with another such prime: f(p) alone fills in its multiples, before the rest
    large = primes[split:]
    f_p = [1 if form else 0] * len(large)
    for s, count in factors:
        f_p = [x + count * p**s for x, p in zip(f_p, large)]
    for p, value in zip(large, f_p):
        f[p::p] = [value] * (limit // p)
    part = [0] * (limit + 1)  # part[n] = f(p^e) for p^e the full power of p dividing n
    for p in primes[:split]:
        powers = [p]
        while powers[-1] * p <= limit:
            powers.append(powers[-1] * p)
        for q, value in zip(powers, _bell(p, len(powers), factors, form)[1:]):
            part[q::q] = [value] * (limit // q)
        f[p::p] = map(mul, f[p::p], part[p::p])
    return f


def _chi_factors(t) -> tuple:
    i, j, k = as_triple(t)
    return ((2, i), (1, k), (0, j))


def _psi_factors(t) -> tuple:
    t = as_triple(t)
    if t.j != 0:
        raise ValueError(f"psi is undefined for j > 0 (triple {t})")
    return ((1, t.i), (0, t.k))


def _tau_factors(k: int) -> tuple:
    if k < 0:
        raise ValueError("k must be nonnegative")
    return ((0, max(k, 1)),)  # tau_0 is the constant 1, like tau_1


def check_form(form: str) -> None:
    """Reject any form other than "P" or "Q"."""
    if form not in ("P", "Q"):
        raise ValueError(f"form must be 'P' or 'Q', got {form!r}")


def tau_k_table(k: int, limit: int) -> list[int]:
    """tau_k(n) for n = 0..limit (index 0 is a placeholder 1)."""
    return [1] + _euler_table(_tau_factors(k), limit)[1:]


def chi_table(t, limit: int) -> list[int]:
    """chi(n) for n = 1..limit (index 0 unused)."""
    return _euler_table(_chi_factors(t), limit)


def psi_table(t, limit: int) -> list[int]:
    """psi(n) for n = 1..limit (index 0 unused); requires j = 0."""
    return _euler_table(_psi_factors(t), limit)


def cycle_weight_weighted(t, length: int, v: Fraction) -> Fraction:
    """General-v weight: sum_{d|L} v^(L/d+1) chi(d), exact rational."""
    chis, v = chi_table(t, length), Fraction(v)
    return sum(v ** (length // d + 1) * chis[d] for d in range(1, length + 1) if length % d == 0)


def cycle_weight_table(t, form: str, limit: int) -> list[int]:
    """W(L) for L = 1..limit (index 0 unused)."""
    check_form(form)
    return _euler_table(_chi_factors(t), limit, form)
