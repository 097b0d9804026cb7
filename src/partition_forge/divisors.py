"""Admissible triples, divisor lists and the arithmetic weights.

The weights are multiplicative Dirichlet products of N_s(n) = n^s, and
each is a chi table (Apostol, Introduction to Analytic Number Theory,
ch. 2): chi(i, j, k) = N2^{*i} * N1^{*k} * 1^{*j}, with Bell series
prod (1 - p^s x)^(-count) at each prime p, psi(i, 0, k) = chi(0, k, i),
tau_k = chi(0, k, 0) and W_P(i, j, k) = chi * 1 = chi(i, j+1, k).
W_Q = chi * eps, eps(m) = (-1)^(m+1), is W_P with its Bell series at
p = 2 times (1 - 2x), the one factor that is not geometric.  One sieve
builds a table for n = 1..limit from the primes of a sieve of
Eratosthenes, one list slice per prime power; these tables are the only
route to a weight.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from itertools import compress
from math import isqrt
from operator import mul


class AdmissibleTriple(namedtuple("AdmissibleTriple", "i j k")):
    """Parameter triple (i, j, k) of nonnegative integers with i+j+k >= 1."""

    __slots__ = ()

    def __new__(cls, i, j, k):
        for name, v in zip(cls._fields, (i, j, k)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        if i + j + k < 1:
            raise ValueError("triple must satisfy i + j + k >= 1")
        return super().__new__(cls, i, j, k)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it: both check

    def __str__(self):
        return f"({self.i},{self.j},{self.k})"

    @classmethod
    def parse(cls, text: str) -> "AdmissibleTriple":
        """Parse a triple from a string like ``"0,1,0"``."""
        try:
            i, j, k = map(int, text.split(","))
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


def _bell(p: int, a: int, factors, alternating: bool) -> list[int]:
    """f(1), f(p), ..., f(p^a): the Bell series of f at p to x^a, times (1 - 2x) at p = 2 if alternating."""
    c = [1] + [0] * a
    for s, count in factors:
        q = p**s
        for _ in range(count):
            for e in range(1, a + 1):
                c[e] += q * c[e - 1]
    if alternating and p == 2:
        for e in range(a, 0, -1):
            c[e] -= 2 * c[e - 1]
    return c


def _euler_table(factors, limit: int, alternating: bool = False) -> list[int]:
    """f(n) for n = 1..limit (index 0 unused), f the multiplicative function
    with Bell series prod over (s, count) in factors of (1 - p^s x)^(-count),
    times (1 - 2x) at p = 2 if alternating (W_Q from the factors of W_P)."""
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
    f_p = [0] * len(large)
    for s, count in factors:
        f_p = [x + count * p**s for x, p in zip(f_p, large)]
    for p, value in zip(large, f_p):
        f[p::p] = [value] * (limit // p)
    part = [0] * (limit + 1)  # part[n] = f(p^e) for p^e the full power of p dividing n
    for p in primes[:split]:
        powers = [p]
        while powers[-1] * p <= limit:
            powers.append(powers[-1] * p)
        for q, value in zip(powers, _bell(p, len(powers), factors, alternating)[1:]):
            part[q::q] = [value] * (limit // q)
        f[p::p] = map(mul, f[p::p], part[p::p])
    return f


def _chi_factors(t) -> tuple:
    i, j, k = as_triple(t)
    return ((2, i), (1, k), (0, j))


def check_form(form: str) -> None:
    """Reject any form other than "P" or "Q"."""
    if form not in ("P", "Q"):
        raise ValueError(f"form must be 'P' or 'Q', got {form!r}")


def chi_table(t, limit: int) -> list[int]:
    """chi(n) for n = 1..limit (index 0 unused)."""
    return _euler_table(_chi_factors(t), limit)


def psi_table(t, limit: int) -> list[int]:
    """psi(n) for n = 1..limit (index 0 unused), as chi of (0, k, i); requires j = 0."""
    t = as_triple(t)
    if t.j != 0:
        raise ValueError(f"psi is undefined for j > 0 (triple {t})")
    return chi_table((0, t.k, t.i), limit)


def cycle_weight_weighted(t, length: int, v: Fraction) -> Fraction:
    """General-v weight: sum_{d|L} v^(L/d+1) chi(d), exact rational."""
    from fractions import Fraction
    chis, v = chi_table(t, length), Fraction(v)
    return sum(v ** (length // d + 1) * chis[d] for d in range(1, length + 1) if length % d == 0)


def cycle_weight_table(t, form: str, limit: int) -> list[int]:
    """W(L) for L = 1..limit (index 0 unused): chi of (i, j+1, k), times (1 - 2x) at p = 2 for Q."""
    check_form(form)
    i, j, k = as_triple(t)
    return _euler_table(_chi_factors((i, j + 1, k)), limit, form == "Q")
