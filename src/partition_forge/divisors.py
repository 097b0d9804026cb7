"""Admissible triples, divisor lists and the arithmetic weights.

The weights are multiplicative Dirichlet products of N_s(n) = n^s, and
each is a chi table (Apostol, Introduction to Analytic Number Theory,
ch. 2): chi(i, j, k) = N2^{*i} * N1^{*k} * 1^{*j}, with Bell series
prod (1 - p^s x)^(-count) at each prime p, psi(i, 0, k) = chi(0, k, i),
tau_k = chi(0, k, 0) and W_P(i, j, k) = chi * 1 = chi(i, j+1, k).
W_Q = chi * eps, eps(m) = (-1)^(m+1), is W_P with its Bell series at
p = 2 times (1 - 2x), the one factor that is not geometric.  One sieve
builds a table for n = 1..limit, odd n first: a sieve of Eratosthenes
over the odd numbers finds the odd primes, and each touches only its odd
multiples, one list slice per prime power.  Every even entry then follows
from an odd one by f(2^v m) = f(2^v) f(m) for odd m.  These tables are
the only route to a weight.
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


def _bell(p: int, limit: int, i: int, j: int, k: int, alternating: bool = False) -> list[int]:
    """f(1), f(p), ..., f(p^a), p^a <= limit < p^(a+1): the Bell series
    (1 - p^2 x)^(-i) (1 - p x)^(-k) (1 - x)^(-j), times (1 - 2x) if alternating."""
    a = 0
    while p ** (a + 1) <= limit:
        a += 1
    c = [1] + [0] * a
    for q, count in ((p * p, i), (p, k), (1, j)):
        for _ in range(count):
            for e in range(1, a + 1):
                c[e] += q * c[e - 1]
    if alternating:
        for e in range(a, 0, -1):
            c[e] -= 2 * c[e - 1]
    return c


def _euler_table(i: int, j: int, k: int, limit: int, alternating: bool = False) -> list[int]:
    """chi(i, j, k)(n) for n = 1..limit (index 0 unused), times (1 - 2x) in
    the Bell series at p = 2 if alternating (W_Q from the counts of W_P)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    is_prime = bytearray([0]) + bytearray([1]) * ((limit - 1) // 2)  # index h: n = 2h + 1
    for h in range(1, (isqrt(limit) + 1) // 2):
        if is_prime[h]:
            p = 2 * h + 1
            is_prime[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(is_prime), p)))
    primes = list(compress(range(1, limit + 1, 2), is_prime))
    split = bisect(primes, isqrt(limit))
    f = [0] + [1] * limit
    # odd n first.  A prime p > sqrt(limit) divides each n <= limit at most once
    # and shares no n with another such prime: f(p) alone fills its odd multiples
    for p in primes[split:]:
        f[p :: 2 * p] = [(i * p + k) * p + j] * ((limit // p + 1) // 2)
    for p in primes[:split]:
        bell = _bell(p, limit, i, j, k)
        # entry h of mult: f(p^e), p^e the full power of p dividing (2h + 1) p
        mult = [bell[1]] * ((limit // p + 1) // 2)
        q = p
        for value in bell[2:]:  # value = f(p q), and q divides 2h + 1 at h = q//2, q//2 + q, ...
            mult[q // 2 :: q] = [value] * ((limit // (q * p) + 1) // 2)
            q *= p
        f[p :: 2 * p] = map(mul, f[p :: 2 * p], mult)
    # then even n = 2^v m, m odd: f(2^v m) = f(2^v) f(m)
    for v, value in enumerate(_bell(2, limit, i, j, k, alternating)[1:], 1):
        f[1 << v :: 2 << v] = [value * x for x in f[1 : (limit >> v) + 1 : 2]]
    return f


def check_form(form: str) -> None:
    """Reject any form other than "P" or "Q"."""
    if form not in ("P", "Q"):
        raise ValueError(f"form must be 'P' or 'Q', got {form!r}")


def check_upto(upto: int) -> None:
    """Reject a run length that is a bool, not an int, or negative."""
    if not isinstance(upto, int) or isinstance(upto, bool) or upto < 0:
        raise ValueError(f"upto must be >= 0, an int and not a bool, got {upto!r}")


def chi_table(t, limit: int) -> list[int]:
    """chi(n) for n = 1..limit (index 0 unused)."""
    return _euler_table(*as_triple(t), limit)


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
    return _euler_table(i, j + 1, k, limit, form == "Q")
