"""Brute-force counters used to cross-validate the fast recurrences.

These stay deliberately naive: a sum over cycle types for the
exponential numerators, and factor-by-factor truncated product
expansion for the ordinary coefficients.  Both are capped at a fixed
size (CYCLE_SUM_BOUND, PRODUCT_BOUND) so they remain obviously correct
and quick enough for CI.

The weights chi and W, with psi as chi of the relabeled triple (0, k, i),
are counted from their definition over ordered factorizations, one factor
at a time at any depth, by trial division: no code is shared with ``divisors``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .divisors import as_triple, check_form, check_upto

CYCLE_SUM_BOUND = 40
PRODUCT_BOUND = 200


@lru_cache(maxsize=4096)  # every n up to 2000, the largest n the checks reach
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=8192)  # k = 0, 1, 2 (triples with entries <= 2) for every n up to 2000
def _tuples(k: int, n: int) -> int:
    """Ordered k-tuples of positive integers with product n, one factor per level
    over the divisors of n, from the empty product (1 only at n = 1)."""
    counts = {m: int(m == 1) for m in _divisors(n)}
    for _ in range(k):
        counts = {m: sum(counts[d] for d in _divisors(m)) for m in counts}
    return counts[n]


def _chi(t, n: int) -> int:
    """chi(n): sum over n = a*b*c of a^2 * c * tuples(i, a) tuples(j, b) tuples(k, c)."""
    i, j, k = t
    return sum(
        a * a * c * _tuples(i, a) * _tuples(j, n // (a * c)) * _tuples(k, c)
        for a in _divisors(n)
        for c in _divisors(n // a)
    )


def _cycle_weight(t, length: int, form: str) -> int:
    """W(L) = sum over d | L of chi(d), with sign (-1)^(L/d+1) for Q."""
    sign = -1 if form == "Q" else 1
    return sum(sign ** (length // d + 1) * _chi(t, d) for d in _divisors(length))


def cycle_type_sums(t, form: str, upto: int) -> list[int]:
    """Independent counts of the exponential numerators p_0..p_upto (or q_n).

    p_n sums n!/z over all cycle types of size n, each weighted by the
    product of the per-cycle weights W(length); it equals
    n! * [z^n] exp(sum W(L) z^L / L).  One walk over the cycle types,
    parts in weakly decreasing order, visits every type of size <= upto.
    """
    t = as_triple(t)
    check_form(form)
    check_upto(upto)
    if upto > CYCLE_SUM_BOUND:
        raise ValueError(f"n={upto} exceeds the cycle-sum oracle bound {CYCLE_SUM_BOUND}")
    weights = [0] + [_cycle_weight(t, length, form) for length in range(1, upto + 1)]
    totals = [0] * (upto + 1)

    def descend(size, last, run, weight, z):
        # a type of this size, weight and symmetry factor z whose last part occurs `run` times
        totals[size] += factorial(size) // z * weight
        for part in range(min(upto - size, last), 0, -1):
            repeat = run + 1 if part == last else 1
            descend(size + part, part, repeat, weight * weights[part], z * part * repeat)

    descend(0, upto, 0, 1, 1)
    return totals


def cycle_type_sum(t, form: str, n: int) -> int:
    """Independent count of the exponential numerator p_n (or q_n)."""
    return cycle_type_sums(t, form, n)[n]


def product_expand(t, form: str, upto: int) -> list[int]:
    """Truncated expansion of the ordinary (j = 0) product, factor by factor.

    Each factor (1 - z^m)^(-1) is applied psi(m) times by prefix-sum
    convolution; each factor (1 + z^m) likewise, in reverse order.
    """
    t = as_triple(t)
    check_form(form)
    if t.j != 0:
        raise ValueError(f"product expansion requires j = 0 (triple {t})")
    check_upto(upto)
    if upto > PRODUCT_BOUND:
        raise ValueError(f"upto={upto} exceeds the product oracle bound {PRODUCT_BOUND}")
    coeffs = [1] + [0] * upto
    for m in range(1, upto + 1):
        for _ in range(_chi((0, t.k, t.i), m)):  # psi(i, 0, k) = chi(0, k, i)
            if form == "P":
                for idx in range(m, upto + 1):
                    coeffs[idx] += coeffs[idx - m]
            else:
                for idx in range(upto, m - 1, -1):
                    coeffs[idx] += coeffs[idx - m]
    return coeffs
