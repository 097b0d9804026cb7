"""Every exact value against the product form of its family, mod two primes.

The families are infinite products over the cycle lengths d:

    F_P = prod_d (1 - z^d)^(-chi(d)/d),    F_Q = prod_d (1 + z^d)^(chi(d)/d),
    F_v = prod_d (1 - v z^d)^(-v chi(d)/d),

so F_P and F_Q are F_v at v = 1 and v = -1.  Mod a prime p > N every
exponent is a residue, and each factor is a binomial series in z^d with
N/d + 1 terms.  chi comes from ``oracle._chi``, counted from its
definition, so this route reads neither the weight sieve nor either
kernel.  It checks p_n = n! [z^n] F mod p at every n <= N, past the
oracles' reach (n <= 40 and n <= 200): the j = 0 pairs through the
ordinary kernel, the others and the v-weighted family through the
exponential one.  Two primes near 2^26 leave a false pass odds of about
2^-52 per value.  A product of two residues stays below 2^52, so up to
2^11 of them add up in an int64 before one reduction.
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate

import numpy as np
import pytest

from partition_forge.oracle import _chi
from partition_forge.series import egf_coeffs, egf_coeffs_weighted

PRIMES = (2**26 - 5, 2**26 - 27)
MAX_TERMS = 2**11  # products of two residues an int64 holds the sum of, with one residue more

SMALL_TRIPLES = [(i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k >= 1]


@cache
def oracle_chis(t, upto):
    """chi(0..upto) (chi(0) = 0), each counted by the oracle from its definition."""
    return (0,) + tuple(_chi(t, d) for d in range(1, upto + 1))


def product_form(t, v, upto, primes):
    """n! [z^n] prod_{d <= upto} (1 - v z^d)^(-v chi(d)/d) for n <= upto, one row per prime."""
    assert upto < MAX_TERMS and max(primes) < 2**26
    chis = oracle_chis(t, upto)
    p = np.array(primes, dtype=np.int64)[:, None]
    f = np.zeros((len(primes), upto + 1), dtype=np.int64)
    f[:, 0] = 1
    for d in range(1, upto + 1):
        if chis[d] == 0:
            continue
        terms = upto // d
        # binomial coefficients of (1 - v x)^e: c_m = c_(m-1) * (e - m + 1)/m * (-v)
        c = np.ones((len(primes), terms + 1), dtype=np.int64)
        for row, q in enumerate(primes):
            vq = v.numerator * pow(v.denominator, -1, q) % q
            e = -vq * chis[d] * pow(d, -1, q) % q
            for m in range(1, terms + 1):
                c[row, m] = int(c[row, m - 1]) * (e - m + 1) * pow(m, -1, q) * -vq % q
        g = f.copy()
        for m in range(1, terms + 1):  # g[n] += c_m f[n - m d], reduced once at the end
            g[:, m * d :] += c[:, m : m + 1] * f[:, : upto + 1 - m * d]
        f = g % p
    factorials = [list(accumulate(range(1, upto + 1), lambda a, n, q=q: a * n % q, initial=1)) for q in primes]
    return f * np.array(factorials, dtype=np.int64) % p


def residues(values, primes):
    """Each int or Fraction value mod each prime, one row per prime."""
    return np.array(
        [[x.numerator % q * pow(x.denominator, -1, q) % q for x in values] for q in primes], dtype=np.int64
    )


def assert_product_form(values, t, v, primes=PRIMES):
    upto = len(values) - 1
    got, expected = residues(values, primes), product_form(t, Fraction(v), upto, primes)
    bad = [(q, int(np.argmax(g != e))) for q, g, e in zip(primes, got, expected) if (g != e).any()]
    assert bad == [], f"first mismatch (prime, n): {bad}"


@pytest.mark.parametrize("form", ["P", "Q"])
@pytest.mark.parametrize("triple", SMALL_TRIPLES)
def test_small_pairs_to_400(triple, form):
    assert_product_form(egf_coeffs(triple, form, 400).values, triple, 1 if form == "P" else -1)


@pytest.mark.parametrize("triple, form", [((0, 1, 0), "P"), ((1, 1, 0), "Q"), ((1, 0, 0), "Q")])
def test_pairs_to_2000(triple, form):
    # the exponential kernel's middle products reach sizes here (125, 250, 500, 1000) that no shorter run does
    assert_product_form(egf_coeffs(triple, form, 2000).values, triple, 1 if form == "P" else -1)


@pytest.mark.parametrize("v", ["1/3", "-2/3", "3/4", "-7/10", "5/2", "-3"])
@pytest.mark.parametrize("triple", [(0, 1, 0), (1, 2, 1), (2, 0, 1)])
def test_weighted_to_300(triple, v):
    assert_product_form(egf_coeffs_weighted(triple, Fraction(v), 300).values, triple, v)


@pytest.mark.parametrize("v", [Fraction(PRIMES[0], 3), Fraction(-2, PRIMES[1])])
def test_weighted_skips_a_prime_that_divides_v(v):
    # mod a prime that divides its numerator or its denominator, v has residue 0 or none: the other prime checks
    primes = [q for q in PRIMES if v.numerator % q and v.denominator % q]
    assert len(primes) == 1
    assert_product_form(egf_coeffs_weighted((0, 1, 0), v, 100).values, (0, 1, 0), v, primes)
