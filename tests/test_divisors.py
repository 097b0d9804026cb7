import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_forge import oracle
from partition_forge.divisors import (
    AdmissibleTriple,
    DivisorTable,
    as_triple,
    check_form,
    chi_table,
    cycle_weight_table,
    cycle_weight_weighted,
    psi_table,
)


# ---------------------------------------------------------------------------
# independent reference implementations (kept deliberately naive)
# ---------------------------------------------------------------------------

def divisors(n):
    """The divisors of n >= 1 in increasing order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def ordered_tuples(k, n):
    """Number of ordered k-tuples of positive integers with product n.

    Here the k = 0 case is the empty product, nonzero only at n = 1;
    that is the convention under which chi/psi unify into a single sum
    over ordered three-way factorizations.
    """
    if k == 0:
        return 1 if n == 1 else 0
    if k == 1:
        return 1
    return sum(ordered_tuples(k - 1, n // d) for d in divisors(n))


def chi_reference(t, n):
    """chi(n) as the weighted count over factorizations n = a*b*c."""
    i, j, k = as_triple(t)
    total = 0
    for a in divisors(n):
        rest = n // a
        for b in divisors(rest):
            c = rest // b
            total += a * a * c * ordered_tuples(i, a) * ordered_tuples(j, b) * ordered_tuples(k, c)
    return total


def psi_reference(t, n):
    i, _, k = as_triple(t)
    return sum(a * ordered_tuples(i, a) * ordered_tuples(k, n // a) for a in divisors(n))


def tau_table(k, limit):
    """tau_k(n) for n = 1..limit (k >= 1): the sieve's chi of (0, k, 0)."""
    return chi_table((0, k, 0), limit)


SMALL_TRIPLES = [
    (i, j, k)
    for i in range(3)
    for j in range(3)
    for k in range(3)
    if i + j + k >= 1
]


class TestAdmissibleTriple:
    def test_rejects_zero_triple(self):
        with pytest.raises(ValueError):
            AdmissibleTriple(0, 0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AdmissibleTriple(-1, 1, 0)

    def test_parse(self):
        assert AdmissibleTriple.parse("0,1,0") == AdmissibleTriple(0, 1, 0)
        with pytest.raises(ValueError):
            AdmissibleTriple.parse("1,2")
        with pytest.raises(ValueError):
            AdmissibleTriple.parse("a,b,c")

    def test_unpacks(self):
        i, j, k = AdmissibleTriple(1, 2, 3)
        assert (i, j, k) == (1, 2, 3)


@cache
def divisor_table(limit):
    return DivisorTable(limit)


class TestDivisorsOf:
    """The divisor lists of DivisorTable."""

    def test_identity_case(self):
        assert divisor_table(1).divisors(1) == [1]

    def test_six(self):
        assert divisor_table(6).divisors(6) == [1, 2, 3, 6]

    def test_twelve(self):
        assert divisor_table(12).divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DivisorTable(0)
        with pytest.raises(ValueError):
            divisor_table(12).divisors(0)

    @given(st.integers(min_value=1, max_value=20000))
    def test_divisor_list_properties(self, n):
        divs = divisor_table(20000).divisors(n)
        assert divs[0] == 1 and divs[-1] == n
        assert all(n % d == 0 for d in divs)
        assert all(a < b for a, b in zip(divs, divs[1:]))

    def test_table_agrees_with_trial_division(self):
        table = divisor_table(300)
        for n in range(1, 301):
            assert table.divisors(n) == divisors(n)
        # the table answers only inside its limit
        for n in (301, 1234):
            with pytest.raises(ValueError):
                table.divisors(n)


class TestTauK:
    def test_tau1_is_one(self):
        assert tau_table(1, 9)[9] == 1

    def test_tau2_counts_divisors(self):
        assert tau_table(2, 6)[6] == 4

    def test_tau3_example(self):
        # sum over d | 4 of tau_2(4/d) = 3 + 2 + 1
        assert tau_table(3, 4)[4] == 6

    def test_recursion(self):
        # tau_{k+1}(n) = sum_{d|n} tau_k(n/d) for k >= 1
        for k in range(1, 5):
            upper = tau_table(k, 500)
            tau_next = tau_table(k + 1, 500)
            for n in range(1, 501):
                assert tau_next[n] == sum(
                    upper[n // d] for d in divisors(n)
                )

    def test_multiplicative(self):
        for k in range(1, 5):
            table = tau_table(k, 3600)
            for m in range(1, 61):
                for n in range(1, 61):
                    if math.gcd(m, n) == 1:
                        assert table[m * n] == table[m] * table[n]

    def test_table_matches_scalar(self):
        # against the oracle's count of ordered factorizations
        for k in range(1, 5):
            table = tau_table(k, 120)
            for n in range(1, 121):
                assert table[n] == oracle._tuples(k, n)


class TestChiPsi:
    def test_chi_examples(self):
        assert chi_table((1, 0, 0), 3)[3] == 9          # n^2 * tau_1(n)
        assert chi_table((0, 1, 0), 5)[5] == 1          # tau_1(5)
        assert chi_table((0, 0, 2), 4)[4] == 12         # n * tau_2(n)
        assert chi_table((1, 0, 1), 6)[6] == 72         # n * sigma(n)

    def test_psi_examples(self):
        assert psi_table((0, 0, 1), 9)[9] == 1
        assert psi_table((1, 0, 0), 7)[7] == 7
        assert psi_table((1, 0, 1), 6)[6] == 12         # sigma(6)

    def test_psi_rejects_positive_j(self):
        with pytest.raises(ValueError):
            psi_table((0, 1, 0), 5)

    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_chi_matches_factorization_count(self, triple):
        assert chi_table(triple, 60)[1:] == [chi_reference(triple, n) for n in range(1, 61)], triple

    @pytest.mark.parametrize("triple", [t for t in SMALL_TRIPLES if t[1] == 0])
    def test_psi_matches_factorization_count(self, triple):
        assert psi_table(triple, 60)[1:] == [psi_reference(triple, n) for n in range(1, 61)], triple

    def test_values_at_least_one(self):
        for triple in SMALL_TRIPLES:
            assert min(chi_table(triple, 100)[1:]) >= 1
            if triple[1] == 0:
                assert min(psi_table(triple, 100)[1:]) >= 1

    def test_tables_match_scalars(self):
        # against the oracle's pointwise weights, which share no code with the sieve
        for triple in SMALL_TRIPLES:
            ct = chi_table(triple, 80)
            assert ct[1:] == [oracle._chi(triple, n) for n in range(1, 81)]
            if triple[1] == 0:
                pt = psi_table(triple, 80)
                assert pt[1:] == [oracle._psi(triple, n) for n in range(1, 81)]


class TestCycleWeight:
    def test_examples(self):
        assert cycle_weight_table((0, 1, 0), "P", 6)[6] == 4      # tau(6)
        assert cycle_weight_table((0, 1, 0), "Q", 2)[2] == 0
        assert cycle_weight_table((0, 1, 0), "Q", 1)[1] == 1

    def test_table_matches_scalar(self):
        # against the oracle's pointwise W(L)
        for triple in [(0, 1, 0), (1, 0, 1), (2, 1, 2)]:
            for form in ("P", "Q"):
                table = cycle_weight_table(triple, form, 60)
                assert table[1:] == [
                    oracle._cycle_weight(triple, L, form) for L in range(1, 61)
                ]

    def test_weighted_endpoints_match(self):
        p_table = cycle_weight_table((0, 2, 1), "P", 39)
        q_table = cycle_weight_table((0, 2, 1), "Q", 39)
        for L in range(1, 40):
            assert cycle_weight_weighted((0, 2, 1), L, Fraction(1)) == p_table[L]
            assert cycle_weight_weighted((0, 2, 1), L, Fraction(-1)) == q_table[L]

    def test_rejects_bad_form(self):
        check_form("P")
        check_form("Q")
        with pytest.raises(ValueError):
            check_form("X")


def weight_reference(t, length, form):
    """W(L) from chi_reference: sum over d | L of chi(d), signed (-1)^(L/d+1) for Q."""
    sign = -1 if form == "Q" else 1
    return sum(sign ** (length // d + 1) * chi_reference(t, d) for d in divisors(length))


SCATTERED_LENGTHS = sorted(
    {20000, 19999, 19997, 18480, 17280, 16384, 15015, 9240, 6561, 4096, 2310, 301}
    | set(range(313, 20000, 719))
)

# every limit up to 130, and p^2 - 1, p^2, p^2 + 1 and 2p^2 for the primes p <= 19,
# where the largest prime with its whole Bell series changes
SIEVE_LIMITS = sorted(
    set(range(1, 131))
    | {n for p in (2, 3, 5, 7, 11, 13, 17, 19) for n in (p * p - 1, p * p, p * p + 1, 2 * p * p)}
)
SIEVE_REFERENCE_LIMIT = 800  # above 2 * 19^2


class TestEulerSieve:
    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_weight_table_matches_factorization_count(self, triple):
        chis = [0] + [chi_reference(triple, n) for n in range(1, 301)]
        for form, sign in (("P", 1), ("Q", -1)):
            expected = [0] + [
                sum(sign ** (L // d + 1) * chis[d] for d in divisors(L)) for L in range(1, 301)
            ]
            assert cycle_weight_table(triple, form, 300) == expected, (triple, form)

    @pytest.mark.parametrize("triple", [(1, 1, 1), (2, 2, 2)])
    @pytest.mark.parametrize("form", ["P", "Q"])
    def test_weight_table_at_scattered_lengths(self, triple, form):
        assert len(SCATTERED_LENGTHS) == 40
        table = cycle_weight_table(triple, form, 20000)
        assert len(table) == 20001
        for L in SCATTERED_LENGTHS:
            assert table[L] == weight_reference(triple, L, form), (triple, form, L)

    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_chi_table_multiplicative_on_coprime_pairs(self, triple):
        table = chi_table(triple, 3600)
        assert table[1] == 1
        for m in range(1, 61):
            for n in range(1, 61):
                if math.gcd(m, n) == 1:
                    assert table[m * n] == table[m] * table[n], (triple, m, n)

    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_edge_limits(self, triple):
        assert chi_table(triple, 1) == [0, 1]
        chi_2 = chi_reference(triple, 2)
        assert chi_table(triple, 2) == [0, 1, chi_2]
        assert cycle_weight_table(triple, "P", 1) == [0, 1]
        assert cycle_weight_table(triple, "Q", 1) == [0, 1]
        assert cycle_weight_table(triple, "P", 2) == [0, 1, chi_2 + 1]
        assert cycle_weight_table(triple, "Q", 2) == [0, 1, chi_2 - 1]
        if triple[1] == 0:
            assert psi_table(triple, 1) == [0, 1]
            assert psi_table(triple, 2) == [0, 1, psi_reference(triple, 2)]
        with pytest.raises(ValueError):
            chi_table(triple, 0)
        with pytest.raises(ValueError):
            cycle_weight_table(triple, "P", 0)

    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_every_small_limit_is_a_prefix(self, triple):
        # each limit moves the split between the primes that take their whole
        # Bell series and those above sqrt(limit) that take only f(p)
        full = {
            "chi": chi_table(triple, SIEVE_REFERENCE_LIMIT),
            "P": cycle_weight_table(triple, "P", SIEVE_REFERENCE_LIMIT),
            "Q": cycle_weight_table(triple, "Q", SIEVE_REFERENCE_LIMIT),
        }
        if triple[1] == 0:
            full["psi"] = psi_table(triple, SIEVE_REFERENCE_LIMIT)
        for limit in SIEVE_LIMITS:
            assert chi_table(triple, limit) == full["chi"][: limit + 1], limit
            assert cycle_weight_table(triple, "P", limit) == full["P"][: limit + 1], limit
            assert cycle_weight_table(triple, "Q", limit) == full["Q"][: limit + 1], limit
            if "psi" in full:
                assert psi_table(triple, limit) == full["psi"][: limit + 1], limit

    @pytest.mark.parametrize("k", range(1, 5))
    def test_every_small_tau_limit_is_a_prefix(self, k):
        full = tau_table(k, SIEVE_REFERENCE_LIMIT)
        for limit in SIEVE_LIMITS:
            assert tau_table(k, limit) == full[: limit + 1], limit

    def test_tables_reject_bad_form(self):
        for form in ("X", None, "p"):
            with pytest.raises(ValueError):
                cycle_weight_table((0, 1, 0), form, 10)
