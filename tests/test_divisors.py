import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_forge.divisors import (
    AdmissibleTriple,
    DivisorTable,
    as_triple,
    chi,
    chi_table,
    cycle_weight,
    cycle_weight_table,
    cycle_weight_weighted,
    divisors_of,
    psi,
    psi_table,
    tau_k,
    tau_k_table,
)
from fractions import Fraction


# ---------------------------------------------------------------------------
# independent reference implementations (kept deliberately naive)
# ---------------------------------------------------------------------------

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
    return sum(ordered_tuples(k - 1, n // d) for d in divisors_of(n))


def chi_reference(t, n):
    """chi(n) as the weighted count over factorizations n = a*b*c."""
    i, j, k = as_triple(t)
    total = 0
    for a in divisors_of(n):
        rest = n // a
        for b in divisors_of(rest):
            c = rest // b
            total += a * a * c * ordered_tuples(i, a) * ordered_tuples(j, b) * ordered_tuples(k, c)
    return total


def psi_reference(t, n):
    i, _, k = as_triple(t)
    return sum(a * ordered_tuples(i, a) * ordered_tuples(k, n // a) for a in divisors_of(n))


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


class TestDivisorsOf:
    def test_identity_case(self):
        assert divisors_of(1) == [1]

    def test_six(self):
        assert divisors_of(6) == [1, 2, 3, 6]

    def test_twelve(self):
        assert divisors_of(12) == [1, 2, 3, 4, 6, 12]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors_of(0)

    @given(st.integers(min_value=1, max_value=20000))
    def test_divisor_list_properties(self, n):
        divs = divisors_of(n)
        assert divs[0] == 1 and divs[-1] == n
        assert all(n % d == 0 for d in divs)
        assert all(a < b for a, b in zip(divs, divs[1:]))

    def test_table_agrees_with_trial_division(self):
        table = DivisorTable(300)
        for n in range(1, 301):
            assert table.divisors(n) == divisors_of(n)
        # beyond the sieve limit the table falls back to trial division
        assert table.divisors(1234) == divisors_of(1234)


class TestTauK:
    def test_tau1_is_one(self):
        assert tau_k(1, 9) == 1

    def test_tau2_counts_divisors(self):
        assert tau_k(2, 6) == 4

    def test_tau3_example(self):
        # sum over d | 4 of tau_2(4/d) = 3 + 2 + 1
        assert tau_k(3, 4) == 6

    def test_tau0_convention(self):
        assert tau_k(0, 1) == 1
        assert tau_k(0, 7) == 1

    def test_recursion(self):
        # tau_{k+1}(n) = sum_{d|n} tau_k(n/d) for k >= 1
        for k in range(1, 5):
            upper = tau_k_table(k, 500)
            tau_next = tau_k_table(k + 1, 500)
            for n in range(1, 501):
                assert tau_next[n] == sum(
                    upper[n // d] for d in divisors_of(n)
                )

    def test_multiplicative(self):
        for k in range(1, 5):
            for m in range(1, 61):
                for n in range(1, 61):
                    if math.gcd(m, n) == 1:
                        assert tau_k(k, m * n) == tau_k(k, m) * tau_k(k, n)

    def test_table_matches_scalar(self):
        for k in range(5):
            table = tau_k_table(k, 120)
            for n in range(1, 121):
                assert table[n] == tau_k(k, n)


class TestChiPsi:
    def test_chi_examples(self):
        assert chi((1, 0, 0), 3) == 9          # n^2 * tau_1(n)
        assert chi((0, 1, 0), 5) == 1          # tau_1(5)
        assert chi((0, 0, 2), 4) == 12         # n * tau_2(n)
        assert chi((1, 0, 1), 6) == 72         # n * sigma(n)

    def test_psi_examples(self):
        assert psi((0, 0, 1), 9) == 1
        assert psi((1, 0, 0), 7) == 7
        assert psi((1, 0, 1), 6) == 12         # sigma(6)

    def test_psi_rejects_positive_j(self):
        with pytest.raises(ValueError):
            psi((0, 1, 0), 5)

    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_chi_matches_factorization_count(self, triple):
        for n in range(1, 61):
            assert chi(triple, n) == chi_reference(triple, n), (triple, n)

    @pytest.mark.parametrize("triple", [t for t in SMALL_TRIPLES if t[1] == 0])
    def test_psi_matches_factorization_count(self, triple):
        for n in range(1, 61):
            assert psi(triple, n) == psi_reference(triple, n), (triple, n)

    def test_values_at_least_one(self):
        for triple in SMALL_TRIPLES:
            for n in range(1, 101):
                assert chi(triple, n) >= 1
                if triple[1] == 0:
                    assert psi(triple, n) >= 1

    def test_tables_match_scalars(self):
        for triple in SMALL_TRIPLES:
            ct = chi_table(triple, 80)
            assert ct[1:] == [chi(triple, n) for n in range(1, 81)]
            if triple[1] == 0:
                pt = psi_table(triple, 80)
                assert pt[1:] == [psi(triple, n) for n in range(1, 81)]


class TestCycleWeight:
    def test_examples(self):
        assert cycle_weight((0, 1, 0), 6, "P") == 4      # tau(6)
        assert cycle_weight((0, 1, 0), 2, "Q") == 0
        assert cycle_weight((0, 1, 0), 1, "Q") == 1

    def test_table_matches_scalar(self):
        for triple in [(0, 1, 0), (1, 0, 1), (2, 1, 2)]:
            for form in ("P", "Q"):
                table = cycle_weight_table(triple, form, 60)
                assert table[1:] == [
                    cycle_weight(triple, L, form) for L in range(1, 61)
                ]

    def test_weighted_endpoints_match(self):
        for L in range(1, 40):
            assert cycle_weight_weighted((0, 2, 1), L, Fraction(1)) == cycle_weight(
                (0, 2, 1), L, "P"
            )
            assert cycle_weight_weighted((0, 2, 1), L, Fraction(-1)) == cycle_weight(
                (0, 2, 1), L, "Q"
            )

    def test_rejects_bad_form(self):
        with pytest.raises(ValueError):
            cycle_weight((0, 1, 0), 3, "X")


def weight_reference(t, length, form):
    """W(L) from chi_reference: sum over d | L of chi(d), signed (-1)^(L/d+1) for Q."""
    sign = -1 if form == "Q" else 1
    return sum(sign ** (length // d + 1) * chi_reference(t, d) for d in divisors_of(length))


SCATTERED_LENGTHS = sorted(
    {20000, 19999, 19997, 18480, 17280, 16384, 15015, 9240, 6561, 4096, 2310, 301}
    | set(range(313, 20000, 719))
)


class TestEulerSieve:
    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_weight_table_matches_factorization_count(self, triple):
        chis = [0] + [chi_reference(triple, n) for n in range(1, 301)]
        for form, sign in (("P", 1), ("Q", -1)):
            expected = [0] + [
                sum(sign ** (L // d + 1) * chis[d] for d in divisors_of(L)) for L in range(1, 301)
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
        assert chi_table(triple, 2) == [0, 1, chi(triple, 2)]
        assert cycle_weight_table(triple, "P", 1) == [0, 1]
        assert cycle_weight_table(triple, "Q", 1) == [0, 1]
        assert cycle_weight_table(triple, "P", 2) == [0, 1, chi(triple, 2) + 1]
        assert cycle_weight_table(triple, "Q", 2) == [0, 1, chi(triple, 2) - 1]
        if triple[1] == 0:
            assert psi_table(triple, 1) == [0, 1]
            assert psi_table(triple, 2) == [0, 1, psi(triple, 2)]
        with pytest.raises(ValueError):
            chi_table(triple, 0)
        with pytest.raises(ValueError):
            cycle_weight_table(triple, "P", 0)

    def test_tau0_table_is_all_ones(self):
        for limit in (1, 2, 10, 1000):
            assert list(tau_k_table(0, limit)) == [1] * (limit + 1)

    def test_tables_reject_bad_form(self):
        for form in ("X", None, "p"):
            with pytest.raises(ValueError):
                cycle_weight_table((0, 1, 0), form, 10)
            with pytest.raises(ValueError):
                cycle_weight((0, 1, 0), 3, form)
