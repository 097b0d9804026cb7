from math import factorial, prod

import pytest

from partition_forge.oracle import (
    CYCLE_SUM_BOUND,
    CycleType,
    _cycle_weight,
    cycle_type_sum,
    cycle_type_sums,
    cycle_types,
    product_expand,
)
from partition_forge.series import egf_coeffs, ogf_coeffs_euler


class TestCycleTypes:
    def test_counts_are_partition_numbers(self):
        partition_numbers = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, expected in enumerate(partition_numbers):
            assert sum(1 for _ in cycle_types(n)) == expected

    def test_symmetry_factor_divides_factorial(self):
        for n in range(9):
            for ct in cycle_types(n):
                assert factorial(n) % ct.symmetry_factor() == 0

    def test_permutation_counts_sum_to_factorial(self):
        for n in range(1, 9):
            assert sum(ct.permutation_count() for ct in cycle_types(n)) == factorial(n)

    def test_single_type(self):
        ct = CycleType((2, 1, 1))
        assert ct.size == 4
        assert ct.symmetry_factor() == 2 * 1 * 2  # 2^1*1! * 1^2*2!
        assert ct.permutation_count() == 6


class TestCycleTypeSum:
    def test_size_three(self):
        assert cycle_type_sum((0, 1, 0), "P", 3) == 11

    def test_size_four(self):
        # 1 + 12 + 12 + 16 + 18 over the five cycle types of size 4
        assert cycle_type_sum((0, 1, 0), "P", 4) == 59

    def test_empty_permutation(self):
        assert cycle_type_sum((2, 1, 2), "Q", 0) == 1

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            cycle_type_sum((0, 1, 0), "P", CYCLE_SUM_BOUND + 1)

    @pytest.mark.parametrize("triple", [(0, 1, 0), (1, 0, 1), (0, 2, 2), (2, 1, 0)])
    @pytest.mark.parametrize("form", ["P", "Q"])
    def test_agrees_with_recurrence(self, triple, form):
        seq = egf_coeffs(triple, form, 20)
        for n in range(21):
            assert cycle_type_sum(triple, form, n) == seq.values[n]


class TestCycleTypeSums:
    @pytest.mark.parametrize("triple", [(0, 1, 0), (2, 0, 1), (1, 2, 2)])
    @pytest.mark.parametrize("form", ["P", "Q"])
    def test_matches_a_sum_over_the_types_of_each_size(self, triple, form):
        # the one walk over all sizes against cycle_types(n), one size at a time
        weights = [0] + [_cycle_weight(triple, length, form) for length in range(1, 13)]
        expected = [
            sum(ct.permutation_count() * prod(weights[part] for part in ct.parts) for ct in cycle_types(n))
            for n in range(13)
        ]
        assert cycle_type_sums(triple, form, 12) == expected

    @pytest.mark.parametrize(
        "triple, form",
        [((0, 1, 0), "P"), ((0, 2, 0), "Q"), ((0, 0, 1), "Q"), ((1, 0, 1), "P"), ((2, 1, 0), "P"), ((2, 2, 2), "Q")],
    )
    def test_reaches_the_first_block_of_the_exponential_kernel(self, triple, form):
        # the recurrence's first block dot product runs at m = 32 (blocks of 32)
        assert cycle_type_sums(triple, form, 33) == list(egf_coeffs(triple, form, 33).values)

    def test_small_prefixes(self):
        assert cycle_type_sums((0, 1, 0), "P", 4) == [1, 1, 3, 11, 59]
        assert cycle_type_sums((2, 1, 2), "Q", 0) == [1]

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="oracle bound"):
            cycle_type_sums((0, 1, 0), "P", CYCLE_SUM_BOUND + 1)


class TestProductExpand:
    def test_partitions(self):
        assert product_expand((0, 0, 1), "P", 5) == [1, 1, 2, 3, 5, 7]

    def test_plane_partitions(self):
        assert product_expand((1, 0, 0), "P", 4) == [1, 1, 3, 6, 13]

    def test_distinct_partitions(self):
        assert product_expand((0, 0, 1), "Q", 5) == [1, 1, 1, 2, 2, 3]

    def test_rejects_positive_j(self):
        with pytest.raises(ValueError):
            product_expand((0, 1, 0), "P", 5)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            product_expand((0, 0, 1), "P", 500)

    @pytest.mark.parametrize("triple", [(1, 0, 0), (0, 0, 2), (1, 0, 1), (2, 0, 0)])
    @pytest.mark.parametrize("form", ["P", "Q"])
    def test_agrees_with_recurrence(self, triple, form):
        direct = product_expand(triple, form, 100)
        seq = ogf_coeffs_euler(triple, form, 100)
        assert direct == list(seq.values)

    def test_consistent_with_cycle_sum_through_scaling(self):
        # both oracles describe the same series once the n! scaling is applied
        upto = 12
        direct = product_expand((0, 0, 1), "P", upto)
        for n in range(upto + 1):
            assert cycle_type_sum((0, 0, 1), "P", n) == factorial(n) * direct[n]


class TestIndependentWeights:
    def test_oracles_do_not_use_the_sieve(self, monkeypatch):
        from partition_forge import divisors, oracle

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the fast weight sieve")

        for name in ("chi_table", "psi_table", "cycle_weight_table", "cycle_weight_weighted"):
            monkeypatch.setattr(divisors, name, refuse)
            monkeypatch.setattr(oracle, name, refuse, raising=False)
        assert cycle_type_sum((0, 1, 0), "P", 4) == 59
        assert cycle_type_sum((0, 1, 0), "Q", 4) == 11
        assert product_expand((0, 0, 1), "P", 5) == [1, 1, 2, 3, 5, 7]
        assert product_expand((1, 0, 0), "P", 4) == [1, 1, 3, 6, 13]
        assert product_expand((0, 0, 1), "Q", 5) == [1, 1, 1, 2, 2, 3]

