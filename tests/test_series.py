import json
from fractions import Fraction
from math import factorial

import pytest

from partition_forge import series
from partition_forge.cli import parse_bfile
from partition_forge.divisors import AdmissibleTriple, cycle_weight, cycle_weight_weighted
from partition_forge.series import (
    CoeffSequence,
    egf_coeffs,
    egf_coeffs_weighted,
    from_decimal,
    ogf_coeffs_euler,
    to_bfile,
    to_decimal,
    to_json,
)

SMALL_TRIPLES = [
    (i, j, k)
    for i in range(3)
    for j in range(3)
    for k in range(3)
    if i + j + k >= 1
]

# the first four keep the ids the rational-route test had with only them
ROUTE_TRIPLES = [(0, 1, 0), (1, 1, 1), (2, 0, 2), (0, 2, 1)]
ROUTE_TRIPLES += [t for t in SMALL_TRIPLES if t not in ROUTE_TRIPLES]

# above the interpreter's 4300-digit int<->str limit
BIG = 7 ** 6000 + 12345


def exp_series_rational(t, form, upto):
    """Independent route: F_m = (1/m) sum W(k) F_{m-k} in exact rationals,
    then scale by m! to get the numerators."""
    weights = [0] + [cycle_weight(t, k, form) for k in range(1, upto + 1)]
    f = [Fraction(1)] + [Fraction(0)] * upto
    for m in range(1, upto + 1):
        f[m] = sum(Fraction(weights[k]) * f[m - k] for k in range(1, m + 1)) / m
    return [f[m] * factorial(m) for m in range(upto + 1)]


def weighted_series_rational(t, v, upto):
    """Independent route for the v-weighted family: the exponential
    recurrence run directly in Fraction on the pointwise weights."""
    weights = [Fraction(0)] + [cycle_weight_weighted(t, k, v) for k in range(1, upto + 1)]
    f = [Fraction(1)] + [Fraction(0)] * upto
    for m in range(1, upto + 1):
        f[m] = sum(weights[k] * f[m - k] for k in range(1, m + 1)) / m
    return [f[m] * factorial(m) for m in range(upto + 1)]


class TestEgfCoeffs:
    def test_cycle_sum_family_example(self):
        assert egf_coeffs((0, 1, 0), "P", 4).values == (1, 1, 3, 11, 59)

    def test_alternating_family_example(self):
        # hand expansion of (1+z)(1+z^2)^(1/2)(1+z^3)^(1/3)(1+z^4)^(1/4)
        assert egf_coeffs((0, 1, 0), "Q", 4).values == (1, 1, 1, 5, 11)

    def test_empty_product(self):
        assert egf_coeffs((1, 1, 1), "P", 0).values == (1,)

    @pytest.mark.parametrize("triple", ROUTE_TRIPLES)
    @pytest.mark.parametrize("form", ["P", "Q"])
    def test_matches_rational_route(self, triple, form):
        fast = egf_coeffs(triple, form, 60).values
        slow = exp_series_rational(triple, form, 60)
        assert list(fast) == slow

    def test_rational_route_deeper_single_case(self):
        fast = egf_coeffs((0, 1, 0), "P", 150).values
        slow = exp_series_rational((0, 1, 0), "P", 150)
        assert list(fast) == slow

    def test_p_values_nonnegative(self):
        for triple in SMALL_TRIPLES:
            assert all(v >= 0 for v in egf_coeffs(triple, "P", 60).values)

    def test_q_values_nonnegative_where_observed(self):
        # Not guaranteed in general for j >= 1; this documents that no
        # negative value occurs for any small triple up to n = 120.
        offenders = []
        for triple in SMALL_TRIPLES:
            seq = egf_coeffs(triple, "Q", 120)
            for n, v in enumerate(seq.values):
                if v < 0:
                    offenders.append((triple, n, v))
                    break
        assert offenders == [], f"negative Q numerators found: {offenders}"


class TestWeighted:
    def test_v_one_is_p(self):
        assert list(egf_coeffs_weighted((0, 1, 0), 1, 4).values) == [1, 1, 3, 11, 59]

    def test_v_minus_one_is_q(self):
        assert list(egf_coeffs_weighted((0, 1, 0), -1, 4).values) == [1, 1, 1, 5, 11]

    def test_v_zero_kills_everything(self):
        assert list(egf_coeffs_weighted((0, 1, 0), 0, 4).values) == [1, 0, 0, 0, 0]

    def test_generic_v_stays_rational_and_consistent(self):
        v = Fraction(2, 3)
        seq = egf_coeffs_weighted((0, 0, 1), v, 20)
        assert seq.v == v
        assert all(isinstance(x, Fraction) for x in seq.values)
        assert weighted_series_rational((0, 0, 1), v, 20) == list(seq.values)

    @pytest.mark.parametrize("v", ["2/3", "-3/4", "5", "-7/2", "1/7"])
    @pytest.mark.parametrize("triple", [(0, 0, 1), (1, 2, 1)])
    def test_independent_route_across_v(self, triple, v):
        v = Fraction(v)
        seq = egf_coeffs_weighted(triple, v, 20)
        assert seq.v == v
        assert all(type(x) is Fraction for x in seq.values)
        assert weighted_series_rational(triple, v, 20) == list(seq.values)


class TestOgfCoeffs:
    def test_partition_numbers(self):
        assert ogf_coeffs_euler((0, 0, 1), "P", 6).values == (1, 1, 2, 3, 5, 7, 11)

    def test_distinct_partition_numbers(self):
        assert ogf_coeffs_euler((0, 0, 1), "Q", 6).values == (1, 1, 1, 2, 2, 3, 4)

    def test_plane_partition_numbers(self):
        assert ogf_coeffs_euler((1, 0, 0), "P", 5).values == (1, 1, 3, 6, 13, 24)

    def test_rejects_positive_j(self):
        with pytest.raises(ValueError):
            ogf_coeffs_euler((0, 1, 0), "P", 5)

    @pytest.mark.parametrize("triple", [(1, 0, 0), (0, 0, 1), (0, 0, 2), (2, 0, 0), (1, 0, 1)])
    @pytest.mark.parametrize("form", ["P", "Q"])
    def test_exponential_and_ordinary_routes_agree(self, triple, form):
        upto = 60
        e = egf_coeffs(triple, form, upto).values
        o = ogf_coeffs_euler(triple, form, upto).values
        assert all(e[n] == factorial(n) * o[n] for n in range(upto + 1))

    def test_values_nonnegative(self):
        for triple in [(1, 0, 0), (0, 0, 2), (1, 0, 1)]:
            for form in ("P", "Q"):
                assert all(v >= 0 for v in ogf_coeffs_euler(triple, form, 80).values)

    def test_inexact_division_raises(self, monkeypatch):
        # c_1 = 1, c_2 = 0 gives 2 * F_2 = 1, which has no integer solution
        monkeypatch.setattr(series, "cycle_weight_table", lambda t, form, limit: [0, 1] + [0] * limit)
        with pytest.raises(ArithmeticError, match="inexact division at n=2"):
            ogf_coeffs_euler((0, 0, 1), "P", 3)


class TestSerialization:
    def test_bfile_round_trip(self):
        seq = ogf_coeffs_euler((0, 0, 1), "P", 40)
        records = parse_bfile(to_bfile(seq))
        assert [r.index for r in records] == list(range(41))
        assert tuple(r.value for r in records) == seq.values

    def test_json_uses_decimal_strings(self):
        seq = egf_coeffs((0, 1, 0), "P", 30)
        payload = json.loads(to_json(seq))
        assert payload["triple"] == [0, 1, 0]
        assert payload["form"] == "P"
        assert payload["kind"] == "egf-numerator"
        assert all(isinstance(s, str) for s in payload["values"])
        assert [int(s) for s in payload["values"]] == list(seq.values)

    def test_json_weighted_keeps_fractions(self):
        seq = egf_coeffs_weighted((0, 1, 0), Fraction(1, 2), 6)
        payload = json.loads(to_json(seq))
        assert payload["v"] == "1/2"
        assert [Fraction(s) for s in payload["values"]] == list(seq.values)

    def test_bfile_round_trip_past_digit_limit(self):
        seq = CoeffSequence(AdmissibleTriple(0, 1, 0), "P", "ogf", (1, BIG, -BIG))
        records = parse_bfile(to_bfile(seq))
        assert tuple(r.value for r in records) == (1, BIG, -BIG)

    def test_json_round_trip_past_digit_limit(self):
        seq = CoeffSequence(AdmissibleTriple(0, 1, 0), "P", "ogf", (1, BIG))
        payload = json.loads(to_json(seq))
        assert len(payload["values"][1]) > 4300
        assert from_decimal(payload["values"][1]) == BIG

    def test_decimal_helpers_any_size(self):
        for value in (0, -7, BIG, -BIG):
            assert from_decimal(to_decimal(value)) == value
        assert to_decimal(Fraction(BIG, 3)).endswith("/3")
        assert to_decimal(Fraction(-6, 3)) == "-2"
        assert to_decimal(Fraction(1, 2)) == str(Fraction(1, 2))
        assert from_decimal("+12") == 12

    @pytest.mark.parametrize(
        "token",
        ["", "1_000", " 1", "1e5", "0x10", "\u0663", "1" * 5000 + "x"],
        ids=["empty", "underscore", "space", "exponent", "hex", "arabic-digit", "long-trailing-x"],
    )
    def test_decimal_parse_is_strict(self, token):
        with pytest.raises(ValueError):
            from_decimal(token)


class TestCoeffSequence:
    def test_requires_leading_one(self):
        triple = egf_coeffs((0, 0, 1), "P", 0).triple
        with pytest.raises(ValueError):
            CoeffSequence(triple=triple, form="P", kind="ogf", values=(0, 1))

    def test_rejects_unknown_tags(self):
        triple = egf_coeffs((0, 0, 1), "P", 0).triple
        with pytest.raises(ValueError):
            CoeffSequence(triple=triple, form="R", kind="ogf", values=(1,))
        with pytest.raises(ValueError):
            CoeffSequence(triple=triple, form="P", kind="egf", values=(1,))

    def test_indexing(self):
        seq = ogf_coeffs_euler((0, 0, 1), "P", 10)
        assert seq[5] == 7
        assert len(seq) == 11
