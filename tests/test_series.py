import gc
import json
import pickle
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from operator import mul

import pytest

from partition_forge import series
from partition_forge.cli import parse_bfile
from partition_forge.divisors import AdmissibleTriple, cycle_weight_table
from partition_forge.oracle import _chi, _cycle_weight
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
MERSENNE_61 = 2 ** 61 - 1


def exp_kernel(t, form, upto):
    """p_0..p_upto from the exponential kernel, for any pair: egf_coeffs sends j = 0 pairs to the ordinary one."""
    return series._exp_numerators(cycle_weight_table(t, form, max(upto, 1)), upto)


def exp_series_rational(t, form, upto):
    """Independent route: F_m = (1/m) sum W(k) F_{m-k} in exact rationals,
    then scale by m! to get the numerators.  The weights are the oracle's,
    counted from their definition without the sieve."""
    weights = [0] + [_cycle_weight(t, k, form) for k in range(1, upto + 1)]
    f = [Fraction(1)] + [Fraction(0)] * upto
    for m in range(1, upto + 1):
        f[m] = sum(Fraction(weights[k]) * f[m - k] for k in range(1, m + 1)) / m
    return [f[m] * factorial(m) for m in range(upto + 1)]


@lru_cache(maxsize=None)
def oracle_chis(t, upto):
    """chi(0..upto) (chi(0) = 0), each counted by the oracle from its definition."""
    return (0,) + tuple(_chi(t, d) for d in range(1, upto + 1))


def weighted_weights(t, v, upto):
    """W_v(0..upto) = sum_{d|k} v^(k/d+1) chi(d) in Fraction (W_v(0) = 0), without the sieve."""
    v, chis = Fraction(v), oracle_chis(t, upto)
    return [Fraction(0)] + [
        sum(v ** (k // d + 1) * chis[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, upto + 1)
    ]


def weighted_series_rational(t, v, upto):
    """Independent route for the v-weighted family: the exponential
    recurrence run directly in Fraction on the oracle's weights."""
    weights = weighted_weights(t, v, upto)
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

    def test_rejects_negative_upto(self):
        with pytest.raises(ValueError, match="upto must be >= 0"):
            egf_coeffs((0, 1, 0), "P", -1)

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

    def test_rejects_negative_upto(self):
        with pytest.raises(ValueError, match="upto must be >= 0"):
            egf_coeffs_weighted((0, 1, 0), 1, -1)

    def test_v_zero_kills_everything(self):
        assert list(egf_coeffs_weighted((0, 1, 0), 0, 4).values) == [1, 0, 0, 0, 0]

    def test_generic_v_stays_rational_and_consistent(self):
        v = Fraction(2, 3)
        seq = egf_coeffs_weighted((0, 0, 1), v, 20)
        assert seq.v == v
        assert all(isinstance(x, Fraction) for x in seq.values)
        assert weighted_series_rational((0, 0, 1), v, 20) == list(seq.values)

    # to 40, past the first complete block of the kernel; denominators with
    # two primes (6, 10), numerators other than 1 (9/4), b = 1 (2, -3) and v = 0
    @pytest.mark.parametrize("v", ["2/3", "-3/4", "5", "-7/2", "1/7", "5/6", "-7/10", "9/4", "2", "-3", "0"])
    @pytest.mark.parametrize("triple", [(0, 0, 1), (1, 2, 1)])
    def test_independent_route_across_v(self, triple, v):
        v = Fraction(v)
        seq = egf_coeffs_weighted(triple, v, 40)
        assert seq.v == v
        assert all(type(x) is Fraction for x in seq.values)
        assert weighted_series_rational(triple, v, 40) == list(seq.values)


    # denominators with one prime (3, 2), two (6, 10), b = 1 (2, 1, -1) and v = 0
    @pytest.mark.parametrize("v", ["1/3", "-3/4", "5/6", "-7/2", "7/10", "2", "0", "1", "-1"])
    @pytest.mark.parametrize("triple", SMALL_TRIPLES)
    def test_denominators_are_exactly_the_powers_of_b(self, triple, v):
        b = Fraction(v).denominator
        values = egf_coeffs_weighted(triple, Fraction(v), 60).values
        assert [x.denominator for x in values] == [b ** (2 * m) for m in range(61)]
        assert [m for m, x in enumerate(values) if gcd(x.numerator, b) != 1] == []

    @pytest.mark.parametrize(
        "numerator, denominator",
        [
            (0, 1), (1, 1), (-7, 1), (13, 81), (-217, 729), (5, 6**12), (-MERSENNE_61, 2**61),
            pytest.param(MERSENNE_61**40, 10**40, id="m61^40-10^40"),
        ],
    )
    def test_coprime_fraction_matches_a_normalized_one(self, numerator, denominator):
        built, plain = series._coprime_fraction(numerator, denominator), Fraction(numerator, denominator)
        assert type(built) is Fraction
        assert (built.numerator, built.denominator) == (plain.numerator, plain.denominator)
        assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
        for other in (Fraction(1, 3), Fraction(-5, 2), 0, 1):
            assert (built < other, built <= other, built > other) == (plain < other, plain <= other, plain > other)
            assert built + other == plain + other and built * other == plain * other
        assert built + built == plain + plain and built * built == plain * plain
        restored = pickle.loads(pickle.dumps(built))
        assert (restored.numerator, restored.denominator) == (plain.numerator, plain.denominator)

    def test_numerator_sharing_a_factor_with_b_raises(self, monkeypatch):
        exact = series._exp_numerators

        def spoiled(weights, upto, scale=1):
            p = exact(weights, upto, scale)
            p[5] *= 3
            return p

        monkeypatch.setattr(series, "_exp_numerators", spoiled)
        with pytest.raises(ArithmeticError, match="shares a factor with b = 3"):
            egf_coeffs_weighted((0, 1, 0), Fraction(1, 3), 10)


class TestOgfCoeffs:
    def test_partition_numbers(self):
        assert ogf_coeffs_euler((0, 0, 1), "P", 6).values == (1, 1, 2, 3, 5, 7, 11)

    def test_distinct_partition_numbers(self):
        assert ogf_coeffs_euler((0, 0, 1), "Q", 6).values == (1, 1, 1, 2, 2, 3, 4)

    def test_plane_partition_numbers(self):
        assert ogf_coeffs_euler((1, 0, 0), "P", 5).values == (1, 1, 3, 6, 13, 24)

    def test_rejects_negative_upto(self):
        with pytest.raises(ValueError, match="upto must be >= 0"):
            ogf_coeffs_euler((0, 0, 1), "P", -1)

    def test_rejects_positive_j(self):
        with pytest.raises(ValueError):
            ogf_coeffs_euler((0, 1, 0), "P", 5)

    @pytest.mark.parametrize("triple", [(1, 0, 0), (0, 0, 1), (0, 0, 2), (2, 0, 0), (1, 0, 1)])
    @pytest.mark.parametrize("form", ["P", "Q"])
    def test_exponential_and_ordinary_routes_agree(self, triple, form):
        upto = 60
        e = exp_kernel(triple, form, upto)
        o = ogf_coeffs_euler(triple, form, upto).values
        assert all(e[n] == factorial(n) * o[n] for n in range(upto + 1))

    def test_values_nonnegative(self):
        for triple in [(1, 0, 0), (0, 0, 2), (1, 0, 1)]:
            for form in ("P", "Q"):
                assert all(v >= 0 for v in ogf_coeffs_euler(triple, form, 80).values)
        # every j = 0 weight, P and Q, is a positive integer (its Bell series at each prime has positive
        # coefficients), so every ordinary coefficient is too: the kernel's slots hold no negative sum
        for i in range(5):
            for k in range(5):
                for form in ("P", "Q") if i + k else ():
                    assert min(cycle_weight_table((i, 0, k), form, 20000)[1:]) >= 1, (i, k, form)
                    if i <= 2 and k <= 2:
                        assert min(ogf_coeffs_euler((i, 0, k), form, 2000).values) >= 1, (i, k, form)

    def test_inexact_division_raises(self, monkeypatch):
        # c_1 = 1, c_2 = 0 gives 2 * F_2 = 1, which has no integer solution
        monkeypatch.setattr(series, "cycle_weight_table", lambda t, form, limit: [0, 1] + [0] * limit)
        with pytest.raises(ArithmeticError, match="inexact division at n=2"):
            ogf_coeffs_euler((0, 0, 1), "P", 3)

    @pytest.mark.parametrize(
        "lag, short_lags", [(97, 32), (1100, 512), (1100, 1024), (1100, 128), (1100, series._NAIVE_LAGS)]
    )
    def test_inexact_division_raises_inside_a_block_product(self, monkeypatch, lag, short_lags):
        # W(lag) reaches target `lag` only through the product F[0:b) x W[b:2b)
        # with b <= lag < 2b; one more unit there gives lag * F_lag = (its true value) + 1
        def corrupted(t, form, limit):
            table = cycle_weight_table(t, form, limit)
            table[lag] += 1
            return table

        monkeypatch.setattr(series, "_NAIVE_LAGS", short_lags)
        monkeypatch.setattr(series, "cycle_weight_table", corrupted)
        with pytest.raises(ArithmeticError, match=f"inexact division at n={lag} "):
            ogf_coeffs_euler((0, 0, 1), "P", lag + 50)

    def test_inexact_division_raises_at_a_packed_lag(self, monkeypatch):
        # lag 5, in _PACK.._NAIVE_LAGS-1, is summed in a dot product over packed windows of F, and
        # lag 3 < _PACK term by term; neither in a block product
        assert 3 < series._PACK <= 5 < series._NAIVE_LAGS
        for lag in (5, 3):

            def corrupted(t, form, limit, lag=lag):
                table = cycle_weight_table(t, form, limit)
                table[lag] += 1
                return table

            monkeypatch.setattr(series, "cycle_weight_table", corrupted)
            with pytest.raises(ArithmeticError, match=f"inexact division at n={lag} "):
                ogf_coeffs_euler((0, 0, 1), "Q", 20)


@lru_cache(maxsize=None)
def dot_product_ogf(t, form, upto):
    """F_0..F_upto from n F_n = sum_{k<=n} W(k) F_{n-k}, one dot product per n."""
    weights = cycle_weight_table(t, form, max(upto, 1))
    values = [1]
    for n in range(1, upto + 1):
        q, r = divmod(sum(map(mul, weights[1 : n + 1], values[::-1])), n)
        assert r == 0, n
        values.append(q)
    return tuple(values)


ORDINARY_PAIRS = [(t, form) for t in SMALL_TRIPLES if t[1] == 0 for form in "PQ"]


class TestOgfBlockKernel:
    """The block-product kernel against the plain dot-product recurrence."""

    @pytest.mark.parametrize("triple, form", ORDINARY_PAIRS)
    def test_matches_dot_product_across_block_edges(self, monkeypatch, triple, form):
        # block products from a low cutoff on, so that short runs cross many block edges;
        # cutoff 1 is not valid: F_0's lag-1 term reaches target 1 only through the short sum
        reference = dot_product_ogf(triple, form, 300)
        for short_lags in (2, 3, 32, 64):
            monkeypatch.setattr(series, "_NAIVE_LAGS", short_lags)
            for upto in (0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 300):
                assert ogf_coeffs_euler(triple, form, upto).values == reference[: upto + 1], (short_lags, upto)

    @pytest.mark.parametrize("width", [1, 3, 4])
    @pytest.mark.parametrize("triple, form", ORDINARY_PAIRS)
    def test_matches_dot_product_at_other_pack_widths(self, monkeypatch, triple, form, width):
        # a run that ends `width` terms past a block edge cuts every block product started
        # there to `width` terms per Kronecker pack
        reference = dot_product_ogf(triple, form, 300)
        for short_lags in (3, 32):
            monkeypatch.setattr(series, "_NAIVE_LAGS", short_lags)
            edge = short_lags
            while edge + width <= 300:
                upto = edge - 1 + width
                assert ogf_coeffs_euler(triple, form, upto).values == reference[: upto + 1], (short_lags, upto)
                edge *= 2

    @pytest.mark.parametrize("triple, form", ORDINARY_PAIRS)
    def test_matches_dot_product_at_other_group_sizes(self, monkeypatch, triple, form):
        # _PACK targets share one packed dot product; runs end at group edges (multiples of _PACK, +-1)
        # and at block edges, and _PACK >= _NAIVE_LAGS packs only the lag _NAIVE_LAGS - 1
        reference = dot_product_ogf(triple, form, 300)
        for pack in (1, 2, 3, 5):
            monkeypatch.setattr(series, "_PACK", pack)
            for short_lags in (2, 3, 4, 5, 32):
                monkeypatch.setattr(series, "_NAIVE_LAGS", short_lags)
                edges = (pack, 2 * pack, 7 * pack, short_lags, 4 * short_lags)
                for upto in sorted({0, 1, 2, 300, *(e + d for e in edges for d in (-1, 0, 1))}):
                    values = ogf_coeffs_euler(triple, form, upto).values
                    assert values == reference[: upto + 1], (pack, short_lags, upto)

    @pytest.mark.parametrize("ratio", [1, 2, 3, 4])
    def test_negative_slot_sums(self, monkeypatch, ratio):
        # with a = ratio, W(k) = 5 (-a)^k is W of F = (1 + az)^-5, F_n = (-a)^n C(n+4, 4): every short-lag sum
        # alternates in sign, where no sum of the real j = 0 weights goes negative; the kernel's slots take
        # only non-negative sums, so at every upto, 0 included, the table is refused at its first lag
        monkeypatch.setattr(
            series, "cycle_weight_table", lambda t, form, limit: [0] + [5 * (-ratio) ** k for k in range(1, limit + 1)]
        )
        for upto in (0, 1, 2, 3, 4, 5, 33, series._NAIVE_LAGS - 1, series._NAIVE_LAGS + 3):
            with pytest.raises(ArithmeticError, match=rf"negative weight W\(1\) = {-5 * ratio} for triple"):
                ogf_coeffs_euler((0, 0, 1), "P", upto)

    def test_negative_weight_raises(self, monkeypatch):
        # the kernel's slots take only non-negative sums; a table with a negative weight, at a lag summed
        # term by term, in the packed dot product or only in a block product, is refused with that lag named
        for lag in (2, 5, series._NAIVE_LAGS + 3):

            def corrupted(t, form, limit, lag=lag):
                table = cycle_weight_table(t, form, limit)
                table[lag] = -table[lag]
                table[lag + 1] = -1  # a second negative weight: the first is the one named
                return table

            monkeypatch.setattr(series, "cycle_weight_table", corrupted)
            with pytest.raises(ArithmeticError, match=rf"negative weight W\({lag}\) = -\d+ for triple"):
                ogf_coeffs_euler((0, 0, 1), "P", lag + 50)

    def test_slots_past_the_int_str_digit_limit(self, monkeypatch):
        # W(k) = 5 a^k is W of F = (1 - az)^-5, F_n = a^n C(n+4, 4) >= 0; with a = 10^5 every block product's
        # slots are wider than the lowest int/str digit limit, so each value crosses it on the way in and out
        a = 10 ** 5
        monkeypatch.setattr(
            series, "cycle_weight_table", lambda t, form, limit: [0] + [5 * a ** k for k in range(1, limit + 1)]
        )
        upto = 2 * series._NAIVE_LAGS + 50
        expected = tuple(a ** n * comb(n + 4, 4) for n in range(upto + 1))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            values = ogf_coeffs_euler((0, 0, 1), "P", upto).values
        finally:
            sys.set_int_max_str_digits(limit)
        assert values == expected

    def test_block_product_past_a_million_digits(self):
        # two factors of 10^4 values of 45 digits pack into slots of 95 digits: a product of 1.9 million digits, past
        # the default decimal context's Emax; the schoolbook sums are checked at every 97th target and the last
        rng = random.Random(13)
        f = [rng.randrange(10 ** 45) for _ in range(10 ** 4)]
        w = [rng.randrange(10 ** 45) for _ in range(10 ** 4)]
        assert len(str(max(f))) + len(str(max(w))) + len(str(len(f))) == 95
        before = [rng.randrange(-(10 ** 9), 10 ** 9) for _ in range(2 * 10 ** 4 + 5)]
        acc = list(before)
        series._add_block_product(f, w, acc, 3)
        span = len(f) + len(w) - 1
        for i in [*range(0, span, 97), span - 1]:
            schoolbook = sum(f[p] * w[i - p] for p in range(max(0, i - len(w) + 1), min(i, len(f) - 1) + 1))
            assert acc[3 + i] == before[3 + i] + schoolbook, i
        assert acc[:3] == before[:3] and acc[3 + span :] == before[3 + span :]

    @pytest.mark.parametrize("digits", [512, 513])
    def test_block_product_at_the_slot_parse_boundary(self, digits):
        # slots of 512 and 513 digits under the lowest digit limit (640): both parse with int()
        rng = random.Random(digits)
        f = [rng.randrange(10 ** 254, 10 ** 255) for _ in range(6)]
        k = digits - 255 - 1  # digits of max w, beside 255 of max f and 1 of len(f)
        w = [rng.randrange(10 ** (k - 1), 10 ** k) for _ in range(7)]
        assert len(str(max(f))) + len(str(max(w))) + len(str(len(f))) == digits
        before = [rng.randrange(-(10 ** 9), 10 ** 9) for _ in range(len(f) + len(w) + 5)]
        acc = list(before)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            series._add_block_product(f, w, acc, 3)
        finally:
            sys.set_int_max_str_digits(limit)
        span = len(f) + len(w) - 1
        for i in range(span):
            schoolbook = sum(f[p] * w[i - p] for p in range(max(0, i - len(w) + 1), min(i, len(f) - 1) + 1))
            assert acc[3 + i] == before[3 + i] + schoolbook, i
        assert acc[:3] == before[:3] and acc[3 + span :] == before[3 + span :]

    def test_block_product_parses_wide_slots_whole_under_the_default_limit(self, monkeypatch):
        # slots of 1500 digits are under the default int/str digit limit (4300), so int() parses them whole
        def refuse(digits):
            raise AssertionError("a slot under the live digit limit went through _from_digits")

        monkeypatch.setattr(series, "_from_digits", refuse)
        rng = random.Random(1500)
        f = [rng.randrange(10 ** 749, 10 ** 750) for _ in range(5)]
        w = [rng.randrange(10 ** 748, 10 ** 749) for _ in range(6)]
        assert len(str(max(f))) + len(str(max(w))) + len(str(len(f))) == 1500
        before = [rng.randrange(-(10 ** 9), 10 ** 9) for _ in range(len(f) + len(w) + 5)]
        acc = list(before)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            series._add_block_product(f, w, acc, 3)
        finally:
            sys.set_int_max_str_digits(limit)
        span = len(f) + len(w) - 1
        for i in range(span):
            schoolbook = sum(f[p] * w[i - p] for p in range(max(0, i - len(w) + 1), min(i, len(f) - 1) + 1))
            assert acc[3 + i] == before[3 + i] + schoolbook, i
        assert acc[:3] == before[:3] and acc[3 + span :] == before[3 + span :]

    @pytest.mark.parametrize("triple, form", [((0, 0, 1), "P"), ((1, 0, 0), "Q"), ((2, 0, 2), "P")])
    def test_matches_dot_product_past_2000(self, triple, form):
        b = series._NAIVE_LAGS
        reference = dot_product_ogf(triple, form, max(2000, 2 * b + 1))
        for upto in (b - 1, b, b + 1, 2000, 2 * b + 1):
            assert ogf_coeffs_euler(triple, form, upto).values == reference[: upto + 1], upto


def horner_exp_numerators(weights, upto):
    """p_0..p_upto from p_m = sum_{j<m} W(m-j) p_j (j+1)...(m-1), by Horner's rule in j."""
    p = [1] + [0] * upto
    for m in range(1, upto + 1):
        acc = 0
        for j, w, pj in zip(range(m), weights[m:0:-1], p):
            acc = acc * j + w * pj
        p[m] = acc
    return p


EXP_PAIRS = [(t, form) for t in SMALL_TRIPLES for form in "PQ"]
SHORT_BLOCK_UPTOS = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300)


def small_exp_leaves(monkeypatch):
    """Horner leaves of 4 targets and direct middle products of 2, so that short runs cross many
    splits, odd halves (the extra target row) and odd middle products (the peeled row and column)."""
    monkeypatch.setattr(series, "_EXP_LEAF", 4)
    monkeypatch.setattr(series, "_MIDDLE_LEAF", 2)


class TestExpBlockKernel:
    """The split kernel against the plain Horner loop."""

    @pytest.mark.parametrize("triple, form", EXP_PAIRS)
    def test_matches_horner_across_block_edges(self, monkeypatch, triple, form):
        small_exp_leaves(monkeypatch)
        reference = horner_exp_numerators(cycle_weight_table(triple, form, 300), 300)
        for upto in SHORT_BLOCK_UPTOS:
            assert exp_kernel(triple, form, upto) == reference[: upto + 1], upto

    @pytest.mark.parametrize("triple, form", [((0, 1, 0), "P"), ((2, 2, 2), "Q"), ((1, 0, 1), "P")])
    def test_matches_horner_at_the_real_block_size(self, triple, form):
        r = series._EXP_LEAF
        reference = horner_exp_numerators(cycle_weight_table(triple, form, 800), 800)
        for upto in (r - 1, r, r + 1, 2 * r - 1, 2 * r, 2 * r + 1, 800):
            assert exp_kernel(triple, form, upto) == reference[: upto + 1], upto

    @pytest.mark.parametrize("triple, form", [(t, form) for t, form in EXP_PAIRS if t[1] == 0])
    def test_ordinary_route_of_j0_pairs_matches_the_kernel(self, triple, form):
        for upto in (0, 1, 2, 300):
            assert list(egf_coeffs(triple, form, upto).values) == exp_kernel(triple, form, upto), upto

    @pytest.mark.parametrize("v", ["1/3", "-2/3", "3/4", "5/6", "-7/10", "9/4", "2", "-3", "0"])
    @pytest.mark.parametrize("triple", [(0, 1, 0), (1, 2, 1)])
    def test_weighted_matches_horner_across_block_edges(self, monkeypatch, triple, v):
        small_exp_leaves(monkeypatch)
        v = Fraction(v)
        scale = [v.denominator ** (2 * k) for k in range(301)]
        weights = [w * s for w, s in zip(weighted_weights(triple, v, 300), scale)]
        assert all(w.denominator == 1 for w in weights[1:])
        numerators = horner_exp_numerators([int(w) for w in weights], 300)
        reference = [Fraction(x, scale[m]) for m, x in enumerate(numerators)]
        for upto in SHORT_BLOCK_UPTOS:
            assert list(egf_coeffs_weighted(triple, v, upto).values) == reference[: upto + 1], upto

    @pytest.mark.parametrize("leaf", [1, 2, series._MIDDLE_LEAF])
    def test_middle_product_matches_direct_toeplitz_sums(self, monkeypatch, leaf):
        # every n to 70 crosses even and odd splits, and at the real leaf the sizes around it and its doubles
        monkeypatch.setattr(series, "_MIDDLE_LEAF", leaf)
        rng = random.Random(leaf)
        for n in range(1, 71):
            w = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(2 * n - 1)]
            x = [rng.randint(-(2 ** 3000), 2 ** 3000) for _ in range(n)]
            expected = [sum(w[a - b + n - 1] * x[b] for b in range(n)) for a in range(n)]
            assert series._middle(w, x) == expected, n

    def test_leaves_no_cyclic_garbage(self):
        # a kernel whose recursion referred to itself through a closure would keep p alive until a collection
        gc.collect()
        gc.disable()
        try:
            egf_coeffs((0, 1, 0), "P", 200)
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    @pytest.mark.parametrize(
        "seq",
        [
            egf_coeffs((0, 1, 0), "P", 30),
            egf_coeffs((2, 2, 2), "Q", 40),
            ogf_coeffs_euler((0, 0, 1), "P", 60),
            egf_coeffs_weighted((1, 0, 1), Fraction(2, 3), 12),
            CoeffSequence(AdmissibleTriple(0, 1, 0), "weighted", "egf-numerator",
                          (1, Fraction(-3, 4), -BIG, Fraction(-BIG, 7), 0), v=Fraction(-1, 3)),
        ],
        ids=["egf-P", "egf-Q", "ogf", "weighted", "weighted-negative"],
    )
    def test_json_text_equals_json_dumps_of_the_payload(self, seq):
        payload = {
            "triple": [seq.triple.i, seq.triple.j, seq.triple.k],
            "form": seq.form,
            "kind": seq.kind,
            "values": [to_decimal(value) for value in seq.values],
        }
        if seq.v is not None:
            payload["v"] = to_decimal(seq.v)
        assert to_json(seq) == json.dumps(payload)

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
        assert to_decimal(Fraction(BIG)) == to_decimal(BIG)
        assert to_decimal(Fraction(-BIG, 3)) == to_decimal(-BIG) + "/3"
        assert to_decimal(Fraction(-3, 4)) == "-3/4"
        assert from_decimal("+12") == 12

    def test_decimal_of_a_small_value_asks_no_type(self, monkeypatch):
        # ints and Fractions within the digit limit render through str() alone, before any isinstance check
        class Unasked(type):
            def __instancecheck__(cls, obj):
                raise AssertionError("to_decimal asked for a type")

        monkeypatch.setattr(series, "Fraction", Unasked("Fraction", (), {}))
        assert to_decimal(-12345) == "-12345"
        assert to_decimal(Fraction(-3, 4)) == "-3/4"
        assert to_decimal(Fraction(6, 3)) == "2"

    @pytest.mark.parametrize("digits", [4301, 10**4 + 1, 65537, 10**5])
    def test_decimal_round_trip_of_random_digits(self, digits):
        rng = random.Random(digits)
        text = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=digits - 1))
        residue = 0  # the value mod 2^61 - 1, by Horner's rule over the digits
        for ch in text:
            residue = (residue * 10 + int(ch)) % MERSENNE_61
        value = from_decimal(text)
        assert value % MERSENNE_61 == residue
        assert to_decimal(value) == text
        assert from_decimal("-" + text) == -value
        assert to_decimal(-value) == "-" + text
        seq = CoeffSequence(AdmissibleTriple(0, 0, 1), "P", "ogf", (1, value, -value))
        assert tuple(r.value for r in parse_bfile(to_bfile(seq))) == (1, value, -value)

    @pytest.mark.parametrize(
        "token",
        ["", "1_000", " 1", "1e5", "0x10", "\u0663", "1" * 5000 + "x"],
        ids=["empty", "underscore", "space", "exponent", "hex", "arabic-digit", "long-trailing-x"],
    )
    def test_decimal_parse_is_strict(self, token):
        with pytest.raises(ValueError):
            from_decimal(token)


def unlimited_str(value):
    """str(value) with the int/str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def codec_edge_values():
    """Ints one bit either side of each threshold of to_decimal, and 10^k - 1, 10^k, 10^k + 1 around the split
    powers, where a low half is all zeros or all nines; both signs, and zero."""
    rng = random.Random(26)
    values = [0]
    for threshold in (series._STR_BITS, 3000, series._DECIMAL_BITS):
        for bits in (threshold - 1, threshold, threshold + 1):
            values += [(1 << bits) - 1, 1 << bits - 1, 1 << bits - 1 | rng.getrandbits(bits - 1)]
    for k in (256, 511, 512, 513, 1024, 4096, 2**14):
        values += [10**k - 1, 10**k, 10**k + 1, 10 ** (2 * k) + 1, (10**k + 1) * 10**k]
    values.append((1 << 2 * series._DECIMAL_BITS + 1) - 1)  # two levels of Decimal joins
    return values + [-value for value in values[1:]]


CODEC_EDGE_VALUES = codec_edge_values()


@pytest.fixture(params=[None, 640], ids=["default-limit", "limit-640"])
def digit_limit(request):
    """The default int/str digit limit, or the lowest one allowed, for the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param or sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


class TestDecimalHalves:
    """to_decimal's routes: str() for short ints, decimal halves above _STR_BITS, Decimal joins above _DECIMAL_BITS."""

    def test_str_bits_is_the_longest_int_under_the_int_digits(self):
        # 1700 bits: every int this short has at most _INT_DIGITS digits, and one bit more can have one digit more
        short, longer = (1 << series._STR_BITS) - 1, (1 << series._STR_BITS + 1) - 1
        assert len(str(short)) <= series._INT_DIGITS < len(str(longer))

    def test_edges_match_str(self, digit_limit):
        for value in CODEC_EDGE_VALUES:
            text = to_decimal(value)
            assert text == unlimited_str(value), (value.bit_length(), value < 0)
            assert from_decimal(text) == value, value.bit_length()

    def test_fractions_with_large_parts_match_str(self, digit_limit):
        big = [10**513 + 1, (1 << series._DECIMAL_BITS + 1) - 1, 7**5000, 3 * 10**4096]
        for num in big + [-x for x in big] + [1, -2]:
            for den in big[:3] + [1, 3]:
                value = Fraction(num, den)
                assert to_decimal(value) == unlimited_str(value), (num.bit_length(), den.bit_length())

    def test_split_powers_are_powers_of_two(self):
        to_decimal(10**30000 + 1)
        from_decimal("7" * 30001)
        assert series._POW10 and all(k & (k - 1) == 0 and power == 10**k for k, power in series._POW10.items())


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
