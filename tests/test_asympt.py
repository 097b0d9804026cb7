import math
import re

import mpmath as mp
import pytest
import scipy.special

from partition_forge.asympt import (
    CONSTANTS,
    CoeffEstimate,
    NoClosedFormError,
    NotTabulatedError,
    PoleAbsentError,
    coeff_asymptotic,
    kotesovec_ratio,
    lambert_w_log,
    log_coeff_asymptotic,
    log_coeff_asymptotic_ln,
    log_growth_terms,
    residue_leading,
    residue_polynomial,
    weak_saddle_alpha,
)
from partition_forge import asympt
from partition_forge.asympt import _magnitude
from mellin_expansion import laurent_coefficients, pole_order
from partition_forge.cli import truncate4
from partition_forge.divisors import AdmissibleTriple
from partition_forge.series import egf_coeffs, ogf_coeffs_euler

# every (triple, form) pair with i, j, k <= 3
SMALL_PAIRS = [
    ((i, j, k), form)
    for i in range(4)
    for j in range(4)
    for k in range(4)
    if i + j + k
    for form in ("P", "Q")
]

# Standard reference digit strings (Euler-Mascheroni, first Stieltjes,
# Apery's constant, zeta'(-1), log 2, log 2pi), used as one anchor; the
# second anchor is an mpmath computation at 30 significant digits.
REFERENCE_DIGITS = {
    "euler_gamma": "0.5772156649015328606065120900824024310422",
    "stieltjes_gamma1": "-0.07281584548367672486058637587490131913774",
    "zeta3": "1.202056903159594285399738161511449990765",
    "zeta_prime_minus1": "-0.165421143700450929213919660242780642764",
    "log2": "0.6931471805599453094172321214581765680755",
    "log_2pi": "1.837877066409345483560659472811235279723",
}

SMALL_TRIPLES = [
    (i, j, k)
    for i in range(3)
    for j in range(3)
    for k in range(3)
    if i + j + k >= 1
]


class TestConstants:
    @pytest.mark.parametrize("name", sorted(REFERENCE_DIGITS))
    def test_against_reference_digits(self, name):
        ours = getattr(CONSTANTS, name)
        assert ours == float(REFERENCE_DIGITS[name])

    def test_against_mpmath(self):
        with mp.workdps(30):
            pairs = [
                (CONSTANTS.euler_gamma, mp.euler),
                (CONSTANTS.stieltjes_gamma1, mp.stieltjes(1)),
                (CONSTANTS.zeta3, mp.zeta(3)),
                (CONSTANTS.zeta_prime_minus1, mp.zeta(-1, derivative=1)),
                (CONSTANTS.log2, mp.log(2)),
                (CONSTANTS.log_2pi, mp.log(2 * mp.pi)),
            ]
            for ours, ref in pairs:
                assert abs(ours - float(ref)) <= 4e-16 * abs(float(ref))

    def test_zeta_prime_via_glaisher(self):
        # zeta'(-1) = 1/12 - log(A) with A the Glaisher-Kinkelin constant
        with mp.workdps(30):
            alt = float(mp.mpf(1) / 12 - mp.log(mp.glaisher))
            assert abs(CONSTANTS.zeta_prime_minus1 - alt) <= 1e-15


def _grid():
    """x = 1e-6, 2.9e-6, ... up to 1e300."""
    x = 1e-6
    while x <= 1e300:
        yield x
        x *= 2.9


class TestLambertW:
    """The principal-branch kernel W(e^y), read from y = ln x."""

    def test_zero(self):
        # W(x) = x - x^2 + ..., so W(x) rounds to x as x -> 0
        assert lambert_w_log(-700.0) == pytest.approx(math.exp(-700.0), rel=1e-14)

    def test_at_e(self):
        assert lambert_w_log(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_at_one(self):
        assert lambert_w_log(0.0) == pytest.approx(0.5671432904097838, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w_log(math.nan)

    def test_underflow_returns_zero(self):
        # W(x) rounds to x = e^y, and e^y rounds to 0.0
        assert lambert_w_log(-800.0) == 0.0
        assert lambert_w_log(-math.inf) == 0.0

    def test_infinity_raises(self):
        with pytest.raises(ValueError, match="ln_x=inf"):
            lambert_w_log(math.inf)

    def test_dense_sweep_against_mpmath(self):
        # y in [-700, 10^6], log-spaced above 2, plus both neighbours of the
        # seams of the start and step-count rule: e^y below -37, two steps
        # from Winitzki's start up to 8, one step from the asymptotic start above
        ys = [-700.0 + 0.3 * i for i in range(2341)]
        ys += [2.0 * (5e5 ** (i / 6000)) for i in range(6001)]
        for seam in (-37.0, 8.0):
            ys += [math.nextafter(seam, -math.inf), seam, math.nextafter(seam, math.inf)]
        worst = 0.0
        with mp.workdps(30):
            for y in ys:
                exact = mp.lambertw(mp.exp(y))
                worst = max(worst, float(abs((lambert_w_log(y) - exact) / exact)))
        assert worst <= 1e-14

    def test_back_substitution_grid(self):
        for x in _grid():
            w = lambert_w_log(math.log(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * x

    def test_back_substitution_negative_range(self):
        # ln x <= 0, where the kernel starts from w = x
        for y in (-0.001, -0.5, -1.0, -10.0, -100.0, -700.0):
            w = lambert_w_log(y)
            assert abs(w * math.exp(w) - math.exp(y)) <= 1e-12 * math.exp(y)

    def test_against_scipy(self):
        for x in _grid():
            assert lambert_w_log(math.log(x)) == pytest.approx(
                scipy.special.lambertw(x).real, rel=1e-14
            )

    def test_log_mode_residual(self):
        y = 1.0
        while y <= 1e6:
            w = lambert_w_log(y)
            assert abs(w + math.log(w) - y) <= 1e-12 * max(1.0, y)
            y *= 1.7

    def test_log_mode_matches_direct(self):
        # against W(x) evaluated directly at x, to 30 digits
        with mp.workdps(30):
            for x in (0.5, 1.0, 7.3, 120.0, 5e4):
                assert lambert_w_log(math.log(x)) == pytest.approx(float(mp.lambertw(x)), rel=1e-13)


class TestResidueLeading:
    def test_plane_partition_constant(self):
        assert residue_leading((1, 0, 0), "P", 2) == pytest.approx(CONSTANTS.zeta3, rel=1e-15)

    def test_partition_constant(self):
        assert residue_leading((0, 0, 1), "P", 1) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)

    def test_q_log2_constant(self):
        assert residue_leading((0, 1, 0), "Q", 0) == pytest.approx(-CONSTANTS.log2, rel=1e-15)

    def test_q_side_factors(self):
        for triple in [(1, 0, 0), (2, 1, 1)]:
            assert residue_leading(triple, "Q", 2) == pytest.approx(
                0.75 * residue_leading(triple, "P", 2), rel=1e-15
            )
        for triple in [(0, 0, 1), (1, 2, 2)]:
            assert residue_leading(triple, "Q", 1) == pytest.approx(
                0.5 * residue_leading(triple, "P", 1), rel=1e-15
            )

    def test_pole_absent(self):
        with pytest.raises(PoleAbsentError):
            residue_leading((0, 1, 0), "P", 2)
        with pytest.raises(PoleAbsentError):
            residue_leading((1, 1, 0), "P", 1)

    @pytest.mark.parametrize("pole", [True, False, 2.0, 1.0, 0.0])
    def test_bool_and_float_poles_are_rejected(self, pole):
        # pole 2.0 equals 2 and True equals 1, but neither is an int pole
        for call in (residue_leading, residue_polynomial):
            with pytest.raises(ValueError, match=f"^pole must be 2, 1 or 0, got {pole!r}$"):
                call((1, 1, 1), "P", pole)
        with pytest.raises(ValueError, match="pole must be 2, 1 or 0"):
            residue_polynomial((0, 0, 1), "P", pole)


class TestResiduePolynomial:
    def test_cycle_family_pole_zero(self):
        pol = residue_polynomial((0, 1, 0), "P", 0)
        g = CONSTANTS.euler_gamma
        expected0 = math.pi ** 2 / 12 - g * g / 2 - 2 * CONSTANTS.stieltjes_gamma1
        assert pol.role == "c"
        assert pol.degree == 2
        assert pol.coefficients[0] == pytest.approx(expected0, rel=1e-15)
        assert pol.coefficients[1] == pytest.approx(-g, rel=1e-15)
        assert pol.coefficients[2] == 0.5

    def test_q_constant_polynomial(self):
        pol = residue_polynomial((1, 0, 0), "Q", 0)
        assert pol.coefficients == (pytest.approx(-CONSTANTS.log2 / 12, rel=1e-15),)

    def test_q_second_order_leading(self):
        pol = residue_polynomial((0, 2, 0), "Q", 0)
        assert pol.degree == 2
        assert pol.leading == pytest.approx(CONSTANTS.log2 / 2, rel=1e-15)

    def test_not_tabulated(self):
        with pytest.raises(NotTabulatedError):
            residue_polynomial((2, 0, 0), "P", 0)
        with pytest.raises(NotTabulatedError):
            residue_polynomial((0, 2, 0), "P", 0)

    def test_pole_absent_beats_not_tabulated(self):
        with pytest.raises(PoleAbsentError):
            residue_polynomial((0, 1, 0), "P", 2)

    def test_degrees_match_pole_orders(self):
        # degree i-1 at s=2, k-1 at s=1, j+1 (P) or j (Q) at s=0
        for form, triples in (("P", [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0)]),
                              ("Q", [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 2, 0)])):
            for triple in triples:
                i, j, k = triple
                if i >= 1:
                    assert residue_polynomial(triple, form, 2).degree == i - 1
                if k >= 1:
                    assert residue_polynomial(triple, form, 1).degree == k - 1
                expected = j + 1 if form == "P" else j
                assert residue_polynomial(triple, form, 0).degree == expected

    def test_leading_coefficients_match_closed_forms(self):
        for form, triples in (("P", [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0)]),
                              ("Q", [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 2, 0)])):
            for triple in triples:
                i, j, k = triple
                poles = [0] + ([2] if i >= 1 else []) + ([1] if k >= 1 else [])
                for pole in poles:
                    pol = residue_polynomial(triple, form, pole)
                    lead = residue_leading(triple, form, pole)
                    assert pol.leading == pytest.approx(lead, rel=1e-12)

    def test_degree_zero_rows_are_the_leading_constant(self):
        for triple, form, pole in [((1, 2, 2), "P", 2), ((2, 1, 1), "Q", 1), ((3, 0, 2), "Q", 0)]:
            pol = residue_polynomial(triple, form, pole)
            assert pol.coefficients == (residue_leading(triple, form, pole),)

    def test_pole_outside_the_three_raises_the_leading_error(self):
        for pole in (3, -1, 0.5):
            with pytest.raises(ValueError, match="pole must be 2, 1 or 0") as info:
                residue_polynomial((1, 1, 1), "P", pole)
            assert not isinstance(info.value, NotTabulatedError)

    def test_evaluation(self):
        pol = residue_polynomial((0, 1, 0), "P", 0)
        x = -1.7
        direct = pol.coefficients[0] + pol.coefficients[1] * x + pol.coefficients[2] * x * x
        assert pol(x) == pytest.approx(direct, rel=1e-15)


class TestResiduesAgainstMellinExpansion:
    """Independent route: expand the Mellin transform around each pole and
    read the residue polynomial off the Laurent coefficients.  The
    coefficient of (log t)^u in the residue is (-1)^u a_(-1-u) / u!."""

    def test_all_tabulated_polynomial_coefficients(self):
        with mp.workdps(30):
            rows = [("P", t) for t in [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0)]] + [
                ("Q", t) for t in [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 2, 0)]
            ]
            for form, triple in rows:
                i, j, k = triple
                poles = ([2] if i else []) + ([1] if k else []) + [0]
                for pole in poles:
                    m = pole_order(i, j, k, form, pole)
                    laurent = laurent_coefficients(i, j, k, form, pole)
                    ours = residue_polynomial(triple, form, pole).coefficients
                    assert len(ours) == m
                    for u, coefficient in enumerate(ours):
                        a = laurent[u]
                        ref = (-1) ** u * a / mp.factorial(u)
                        assert abs(mp.im(ref)) < 1e-18 * max(1.0, abs(mp.re(ref)))
                        scale = max(abs(float(mp.re(ref))), 1e-12)
                        assert abs(float(mp.re(ref)) - coefficient) <= 1e-11 * scale, (
                            form, triple, pole, u
                        )

    @staticmethod
    def _present_poles(triple, form):
        i, j, k = triple
        return [(pole, pole_order(i, j, k, form, pole) - 1)
                for pole in ([2] if i else []) + ([1] if k else []) + [0]]

    def test_every_answered_polynomial(self):
        answered = 0
        with mp.workdps(30):
            for triple in SMALL_TRIPLES:
                for form in ("P", "Q"):
                    for pole, degree in self._present_poles(triple, form):
                        try:
                            ours = residue_polynomial(triple, form, pole).coefficients
                        except NotTabulatedError:
                            continue
                        answered += 1
                        assert len(ours) == degree + 1
                        laurent = laurent_coefficients(*triple, form, pole)
                        for u, coefficient in enumerate(ours):
                            ref = mp.re((-1) ** u * laurent[u] / mp.factorial(u))
                            scale = max(abs(float(ref)), 1e-12)
                            assert abs(float(ref) - coefficient) <= 1e-11 * scale, (form, triple, pole, u)
        assert answered == 50

    def test_refusals_have_positive_degree_and_no_table_row(self):
        refused = []
        for triple in SMALL_TRIPLES:
            for form in ("P", "Q"):
                for pole, degree in self._present_poles(triple, form):
                    try:
                        residue_polynomial(triple, form, pole)
                    except NotTabulatedError:
                        refused.append((form, triple, pole))
                        assert degree > 0
                        assert pole != 0 or (form, triple) not in asympt._POLE0_LOWER_TERMS
        assert len(refused) == 124 - 50

    def test_lower_term_rows_hold_exactly_degree_entries(self):
        # a row that also carried its leading coefficient would be one too long
        assert len(asympt._POLE0_LOWER_TERMS) == 6
        for (form, triple), lower in asympt._POLE0_LOWER_TERMS.items():
            degree = pole_order(*triple, form, 0) - 1
            assert len(lower) == degree > 0, (form, triple)
            assert residue_polynomial(triple, form, 0).coefficients[:-1] == lower

    def test_leading_constants_over_small_grid(self):
        with mp.workdps(30):
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        if i + j + k < 1:
                            continue
                        for form in ("P", "Q"):
                            poles = ([2] if i else []) + ([1] if k else []) + [0]
                            for pole in poles:
                                m = pole_order(i, j, k, form, pole)
                                a = laurent_coefficients(i, j, k, form, pole)[m - 1]
                                lead = (-1) ** (m - 1) * a / mp.factorial(m - 1)
                                ours = residue_leading((i, j, k), form, pole)
                                assert abs(float(mp.re(lead)) - ours) <= 1e-11 * abs(ours), (
                                    form, (i, j, k), pole
                                )


class TestWeakSaddle:
    def test_partition_branch(self):
        expected = -0.5 * math.log(600.0 / math.pi ** 2)
        assert weak_saddle_alpha((0, 0, 1), "P", 100) == pytest.approx(expected, rel=1e-13)

    def test_q_simple_pole_branch(self):
        for n in (10.0, 1e4):
            expected = math.log(CONSTANTS.log2 / n)
            assert weak_saddle_alpha((0, 1, 0), "Q", n) == pytest.approx(expected, rel=1e-13)

    def test_plane_partition_branch(self):
        n = 8 * CONSTANTS.zeta3
        assert weak_saddle_alpha((1, 0, 0), "P", n) == pytest.approx(-math.log(4.0) / 3, rel=1e-13)

    def test_lambert_branches_solve_their_equations(self):
        # alpha must satisfy the first-order saddle equation of its branch
        n = 5e4
        for triple, form in [((2, 0, 0), "P"), ((3, 1, 2), "Q")]:
            a = abs(residue_leading(triple, form, 2))
            i = triple[0]
            alpha = weak_saddle_alpha(triple, form, n)
            u = -alpha
            lhs = 2 * a * u ** (i - 1) * math.exp(3 * u)
            assert lhs == pytest.approx(n, rel=1e-10)
        for triple, form in [((0, 1, 2), "P"), ((0, 0, 3), "Q")]:
            b = abs(residue_leading(triple, form, 1))
            k = triple[2]
            u = -weak_saddle_alpha(triple, form, n)
            lhs = b * u ** (k - 1) * math.exp(2 * u)
            assert lhs == pytest.approx(n, rel=1e-10)
        for triple in [(0, 1, 0), (0, 2, 0)]:
            j = triple[1]
            cc = abs(residue_leading(triple, "P", 0))
            u = -weak_saddle_alpha(triple, "P", n)
            assert (j + 1) * cc * u ** j * math.exp(u) == pytest.approx(n, rel=1e-10)
        u = -weak_saddle_alpha((0, 2, 0), "Q", n)
        d = abs(residue_leading((0, 2, 0), "Q", 0))
        assert 2 * d * u * math.exp(u) == pytest.approx(n, rel=1e-10)
        # every small pair against the saddle equation of its regime
        for t, form in SMALL_PAIRS:
            i, j, k = t
            u = -weak_saddle_alpha(t, form, n)
            if i >= 1:
                lhs = 2 * abs(residue_leading(t, form, 2)) * u ** (i - 1) * math.exp(3 * u)
            elif k >= 1:
                lhs = abs(residue_leading(t, form, 1)) * u ** (k - 1) * math.exp(2 * u)
            elif form == "P":
                lhs = (j + 1) * abs(residue_leading(t, "P", 0)) * u ** j * math.exp(u)
            else:
                lhs = j * abs(residue_leading(t, "Q", 0)) * u ** (j - 1) * math.exp(u)
            assert lhs == pytest.approx(n, rel=1e-10), (t, form)

    def test_log_mode_matches_direct(self):
        for triple, form in [((2, 0, 0), "P"), ((0, 0, 2), "Q"), ((0, 2, 0), "P")]:
            direct = weak_saddle_alpha(triple, form, 1e5)
            via_log = weak_saddle_alpha(triple, form, ln_n=math.log(1e5))
            assert via_log == pytest.approx(direct, rel=1e-13)

    def test_saddle_residual_for_corrected_case(self):
        # r = exp(-W(e^gamma n)/n) must satisfy the truncated saddle
        # equation -log(log(1/z))/log(1/z) + gamma/log(1/z) = n
        g = CONSTANTS.euler_gamma
        for n in (10.0, 1e3, 1e6):
            t = lambert_w_log(g + math.log(n)) / n
            lhs = (g - math.log(t)) / t
            assert abs(lhs - n) / n <= 1e-10


class TestLogCoeffAsymptotic:
    def test_partition_exponent_identity(self):
        for n in (3.0, 10.0, 100.0, 1e4, 1e8):
            ours = log_coeff_asymptotic((0, 0, 1), "P", n)
            assert ours == pytest.approx(math.pi * math.sqrt(2 * n / 3), rel=1e-12)

    def test_distinct_partition_exponent_identity(self):
        for n in (3.0, 10.0, 100.0, 1e4, 1e8):
            ours = log_coeff_asymptotic((0, 0, 1), "Q", n)
            assert ours == pytest.approx(math.pi * math.sqrt(n / 3), rel=1e-12)

    def test_cycle_family_log_square(self):
        for n in (3.0, 10.0, 100.0, 1e6):
            ours = log_coeff_asymptotic((0, 1, 0), "P", n)
            assert ours == pytest.approx(math.log(n) ** 2 / 2, rel=1e-12)

    def test_two_dimensional_branch_at_e(self):
        expected = 1.5 * (2 * CONSTANTS.zeta3 / 3) ** (1.0 / 3.0) * math.e ** (2.0 / 3.0)
        assert log_coeff_asymptotic((2, 0, 0), "P", math.e) == pytest.approx(expected, rel=1e-12)

    def test_sign_cancellation_all_small_triples(self):
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if i + j + k < 1:
                        continue
                    for form in ("P", "Q"):
                        terms = log_growth_terms((i, j, k), form)
                        assert terms.constant > 0
                        assert math.isfinite(terms.constant)

    def test_growth_terms_follow_the_four_regimes(self):
        for t, form in SMALL_PAIRS:
            i, j, k = t
            if i >= 1:
                a = abs(residue_leading(t, form, 2))
                expected = (1.5 * (2 * a / 3 ** (i - 1)) ** (1 / 3), (i - 1) / 3, 2 / 3)
            elif k >= 1:
                b = abs(residue_leading(t, form, 1))
                expected = (2 * (b / 2 ** (k - 1)) ** 0.5, (k - 1) / 2, 1 / 2)
            elif form == "P":
                expected = (abs(residue_leading(t, "P", 0)), j + 1, 0)
            else:
                expected = (abs(residue_leading(t, "Q", 0)), j, 0)
            assert tuple(log_growth_terms(t, form)) == pytest.approx(expected, rel=1e-14), (t, form)

    def test_log_mode(self):
        direct = log_coeff_asymptotic((0, 1, 0), "P", 1e6)
        via_log = log_coeff_asymptotic((0, 1, 0), "P", ln_n=math.log(1e6))
        assert via_log == pytest.approx(direct, rel=1e-14)
        # poly-log branches stay finite for astronomically large indices
        huge = log_coeff_asymptotic((0, 1, 0), "P", ln_n=1e5 * math.log(10))
        assert math.isfinite(huge)

    def test_log_of_the_growth_law(self):
        for t, form in SMALL_PAIRS:
            for L in (0.5, 10.0, 700.0):
                ours = log_coeff_asymptotic_ln(t, form, ln_n=L)
                assert ours == pytest.approx(math.log(log_coeff_asymptotic(t, form, ln_n=L)), rel=1e-12)
        # past the float range of the value itself the logarithm stays finite
        L = 1e5 * math.log(10)
        with pytest.raises(OverflowError):
            log_coeff_asymptotic((1, 0, 0), "P", ln_n=L)
        const = 1.5 * (2 * CONSTANTS.zeta3) ** (1 / 3)
        assert log_coeff_asymptotic_ln((1, 0, 0), "P", ln_n=L) == pytest.approx(
            math.log(const) + 2 * L / 3, rel=1e-14
        )


# coeff_asymptotic alone says which pairs have a closed-form coefficient estimate:
# it returns one for these five and raises NoClosedFormError for every other pair.
FULL_PAIRS = {((0, 0, 1), "P"), ((0, 0, 1), "Q"), ((0, 1, 0), "P"), ((0, 1, 0), "Q"), ((0, 2, 0), "Q")}


def assert_log_only(t, form):
    # the pair is checked before the index is read, so an index below 2,
    # or one that is not valid at all, gives this error too
    for n in (100, 1.5, 0):
        with pytest.raises(NoClosedFormError, match=re.escape(f"triple {AdmissibleTriple(*t)}, form {form}")):
            coeff_asymptotic(t, form, n)


class TestAsymptoticModel:
    def test_full_coefficient_cases(self):
        pairs = [(t, form) for t in SMALL_TRIPLES for form in ("P", "Q")]
        assert len(pairs) == 52 and FULL_PAIRS <= set(pairs)
        for t, form in sorted(FULL_PAIRS):
            assert math.isfinite(coeff_asymptotic(t, form, 100).ln)
            with pytest.raises(ValueError, match="index out of range") as info:  # the closed forms need n >= 2
                coeff_asymptotic(t, form, 1.5)
            assert not isinstance(info.value, NoClosedFormError)

    def test_solvable_but_log_only(self):
        # these four once carried a "saddle equation solvable" note; they are log-only like any other pair
        for form, triple in [("P", (1, 0, 0)), ("P", (1, 0, 1)),
                             ("Q", (1, 0, 0)), ("Q", (1, 0, 1))]:
            assert_log_only(triple, form)

    def test_generic_log_only(self):
        log_only = [(t, form) for t in SMALL_TRIPLES for form in ("P", "Q") if (t, form) not in FULL_PAIRS]
        assert len(log_only) == 47 and ((2, 2, 2), "P") in log_only
        for t, form in log_only:
            assert_log_only(t, form)

    def test_p_020_has_no_full_form(self):
        assert_log_only((0, 2, 0), "P")
        assert math.isfinite(coeff_asymptotic((0, 2, 0), "Q", 100).ln)


class TestCoeffAsymptotic:
    def test_partition_estimate_at_100(self):
        est = coeff_asymptotic((0, 0, 1), "P", 100)
        expected_ln = math.pi * math.sqrt(200.0 / 3.0) - math.log(400.0 * math.sqrt(3.0))
        assert est.ln == pytest.approx(expected_ln, rel=1e-14)
        assert est.scientific() == "1.993e+8"
        exact = ogf_coeffs_euler((0, 0, 1), "P", 100).values[100]
        assert exact == 190569292
        assert exact / math.exp(est.ln) == pytest.approx(0.9563, abs=2e-4)

    def test_q_cycle_family_constant_against_mpmath(self):
        with mp.workdps(30):
            g, l2 = mp.euler, mp.log(2)
            c0 = 2 ** (g - l2 / 2 + mp.mpf(1) / 2) / (mp.sqrt(mp.pi) * l2 ** (l2 - mp.mpf(1) / 2))
            n = 1000.0
            expected = float(mp.log(c0) + (l2 - 1) * mp.log(n))
            assert coeff_asymptotic((0, 1, 0), "Q", n).ln == pytest.approx(expected, rel=1e-13)

    def test_corrected_cycle_family_accuracy_at_100(self):
        seq = egf_coeffs((0, 1, 0), "P", 100)
        ln_exact = math.log(seq.values[100]) - math.lgamma(101)
        est = coeff_asymptotic((0, 1, 0), "P", 100)
        ratio = math.exp(ln_exact - est.ln)
        assert 0.95 <= ratio <= 0.98

    def test_no_closed_form(self):
        with pytest.raises(NoClosedFormError):
            coeff_asymptotic((1, 0, 0), "P", 50)
        with pytest.raises(NoClosedFormError):
            coeff_asymptotic((0, 2, 0), "P", 50)

    def test_estimate_view(self):
        est = coeff_asymptotic((0, 0, 1), "P", 100)
        assert est.exponent10 == 8
        assert 1.0 <= est.mantissa < 10.0
        assert est.value == pytest.approx(math.exp(est.ln), rel=1e-12)

    @pytest.mark.parametrize(
        "ln, text",
        [
            (6 * math.log(10.0) - 1e-6, "1.000e+6"),  # mantissa 9.99999000...
            (-4.6051702, "1.000e-2"),  # mantissa 9.9999998...
        ],
    )
    def test_mantissa_rounded_up_to_ten_carries(self, ln, text):
        assert CoeffEstimate(ln).scientific() == text

    def test_log_mode_matches_direct(self):
        direct = coeff_asymptotic((0, 1, 0), "Q", 512.0).ln
        via_log = coeff_asymptotic((0, 1, 0), "Q", ln_n=math.log(512.0)).ln
        assert via_log == pytest.approx(direct, rel=1e-13)

    def test_overflowing_estimate_raises(self):
        # 2 * exp(ln n) overflows to inf without raising just under the exp limit
        L = 308 * math.log(10.0)
        assert math.exp(L) < math.inf
        with pytest.raises(OverflowError):
            coeff_asymptotic((0, 0, 1), "P", ln_n=L)


class TestKotesovecRatio:
    def test_small_index(self):
        assert truncate4(kotesovec_ratio(n=2)) == pytest.approx(2.7032, abs=1e-12)

    def test_thousand(self):
        assert truncate4(kotesovec_ratio(n=1000)) == pytest.approx(0.6899, abs=1e-12)

    def test_huge_index(self):
        assert truncate4(kotesovec_ratio(log10_n=1e5)) == pytest.approx(0.9998, abs=1e-12)

    def test_against_mpmath(self):
        with mp.workdps(30):
            for n in (2, 10, 1000):
                w = mp.lambertw(mp.e ** mp.euler * n)
                expected = float(w * w / mp.log(n) ** 2)
                assert kotesovec_ratio(n=n) == pytest.approx(expected, rel=1e-12)

    def test_monotone_on_large_grid_toward_one(self):
        grid = [4, 6, 8, 10, 20, 50, 100, 1000, 10000, 100000]
        values = [kotesovec_ratio(log10_n=x) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=2e-4)

    def test_finite_where_the_square_of_w_overflows(self):
        # w^2 and (ln n)^2 leave float range past log10 n of about 5.8e153
        for log10_n in (1e154, 1e200, 1e307):
            value = kotesovec_ratio(log10_n=log10_n)
            assert math.isfinite(value) and abs(value - 1.0) <= 1e-12

    def test_largest_ratio_near_one_is_finite(self):
        # (w / ln n)^2 is about 1.2e307 here; the next decade down leaves float range
        value = kotesovec_ratio(log10_n=1e-154)
        assert 1e307 < value < math.inf
        assert truncate4(value) == value

    @pytest.mark.parametrize("log10_n", [1e-155, 1e-200, 1e-310])
    def test_ratio_past_float_range_near_one_raises(self, log10_n):
        # at 1e-310 already w / ln n is inf, so no exception comes from the square
        ln_n = log10_n * math.log(10.0)
        with pytest.raises(OverflowError, match=f"ratio out of float range at ln n = {ln_n!r}"):
            kotesovec_ratio(log10_n=log10_n)

    def test_requires_exactly_one_argument(self):
        with pytest.raises(ValueError):
            kotesovec_ratio()
        with pytest.raises(ValueError):
            kotesovec_ratio(n=10, log10_n=1.0)


class TestIndexValidation:
    """Every float entry point rejects a non-positive or non-finite index."""

    @pytest.mark.parametrize("n", [0, -5.0, math.inf, math.nan])
    def test_bad_n(self, n):
        calls = [
            lambda: weak_saddle_alpha((2, 0, 1), "P", n),
            lambda: log_coeff_asymptotic((0, 0, 1), "Q", n),
            lambda: log_coeff_asymptotic_ln((1, 0, 0), "Q", n),
            lambda: coeff_asymptotic((0, 0, 1), "P", n),
            lambda: kotesovec_ratio(n=n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"n = {n}"):
                call()

    @pytest.mark.parametrize("ln_n", [math.inf, -math.inf, math.nan, -1.0, 0.0])
    def test_bad_ln_n(self, ln_n):
        calls = [
            lambda: weak_saddle_alpha((0, 2, 0), "Q", ln_n=ln_n),
            lambda: log_coeff_asymptotic((1, 1, 1), "P", ln_n=ln_n),
            lambda: log_coeff_asymptotic_ln((0, 1, 0), "P", ln_n=ln_n),
            lambda: coeff_asymptotic((0, 1, 0), "P", ln_n=ln_n),
            lambda: kotesovec_ratio(log10_n=ln_n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="ln n = "):
                call()

    @pytest.mark.parametrize(
        "entry", [weak_saddle_alpha, log_coeff_asymptotic, log_coeff_asymptotic_ln, coeff_asymptotic]
    )
    @pytest.mark.parametrize("args, kwargs", [((10.0,), {"ln_n": 5.0}), ((), {})], ids=["both", "neither"])
    def test_exactly_one_of_n_and_ln_n(self, entry, args, kwargs):
        # a valid float ln_n must not let a call skip the check that n is absent
        with pytest.raises(ValueError, match="supply exactly one of n and its logarithm"):
            entry((0, 1, 0), "P", *args, **kwargs)


@pytest.fixture
def cold_growth_records():
    """Empty the growth-record cache around a test, so a patched residue reaches the builder."""
    asympt._growth_record.cache_clear()
    yield
    asympt._growth_record.cache_clear()


class TestGrowthRecordCache:
    """One record per (triple, form); only a tuple of three exact ints reaches the untyped cache as it is."""

    CALLS = (
        lambda t, f: weak_saddle_alpha(t, f, ln_n=5.0),
        lambda t, f: log_coeff_asymptotic(t, f, ln_n=5.0),
        lambda t, f: log_coeff_asymptotic_ln(t, f, ln_n=5.0),
        lambda t, f: log_growth_terms(t, f),
        lambda t, f: coeff_asymptotic(t, f, ln_n=5.0),
    )

    @pytest.mark.parametrize(
        "bad", [(True, 0, 0), (1.0, 0, 0), (0, 0, 0), (-1, 0, 0), (0, [1], 0), (1, 0), (1, 0, 0, 0)]
    )
    def test_warm_record_does_not_admit_lookalikes(self, bad, cold_growth_records):
        weak_saddle_alpha((1, 0, 0), "P", ln_n=5.0)
        for call in self.CALLS:
            with pytest.raises(ValueError):
                call(bad, "P")

    def test_list_and_triple_match_tuple(self):
        for t, form in SMALL_PAIRS:
            for call in self.CALLS:
                try:
                    expected = call(t, form)
                except NoClosedFormError:
                    continue
                assert call(list(t), form) == expected
                assert call(AdmissibleTriple(*t), form) == expected

    def test_bounded(self):
        assert asympt._growth_record.cache_info().maxsize == 256


class TestExplicitChecks:
    """The sign and positivity checks raise, so they hold under python -O."""

    def test_sign_parity_mismatch_raises(self):
        with pytest.raises(ValueError, match="sign cancellation failed"):
            _magnitude(1.0, 1)

    def test_nonfinite_growth_constant_raises(self, monkeypatch, cold_growth_records):
        # checked once, in the (triple, form) record every growth entry point reads
        monkeypatch.setattr(asympt, "residue_leading", lambda t, form, pole: math.inf)
        calls = [
            lambda: log_growth_terms((1, 0, 0), "P"),
            lambda: log_coeff_asymptotic((1, 0, 0), "P", ln_n=5.0),
            lambda: log_coeff_asymptotic_ln((1, 0, 0), "P", ln_n=5.0),
            lambda: weak_saddle_alpha((1, 0, 0), "P", ln_n=5.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="growth constant must be real and positive"):
                call()
