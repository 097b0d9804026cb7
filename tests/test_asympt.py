import math

import mpmath as mp
import pytest
import scipy.special

from partition_forge.asympt import (
    CAP_FULL,
    CAP_LOG,
    CONSTANTS,
    NoClosedFormError,
    NotTabulatedError,
    PoleAbsentError,
    asymptotic_model,
    coeff_asymptotic,
    kotesovec_ratio,
    lambert_w,
    lambert_w_log,
    log_coeff_asymptotic,
    log_growth_terms,
    residue_leading,
    residue_polynomial,
    weak_saddle_alpha,
)
from partition_forge import asympt
from partition_forge.asympt import _magnitude
from mellin_expansion import laurent_coefficients, pole_order
from partition_forge.cli import truncate4
from partition_forge.series import egf_coeffs, ogf_coeffs_euler

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


class TestLambertW:
    def test_zero(self):
        assert lambert_w(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_at_one(self):
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, rel=1e-14)

    def test_branch_point(self):
        assert lambert_w(-1.0 / math.e) == -1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)

    def test_back_substitution_grid(self):
        x = 1e-6
        while x <= 1e300:
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * x
            x *= 2.9

    def test_back_substitution_negative_range(self):
        for frac in (0.999, 0.9, 0.5, 0.1, 0.01):
            x = -frac / math.e
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    def test_against_scipy(self):
        xs = [1e-6, 0.03, 0.4, 1.0, 2.0, 9.0, 1e3, 1e12, 1e100, -0.25, -0.36]
        for x in xs:
            assert lambert_w(x) == pytest.approx(
                scipy.special.lambertw(x).real, rel=1e-12
            )

    def test_log_mode_residual(self):
        y = 1.0
        while y <= 1e6:
            w = lambert_w_log(y)
            assert abs(w + math.log(w) - y) <= 1e-12 * max(1.0, y)
            y *= 1.7

    def test_log_mode_matches_direct(self):
        for x in (0.5, 1.0, 7.3, 120.0, 5e4):
            assert lambert_w_log(math.log(x)) == pytest.approx(lambert_w(x), rel=1e-13)


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
            t = lambert_w(math.exp(g) * n) / n if n <= 1e3 else lambert_w_log(g + math.log(n)) / n
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

    def test_log_mode(self):
        direct = log_coeff_asymptotic((0, 1, 0), "P", 1e6)
        via_log = log_coeff_asymptotic((0, 1, 0), "P", ln_n=math.log(1e6))
        assert via_log == pytest.approx(direct, rel=1e-14)
        # poly-log branches stay finite for astronomically large indices
        huge = log_coeff_asymptotic((0, 1, 0), "P", ln_n=1e5 * math.log(10))
        assert math.isfinite(huge)


class TestAsymptoticModel:
    def test_full_coefficient_cases(self):
        for form, triple in [("P", (0, 0, 1)), ("Q", (0, 0, 1)), ("P", (0, 1, 0)),
                             ("Q", (0, 1, 0)), ("Q", (0, 2, 0))]:
            assert asymptotic_model(triple, form).capability == CAP_FULL

    def test_solvable_but_log_only(self):
        for form, triple in [("P", (1, 0, 0)), ("P", (1, 0, 1)),
                             ("Q", (1, 0, 0)), ("Q", (1, 0, 1))]:
            model = asymptotic_model(triple, form)
            assert model.capability == CAP_LOG
            assert "solvable" in model.note

    def test_generic_log_only(self):
        model = asymptotic_model((2, 2, 2), "P")
        assert model.capability == CAP_LOG
        assert model.note == ""

    def test_p_020_has_no_full_form(self):
        assert asymptotic_model((0, 2, 0), "P").capability == CAP_LOG


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

    def test_log_mode_matches_direct(self):
        direct = coeff_asymptotic((0, 1, 0), "Q", 512.0).ln
        via_log = coeff_asymptotic((0, 1, 0), "Q", ln_n=math.log(512.0)).ln
        assert via_log == pytest.approx(direct, rel=1e-13)


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

    def test_requires_exactly_one_argument(self):
        with pytest.raises(ValueError):
            kotesovec_ratio()
        with pytest.raises(ValueError):
            kotesovec_ratio(n=10, log10_n=1.0)


class TestExplicitChecks:
    """The sign and positivity checks raise, so they hold under python -O."""

    def test_sign_parity_mismatch_raises(self):
        with pytest.raises(ValueError, match="sign cancellation failed"):
            _magnitude(1.0, 1)

    def test_nonfinite_growth_constant_raises(self, monkeypatch):
        monkeypatch.setattr(asympt, "residue_leading", lambda t, form, pole: math.inf)
        with pytest.raises(ValueError, match="growth constant must be real and positive"):
            log_growth_terms((1, 0, 0), "P")
