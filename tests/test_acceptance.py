"""Acceptance gate: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -rA -s` to see every line.
Criterion 10 ties the exact coefficients of all 52 small (triple, form)
pairs to the growth laws through the Gaussian saddle value S(n) of the
Mellin expansion (mellin_expansion.py): an anchor |log exact - S| <= 0.05
at n = 200, 400, 800, and a far check |S/G - 1| <= 1e-3 at
log10 n = 10^5, G the first-order law.  It prints the per-pair table.
The ratio log(exact) / G itself need not approach 1 by n = 800: the
i = 2 pairs peak near n = 800-3200 first, and (0,2,0) P keeps falling
until log10 n ~ 10^5.  For (0,1,0) Q the first-order law is not the
asymptote, so coeff_asymptotic stands in for G (see the README).
"""

import io
import math
import time
from fractions import Fraction
from functools import cache
from math import factorial, lgamma, log

import mpmath as mp

from mellin_expansion import saddle_log_coefficient
from partition_forge.asympt import (
    coeff_asymptotic,
    kotesovec_ratio,
    log_coeff_asymptotic,
    log_growth_terms,
    residue_leading,
    residue_polynomial,
)
from partition_forge.cli import BFileRecord, compare_sequence, parse_bfile, run, truncate4
from partition_forge.divisors import cycle_weight_table
from partition_forge.oracle import cycle_type_sums
from partition_forge.series import _exp_numerators, egf_coeffs, egf_coeffs_weighted, ogf_coeffs_euler, to_bfile

SMALL_TRIPLES = [
    (i, j, k)
    for i in range(3)
    for j in range(3)
    for k in range(3)
    if i + j + k >= 1
]

TABLE_SMALL = [
    (2, 2.7032), (3, 1.5433), (4, 1.2260), (6, 0.9957), (8, 0.9027),
    (10, 0.8522), (20, 0.7605), (50, 0.7100), (100, 0.6944), (1000, 0.6899),
]

TABLE_LARGE = [
    (4, 0.7063), (6, 0.7437), (8, 0.7745), (10, 0.7987), (20, 0.8666),
    (50, 0.9295), (100, 0.9583), (1000, 0.9937), (10000, 0.9991), (100000, 0.9998),
]


@cache
def exact_egf_800(triple, form):
    """The EGF numerators to N = 800, computed once for criterion 10 and
    the supplementary Q check."""
    return egf_coeffs(triple, form, 800)


def _report(label, ok, detail=""):
    line = f"[{label}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


def test_criterion_01_small_index_ratio_table():
    t0 = time.perf_counter()
    # the reference table truncates to 4 decimals; compare at that precision
    computed = [truncate4(kotesovec_ratio(n=n)) for n, _ in TABLE_SMALL]
    elapsed = time.perf_counter() - t0
    deviations = [abs(c - v) for c, (_, v) in zip(computed, TABLE_SMALL)]
    ok = max(deviations) <= 5e-5 and elapsed < 1.0
    _report(
        "criterion 01",
        ok,
        f"max deviation {max(deviations):.2e}, {elapsed * 1000:.0f} ms",
    )
    assert max(deviations) <= 5e-5
    assert elapsed < 1.0


def test_criterion_02_large_index_ratio_table():
    t0 = time.perf_counter()
    computed = [truncate4(kotesovec_ratio(log10_n=x)) for x, _ in TABLE_LARGE]
    elapsed = time.perf_counter() - t0
    deviations = [abs(c - v) for c, (_, v) in zip(computed, TABLE_LARGE)]
    ok = max(deviations) <= 5e-5 and elapsed < 1.0
    _report(
        "criterion 02",
        ok,
        f"max deviation {max(deviations):.2e}, {elapsed * 1000:.0f} ms",
    )
    assert max(deviations) <= 5e-5
    assert elapsed < 1.0


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for triple in SMALL_TRIPLES:
        for form in ("P", "Q"):
            seq = egf_coeffs(triple, form, 25)
            sums = cycle_type_sums(triple, form, 25)
            for n in range(26):
                if sums[n] != seq.values[n]:
                    mismatches.append((triple, form, n))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    _report(
        "criterion 03",
        ok,
        f"{len(SMALL_TRIPLES)} triples x both forms x n<=25, {elapsed:.1f} s",
    )
    assert mismatches == []
    assert elapsed < 120.0


def test_criterion_04_exponential_ordinary_agreement():
    t0 = time.perf_counter()
    mismatches = []
    for triple in [(1, 0, 0), (2, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 1)]:
        for form in ("P", "Q"):
            e = _exp_numerators(cycle_weight_table(triple, form, 200), 200)  # egf_coeffs would run the OGF kernel
            o = ogf_coeffs_euler(triple, form, 200)
            fact = 1
            for n in range(201):
                if n:
                    fact *= n
                if e[n] != fact * o.values[n]:
                    mismatches.append((triple, form, n))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    _report("criterion 04", ok, f"5 triples x both forms x n<=200, {elapsed:.1f} s")
    assert mismatches == []
    assert elapsed < 60.0


def test_criterion_05_weighted_endpoints():
    mismatches = []
    for triple in [(0, 1, 0), (0, 0, 1)]:
        plus = egf_coeffs_weighted(triple, Fraction(1), 100)
        minus = egf_coeffs_weighted(triple, Fraction(-1), 100)
        p = egf_coeffs(triple, "P", 100)
        q = egf_coeffs(triple, "Q", 100)
        if list(plus.values) != list(p.values):
            mismatches.append((triple, "+1"))
        if list(minus.values) != list(q.values):
            mismatches.append((triple, "-1"))
    ok = not mismatches
    _report("criterion 05", ok, "v=+1 and v=-1 reproduce both engines exactly, n<=100")
    assert mismatches == []


def test_criterion_06_residue_constant_audit():
    rows = [("P", t) for t in [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0)]] + [
        ("Q", t) for t in [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 2, 0)]
    ]
    worst = 0.0
    for form, triple in rows:
        i, j, k = triple
        poles = [0] + ([2] if i >= 1 else []) + ([1] if k >= 1 else [])
        for pole in poles:
            lead = residue_polynomial(triple, form, pole).leading
            closed = residue_leading(triple, form, pole)
            worst = max(worst, abs(lead - closed) / abs(closed))
    ok = worst <= 1e-12
    _report("criterion 06", ok, f"worst relative deviation {worst:.2e} over all rows")
    assert worst <= 1e-12


def test_criterion_07_exponential_growth_sanity():
    t0 = time.perf_counter()
    results = {}
    for form in ("P", "Q"):
        seq = ogf_coeffs_euler((0, 0, 1), form, 500)
        ratios = {}
        for n in (100, 500):
            est = coeff_asymptotic((0, 0, 1), form, n)
            ratios[n] = seq.values[n] / math.exp(est.ln)
        results[form] = ratios
    elapsed = time.perf_counter() - t0
    ok = True
    for form, ratios in results.items():
        ok &= 0.90 <= ratios[100] <= 1.00
        ok &= abs(ratios[500] - 1.0) < abs(ratios[100] - 1.0)
    ok &= elapsed < 10.0
    detail = ", ".join(
        f"{form}: {ratios[100]:.4f}@100 -> {ratios[500]:.4f}@500" for form, ratios in results.items()
    )
    _report("criterion 07", ok, f"{detail}, {elapsed:.1f} s")
    for form, ratios in results.items():
        assert 0.90 <= ratios[100] <= 1.00, (form, ratios)
        assert abs(ratios[500] - 1.0) < abs(ratios[100] - 1.0), (form, ratios)
    assert elapsed < 10.0


def test_criterion_08_corrected_growth_constant():
    t0 = time.perf_counter()
    seq = egf_coeffs((0, 1, 0), "P", 455)

    # (a) the corrected estimate is within 15% of the exact coefficient
    ln_exact_455 = log(seq.values[455]) - lgamma(456)
    est_455 = coeff_asymptotic((0, 1, 0), "P", 455)
    value_ratio = math.exp(ln_exact_455 - est_455.ln)
    part_a = abs(value_ratio - 1.0) <= 0.15

    # (b) the two candidate growth constants are cleanly separated at 455 ...
    ln2 = log(2.0)
    lsq = log(455.0) ** 2
    against_conjectured = ln_exact_455 / (ln2 / 2.0 * lsq)
    against_corrected = ln_exact_455 / (0.5 * lsq)
    separated = abs(against_conjectured - against_corrected) > 0.1
    # ... and the ratio table resolves which constant is right: w^2/ln^2
    # sits near ln 2 at desk scale (the numerical trap) but tends to 1
    desk_trap = abs(kotesovec_ratio(n=1000) - ln2) < 0.005
    limit_confirms = kotesovec_ratio(log10_n=1e5) > 0.99
    part_b = separated and desk_trap and limit_confirms

    # three-estimate comparison data: the corrected estimate tracks the
    # exact log within 15% at 455, and more tightly than at 100
    buf = io.StringIO()
    assert run(["figure1", "--nmax", "455"], out=buf) == 0
    rows = {int(r.split("\t")[0]): r.split("\t") for r in buf.getvalue().splitlines()[1:]}
    r100 = float(rows[100][3]) / float(rows[100][1])
    r455 = float(rows[455][3]) / float(rows[455][1])
    part_fig = abs(r455 - 1.0) <= 0.15 and abs(r455 - 1.0) < abs(r100 - 1.0)

    elapsed = time.perf_counter() - t0
    ok = part_a and part_b and part_fig and elapsed < 120.0
    _report(
        "criterion 08",
        ok,
        f"value ratio {value_ratio:.4f}@455; discriminators {against_conjectured:.4f} vs "
        f"{against_corrected:.4f}; log-ratio {r100:.4f}@100 -> {r455:.4f}@455; {elapsed:.1f} s",
    )
    assert part_a, f"value ratio {value_ratio} off by more than 15%"
    assert part_b
    assert part_fig
    assert elapsed < 120.0


def test_criterion_09_growth_law_identities():
    worst = 0.0
    for n in (3.0, 10.0, 57.0, 1e3, 1e6, 1e9):
        a = log_coeff_asymptotic((0, 0, 1), "P", n)
        b = math.pi * math.sqrt(2.0 * n / 3.0)
        worst = max(worst, abs(a - b) / b)
        a = log_coeff_asymptotic((0, 1, 0), "P", n)
        b = log(n) ** 2 / 2.0
        worst = max(worst, abs(a - b) / b)
        a = log_coeff_asymptotic((0, 0, 1), "Q", n)
        b = math.pi * math.sqrt(n / 3.0)
        worst = max(worst, abs(a - b) / b)
    ok = worst <= 1e-12
    _report("criterion 09", ok, f"worst relative deviation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_10_log_growth_trend():
    # Two links, each promised by the saddle-point method and each able
    # to fail, tie the exact coefficients to the growth law G:
    #   * anchor: log [z^n] F from the exact runs is within 0.05 of the
    #     Gaussian saddle value S(n) of the Mellin expansion
    #     (mellin_expansion.py, independent of asympt.py), n = 200, 400, 800;
    #   * far check: S/G is within 1e-3 of 1 at log10 n = 10^5, with G
    #     taken in log space from log_growth_terms.
    # The ratio r = log(exact) / G is held only to r > 0 and
    # 0.5 <= r800 <= 1.6, because it need not approach 1 by n = 800: the
    # i = 2 pairs peak near n = 800-3200 before falling toward 1, and
    # (0,2,0) P keeps falling (S/G = 0.746 at 200, 0.672 at 800, 0.608 at
    # 10^6) until log10 n ~ 10^5.
    # (0,1,0) Q is the corner where the saddle width (-ln n) is of the
    # order of the leading term D ln n, so G is not the asymptote of
    # log [z^n] Q there; coeff_asymptotic is, and it stands in for G.  Its
    # anchor is the band 0.75 <= exp(log exact - S) <= 1.05 of the
    # supplementary check.  F vanishes at z = -1, so the band is not from
    # there: its level is the closed form's constant, a Stirling stand-in
    # for 1/Gamma(log 2) that is 0.114 too high in ln, and its oscillation
    # comes from the roots of unity of odd order, which the expansion at
    # t -> 0 does not see.
    t0 = time.perf_counter()
    failures = []
    ns = (200, 400, 800)
    far_ln_n = 10**5 * mp.log(10)
    print()
    for triple in SMALL_TRIPLES:
        for form in ("P", "Q"):
            if triple[1] == 0:
                seq = ogf_coeffs_euler(triple, form, 800)
                def ln_exact(n, s=seq):
                    return log(s.values[n])
            else:
                seq = exact_egf_800(triple, form)
                def ln_exact(n, s=seq):
                    return log(s.values[n]) - lgamma(n + 1)
            corner = (triple, form) == ((0, 1, 0), "Q")
            if corner:
                ratios = [ln_exact(n) / coeff_asymptotic(triple, form, n).ln for n in ns]
                far_law = mp.mpf(coeff_asymptotic(triple, form, ln_n=float(far_ln_n)).ln)
            else:
                ratios = [ln_exact(n) / log_coeff_asymptotic(triple, form, n) for n in ns]
                g = log_growth_terms(triple, form)
                far_law = mp.exp(
                    mp.log(g.constant) + g.log_power * mp.log(far_ln_n) + g.index_power * far_ln_n
                )
            anchors = [ln_exact(n) - float(saddle_log_coefficient(*triple, form, mp.log(n))) for n in ns]
            far = float(saddle_log_coefficient(*triple, form, far_ln_n) / far_law - 1)
            r200, r400, r800 = ratios
            if corner:
                anchored = all(0.75 <= math.exp(d) <= 1.05 for d in anchors)
            else:
                anchored = all(abs(d) <= 0.05 for d in anchors)
            ok = all(r > 0 for r in ratios) and 0.5 <= r800 <= 1.6 and anchored and abs(far) <= 1e-3
            print(
                f"  {triple} {form}: r200={r200:+.4f} r400={r400:+.4f} r800={r800:+.4f}"
                f"  anchor={'/'.join(f'{d:+.4f}' for d in anchors)}  far={far:+.1e}"
                f"{'' if ok else '   <-- outside tolerance'}"
            )
            if not ok:
                failures.append((triple, form, round(r800, 4), max(anchors, key=abs), far))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 10",
        not failures,
        f"{len(failures)} of {2 * len(SMALL_TRIPLES)} pairs outside tolerance, {elapsed:.0f} s",
    )
    assert failures == [], (
        "growth gate failed for these (triple, form, r800, worst anchor, far) pairs: "
        f"{failures}"
    )


def test_criterion_11_bfile_round_trip_and_mismatch():
    # round trip through the b-file text format
    seq = ogf_coeffs_euler((0, 0, 1), "P", 40)
    round_tripped = tuple(r.value for r in parse_bfile(to_bfile(seq)))
    ok = round_tripped == seq.values

    # the three comparison cases
    report = compare_sequence(
        ogf_coeffs_euler((0, 0, 1), "P", 4),
        [BFileRecord(i, v) for i, v in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5)]],
        0,
    )
    ok &= report.matched_prefix_length == 5 and report.full_match

    ident = egf_coeffs((0, 1, 0), "P", 10)
    report = compare_sequence(ident, [BFileRecord(i, v) for i, v in enumerate(ident.values)], 0)
    ok &= report.full_match and report.matched_prefix_length == 11

    report = compare_sequence(
        egf_coeffs((0, 1, 0), "P", 4),
        [BFileRecord(i, v) for i, v in [(0, 1), (1, 1), (2, 3), (3, 11), (4, 58)]],
        0,
    )
    ok &= report.first_mismatch == (4, 58, 59)

    _report("criterion 11", ok, "round trip exact; all three comparison cases")
    assert ok


def test_supplementary_q_closed_form_trends():
    # Loose numerical scrutiny of the two Q-side closed forms that have
    # no other acceptance coverage.  Convergence is slow (and, for the
    # (0,1,0) case, oscillatory: the coefficient itself decays, so the
    # other unit-circle singularities contribute comparable terms).
    seq = exact_egf_800((0, 1, 0), "Q")
    ratios_010 = []
    for n in (100, 200, 400, 800):
        ln_exact = log(seq.values[n]) - lgamma(n + 1)
        ratios_010.append(math.exp(ln_exact - coeff_asymptotic((0, 1, 0), "Q", n).ln))
    ok = all(0.75 <= r <= 1.05 for r in ratios_010)

    seq = exact_egf_800((0, 2, 0), "Q")
    ratios_020 = []
    for n in (100, 200, 400, 800):
        ln_exact = log(seq.values[n]) - lgamma(n + 1)
        ratios_020.append(math.exp(ln_exact - coeff_asymptotic((0, 2, 0), "Q", n).ln))
    ok &= all(a < b for a, b in zip(ratios_020, ratios_020[1:]))
    ok &= all(0.6 <= r <= 1.05 for r in ratios_020)
    ok &= ratios_020[-1] >= 0.70

    _report(
        "supplementary",
        ok,
        "Q(0,1,0) ratios " + "/".join(f"{r:.3f}" for r in ratios_010)
        + "; Q(0,2,0) ratios " + "/".join(f"{r:.3f}" for r in ratios_020),
    )
    assert ok
