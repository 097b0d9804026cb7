"""The benchmark's workloads: inputs drawn from a seed, the timed library
calls, one CLI process per round, and a check for every output.

``draw_inputs`` needs nothing but the seed, so run.py can record the
inputs it drew; ``build`` imports partition_forge and turns the inputs
into concrete calls.  The program only ever sees the generated inputs.

Why each workload exists:

* egf-bigint -- the big-by-big exponential recurrence at N=800 does
  almost all the work, plus to_json/to_bfile of every result.  An
  EGF-kernel change must show its gain here.
* ogf-sieve -- ordinary (j = 0) runs to N=2000 and W tables to
  L=20000.  Values stay at a few hundred bits and the weight sieve is a
  large share, so it never enters the EGF kernel: an EGF-only change
  should leave it unchanged, and a sieve change shows here.
* weighted-rational -- the same recurrence over Fraction with pointwise
  chi weights; a kernel change that helps integers but costs rationals
  shows here.
* estimate-float -- the float layer alone, no exact arithmetic: the
  control that no integer-layer change should move.

The seed-drawn inputs come from pools whose members cost about the same,
so that runs with different seeds measure the same amount of work.  For
egf-bigint that means P forms only: every P weight is positive, while a
Q form has a triple-dependent share of zero weights that the recurrence
skips, which changes the work per call by up to a third.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import reference

WORKLOADS = ("egf-bigint", "ogf-sieve", "weighted-rational", "estimate-float")

SMALL_TRIPLES = [
    (i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k >= 1
]
PAIRS = [(t, f) for t in SMALL_TRIPLES for f in "PQ"]

EGF_N = 800
EGF_FIXED = [((0, 1, 0), "P"), ((2, 2, 2), "Q")]
EGF_CLI_N = EGF_N // 2
PROBE_DIGITS = 5000  # above the interpreter's 4300-digit int<->str limit
ORACLE_N = 40        # cycle_type_sum's bound
PRODUCT_N = 200      # product_expand's bound

OGF_N = 2000
OGF_FIXED = ((0, 0, 1), "P")
OGF_EGF_AGREEMENT_N = 300
SIEVE_L = 20000
SIEVE_SAMPLES = 40

WEIGHTED_N = 200
WEIGHTED_FIXED = ((0, 1, 0), Fraction(1, 3))
# small a/b with b in {3, 4}: the same cost per call as v = 1/3
WEIGHTED_V_POOL = ("-1/3", "2/3", "-2/3", "1/4", "-1/4", "3/4", "-3/4")
WEIGHTED_CLI_N = 100
ENDPOINT_N = 60

GRID_POINTS = 2000
LN_N_MIN = math.log(2.0)
LN_N_MAX = 1e5 * math.log(10.0)  # n = 10^(10^5)
LN_N_MAX_EXP = 700.0              # e^(c ln n) growth must stay a finite float
CLOSED_FORM_ROWS = [((0, 0, 1), "P"), ((0, 0, 1), "Q"), ((0, 1, 0), "P"), ((0, 1, 0), "Q"), ((0, 2, 0), "Q")]
TABLE_W_POINTS = 12
FLOAT_RTOL = 1e-12


class CheckFailed(Exception):
    pass


def expect(ok, message: str):
    if not ok:
        raise CheckFailed(message)


class Op(NamedTuple):
    name: str
    layer: str
    run: Callable            # results dict -> result
    calls: int               # library calls the op makes
    check: Callable          # (result, results) -> None, raises CheckFailed


class Cli(NamedTuple):
    args: list
    check: Callable          # (stdout, results) -> None


class Workload(NamedTuple):
    ops: list
    cli: Cli
    probes: list             # (name, fn) pairs, run untimed
    exponent: tuple | None   # (op at N, op at N/2) for the size exponent


def draw_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "egf-bigint":
        t, f = rng.choice([p for p in PAIRS if p[1] == "P" and p not in EGF_FIXED])
        digits = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(PROBE_DIGITS - 1)
        )
        return {"pair": [list(t), f], "probe_digits": digits}
    if workload == "ogf-sieve":
        pool = [(t, f) for t, f in PAIRS if t[1] == 0 and (t, f) != OGF_FIXED]
        t, f = rng.choice(pool)
        full = [t for t in SMALL_TRIPLES if min(t) >= 1]
        sample = sorted(rng.sample(range(101, SIEVE_L), SIEVE_SAMPLES - 1)) + [SIEVE_L]
        return {
            "ogf_pair": [list(t), f],
            "w_triples": [list(t) for t in rng.sample(full, 2)],
            "w_check_lengths": sample,
        }
    if workload == "weighted-rational":
        return {"triple": list(rng.choice(SMALL_TRIPLES)), "v": rng.choice(WEIGHTED_V_POOL)}
    if workload == "estimate-float":
        grid = sorted(rng.random() for _ in range(GRID_POINTS - 2))
        return {
            "grid": [0.0] + grid + [1.0],
            "table_w_log10n": sorted(
                round(math.exp(rng.uniform(math.log(0.31), math.log(1e5))), 4)
                for _ in range(TABLE_W_POINTS)
            ),
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def build(workload: str, inputs: dict) -> Workload:
    return {
        "egf-bigint": _egf_bigint,
        "ogf-sieve": _ogf_sieve,
        "weighted-rational": _weighted_rational,
        "estimate-float": _estimate_float,
    }[workload](inputs)


def _name(fn, *args) -> str:
    return f"{fn.__name__}({','.join(str(a).replace(' ', '') for a in args)})"


def _factorials(upto: int) -> list[int]:
    out = [1]
    for n in range(1, upto + 1):
        out.append(out[-1] * n)
    return out


def _check_mod(values, expected_mod, what: str):
    got = [reference.to_mod(v) for v in values]
    bad = next((n for n, (a, b) in enumerate(zip(got, expected_mod)) if a != b), None)
    expect(len(got) == len(expected_mod) and bad is None, f"{what}: mod-p mismatch at n={bad}")


# ---------------------------------------------------------------------------
# egf-bigint
# ---------------------------------------------------------------------------

def _egf_bigint(inputs: dict) -> Workload:
    from partition_forge.cli import parse_bfile
    from partition_forge.divisors import AdmissibleTriple
    from partition_forge.oracle import cycle_type_sum
    from partition_forge.series import KIND_EGF, CoeffSequence, egf_coeffs, ogf_coeffs_euler, to_bfile, to_json

    t, f = inputs["pair"]
    runs = EGF_FIXED + [(tuple(t), f)]

    def check_egf(t, f):
        def check(seq, results):
            for n in range(ORACLE_N + 1):
                expect(seq.values[n] == cycle_type_sum(t, f, n), f"cycle_type_sum differs at n={n}")
            _check_mod(seq.values, reference.exact_numerators_mod(t, f, EGF_N), "Horner reference")
            if t[1] == 0:
                ogf = ogf_coeffs_euler(t, f, EGF_N).values
                fact = _factorials(EGF_N)
                expect(all(seq.values[n] == fact[n] * ogf[n] for n in range(EGF_N + 1)),
                       "p_n != n! F_n")
        return check

    def check_json(source, t, f):
        def check(text, results):
            payload = json.loads(text)
            expect(payload["triple"] == list(t) and payload["form"] == f, "to_json provenance")
            expect([int(v) for v in payload["values"]] == list(results[source].values),
                   "to_json values")
        return check

    def check_bfile(source):
        def check(text, results):
            records = [(r.index, r.value) for r in parse_bfile(text)]
            expect(records == list(enumerate(results[source].values)), "to_bfile records")
        return check

    ops = []
    for t, f in runs:
        ops.append(Op(_name(egf_coeffs, t, f, EGF_N), "series",
                      lambda r, t=t, f=f: egf_coeffs(t, f, EGF_N), 1, check_egf(t, f)))
    full = ops[0].name
    half = _name(egf_coeffs, *EGF_FIXED[0], EGF_N // 2)

    def check_half(seq, results):
        expect(seq.values == results[full].values[:EGF_N // 2 + 1], "N/2 run is not a prefix of the N run")

    ops.append(Op(half, "series", lambda r: egf_coeffs(*EGF_FIXED[0], EGF_N // 2), 1, check_half))
    for (t, f), source in zip(runs, [op.name for op in ops]):
        ops.append(Op(f"to_json({source})", "series", lambda r, s=source: to_json(r[s]), 1,
                      check_json(source, t, f)))
        ops.append(Op(f"to_bfile({source})", "series", lambda r, s=source: to_bfile(r[s]), 1,
                      check_bfile(source)))

    def check_cli(stdout, results):
        values = [int(v) for v in json.loads(stdout)["values"]]
        expect(values == list(results[half].values), "CLI json values")

    (i, j, k), form = EGF_FIXED[0]
    cli = Cli(["coeffs", "--triple", f"{i},{j},{k}", "--form", form, "--n", str(EGF_CLI_N),
               "--format", "json"], check_cli)

    digits = inputs["probe_digits"]
    big = reference.decimal_to_int(digits)

    def probe_to_json():
        seq = CoeffSequence(AdmissibleTriple(0, 1, 0), "P", KIND_EGF, (1, big))
        expect(json.loads(to_json(seq))["values"][1] == digits, "to_json of a large value")

    def probe_parse_bfile():
        records = parse_bfile(f"0 1\n1 {digits}\n")
        expect(records[1].value == big, "parse_bfile of a large value")

    probes = [("to_json 5000 digits", probe_to_json), ("parse_bfile 5000 digits", probe_parse_bfile)]
    return Workload(ops, cli, probes, (full, half))


# ---------------------------------------------------------------------------
# ogf-sieve
# ---------------------------------------------------------------------------

def _ogf_sieve(inputs: dict) -> Workload:
    from partition_forge.cli import parse_bfile
    from partition_forge.divisors import cycle_weight_table
    from partition_forge.oracle import product_expand
    from partition_forge.series import egf_coeffs, ogf_coeffs_euler

    t, f = inputs["ogf_pair"]
    runs = [OGF_FIXED, (tuple(t), f)]

    def check_ogf(t, f):
        def check(seq, results):
            values = seq.values
            expect(len(values) == OGF_N + 1, "length")
            if (t, f) == OGF_FIXED:
                for n, p in reference.PARTITIONS.items():
                    expect(values[n] == p, f"p({n})")
            expect(list(values[:PRODUCT_N + 1]) == product_expand(t, f, PRODUCT_N),
                   "product_expand prefix")
            egf = egf_coeffs(t, f, OGF_EGF_AGREEMENT_N).values
            fact = _factorials(OGF_N)
            expect(all(egf[n] == fact[n] * values[n] for n in range(OGF_EGF_AGREEMENT_N + 1)),
                   "p_n != n! F_n")
            _check_mod([fact[n] * v for n, v in enumerate(values)],
                       reference.exact_numerators_mod(t, f, OGF_N), "Horner reference")
        return check

    lengths = list(range(1, 101)) + inputs["w_check_lengths"]

    def check_w(t, f):
        def check(table, results):
            expect(len(table) == SIEVE_L + 1, "length")
            for L in lengths:
                expect(table[L] == reference.weight(t, f, L), f"W({L})")
        return check

    ops = [Op(_name(ogf_coeffs_euler, t, f, OGF_N), "series",
              lambda r, t=t, f=f: ogf_coeffs_euler(t, f, OGF_N), 1, check_ogf(t, f))
           for t, f in runs]
    fixed = ops[0].name
    for t in inputs["w_triples"]:
        t = tuple(t)
        for f in "PQ":
            ops.append(Op(_name(cycle_weight_table, t, f, SIEVE_L), "divisors",
                          lambda r, t=t, f=f: cycle_weight_table(t, f, SIEVE_L), 1, check_w(t, f)))

    def check_cli(stdout, results):
        records = [(r.index, r.value) for r in parse_bfile(stdout)]
        expect(records == list(enumerate(results[fixed].values)), "CLI b-file records")

    (i, j, k), form = OGF_FIXED
    cli = Cli(["coeffs", "--ogf", "--triple", f"{i},{j},{k}", "--form", form, "--n", str(OGF_N),
               "--format", "bfile"], check_cli)
    return Workload(ops, cli, [], None)


# ---------------------------------------------------------------------------
# weighted-rational
# ---------------------------------------------------------------------------

def _weighted_rational(inputs: dict) -> Workload:
    from partition_forge.series import egf_coeffs, egf_coeffs_weighted

    runs = [WEIGHTED_FIXED, (tuple(inputs["triple"]), Fraction(inputs["v"]))]

    def check_weighted(t, v):
        def check(seq, results):
            expect(seq.v == v and len(seq.values) == WEIGHTED_N + 1, "provenance")
            _check_mod(seq.values, reference.exact_numerators_mod(t, v, WEIGHTED_N), "Horner reference")
            for sign, form in ((1, "P"), (-1, "Q")):
                expect(egf_coeffs_weighted(t, sign, ENDPOINT_N).values
                       == egf_coeffs(t, form, ENDPOINT_N).values, f"v={sign} differs from {form}")
        return check

    ops = [Op(_name(egf_coeffs_weighted, t, v, WEIGHTED_N), "series",
              lambda r, t=t, v=v: egf_coeffs_weighted(t, v, WEIGHTED_N), 1, check_weighted(t, v))
           for t, v in runs]
    fixed = ops[0].name

    def check_cli(stdout, results):
        values = [Fraction(tok) for tok in stdout.split()]
        expect(values == list(results[fixed].values[:WEIGHTED_CLI_N + 1]), "CLI values")

    (i, j, k), v = WEIGHTED_FIXED
    cli = Cli(["weighted", "--triple", f"{i},{j},{k}", "--v", str(v), "--n", str(WEIGHTED_CLI_N)],
              check_cli)
    return Workload(ops, cli, [], None)


# ---------------------------------------------------------------------------
# estimate-float
# ---------------------------------------------------------------------------

def _ln_grid(us, hi: float) -> list[float]:
    """Log-uniform ln n values on [ln 2, hi], one per drawn u in [0, 1]."""
    return [LN_N_MIN * (hi / LN_N_MIN) ** u for u in us]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b), 1.0)


def _estimate_float(inputs: dict) -> Workload:
    from partition_forge.asympt import coeff_asymptotic, kotesovec_ratio, log_coeff_asymptotic, weak_saddle_alpha
    from partition_forge.cli import truncate4
    from partition_forge.oracle import product_expand
    from partition_forge.series import egf_coeffs

    us = inputs["grid"]
    wide = _ln_grid(us, LN_N_MAX)
    narrow = _ln_grid(us, LN_N_MAX_EXP)

    def check_finite(values):
        expect(len(values) == len(us) and all(map(math.isfinite, values)), "non-finite estimate")

    def check_log_coeff(t, f, grid):
        def check(values, results):
            check_finite(values)
            expect(all(a > 0 for a in values), "log-coefficient growth must be positive")
            expect(all(a < b for a, b in zip(values, values[1:])), "log-coefficient growth must increase with n")
            if (t, f) == ((0, 0, 1), "P"):
                expect(all(_close(v, math.pi * math.sqrt(2.0 * math.exp(L) / 3.0))
                           for v, L in zip(values, grid)), "pi sqrt(2n/3)")
            if (t, f) == ((0, 1, 0), "P"):
                expect(all(_close(v, L * L / 2.0) for v, L in zip(values, grid)), "ln^2 n / 2")
        return check

    def check_alpha(t, f, grid):
        def check(values, results):
            check_finite(values)
            expect(all(a > b for a, b in zip(values, values[1:])), "saddle alpha must decrease with n")
            if (t, f) == ((1, 0, 0), "P"):  # -(ln n - ln(2 zeta(3))) / 3
                expect(all(_close(v, -(L - math.log(2.0 * reference.ZETA3)) / 3.0)
                           for v, L in zip(values, grid)), "zeta(3) saddle")
            if (t, f) == ((0, 0, 1), "P"):  # -(ln n - ln(pi^2/6)) / 2
                expect(all(_close(v, -(L - math.log(reference.PI2_OVER_6)) / 2.0)
                           for v, L in zip(values, grid)), "pi^2/6 saddle")
        return check

    def ratio_to_exact(t, f, n, ln_exact):
        return math.exp(ln_exact - coeff_asymptotic(t, f, n).ln)

    def check_closed_form(t, f):
        def check(estimates, results):
            check_finite([e.ln for e in estimates])
            if t == (0, 0, 1):  # Hardy-Ramanujan and its Q analogue: up to 10% low at n = 100
                ln_exact = math.log(product_expand(t, f, 100)[100])
                expect(0.90 <= ratio_to_exact(t, f, 100, ln_exact) <= 1.0, "closed form vs exact at n=100")
            if (t, f) == ((0, 1, 0), "P"):  # within 15% at n = 455
                ln_exact = math.log(egf_coeffs(t, f, 455).values[455]) - math.lgamma(456)
                expect(abs(ratio_to_exact(t, f, 455, ln_exact) - 1.0) <= 0.15, "closed form vs exact at n=455")
        return check

    def check_ratio(values, results):
        check_finite(values)
        for r, L in zip(values, wide):  # w + ln w = gamma + ln n with w = W(e^gamma n)
            w = L * math.sqrt(r)
            expect(abs(w + math.log(w) - reference.EULER_GAMMA - L) <= 1e-9 * L, "Lambert W identity")

    ops = []
    for t, f in PAIRS:
        grid = narrow if t[0] >= 1 or t[2] >= 1 else wide
        ops.append(Op(_name(log_coeff_asymptotic, t, f), "asympt",
                      lambda r, t=t, f=f, g=grid: [log_coeff_asymptotic(t, f, ln_n=L) for L in g],
                      len(grid), check_log_coeff(t, f, grid)))
        ops.append(Op(_name(weak_saddle_alpha, t, f), "asympt",
                      lambda r, t=t, f=f, g=wide: [weak_saddle_alpha(t, f, ln_n=L) for L in g],
                      len(wide), check_alpha(t, f, wide)))
    for t, f in CLOSED_FORM_ROWS:
        grid = narrow if t == (0, 0, 1) else wide
        ops.append(Op(_name(coeff_asymptotic, t, f), "asympt",
                      lambda r, t=t, f=f, g=grid: [coeff_asymptotic(t, f, ln_n=L) for L in g],
                      len(grid), check_closed_form(t, f)))
    log10n = [L / math.log(10.0) for L in wide]
    ops.append(Op("kotesovec_ratio()", "asympt",
                  lambda r: [kotesovec_ratio(log10_n=x) for x in log10n], len(log10n), check_ratio))

    tokens = [repr(x) for x in inputs["table_w_log10n"]]

    def check_cli(stdout, results):
        rows = [line.split() for line in stdout.splitlines()]
        expected = [[tok, f"{truncate4(kotesovec_ratio(log10_n=float(tok))):.4f}"] for tok in tokens]
        expect(rows == expected, "CLI table-w rows")

    cli = Cli(["table-w", "--log10n-list", ",".join(tokens)], check_cli)
    return Workload(ops, cli, [], None)
