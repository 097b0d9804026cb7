"""Command-line surface: exact coefficients, growth estimates, the
ratio tables, three-estimate comparison data, and OEIS b-file checks.

Exit status contract: 0 success (or full match), 1 domain error,
2 usage error, 3 comparison mismatch.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import redirect_stdout
from math import lgamma, log
from typing import TYPE_CHECKING, NamedTuple

from .divisors import AdmissibleTriple

if TYPE_CHECKING:  # the engines load when a verb runs, not at start-up
    from fractions import Fraction

    from .series import CoeffSequence

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

DEFAULT_COMPARE_LIMIT = 1000


class BFileError(ValueError):
    """Malformed or inconsistent b-file text."""


class BFileRecord(NamedTuple):
    index: int
    value: int


class ComparisonReport(NamedTuple):
    matched_prefix_length: int
    first_mismatch: tuple[int, int, int] | None  # (index, expected, actual)
    offset_applied: int
    overlap_length: int

    @property
    def full_match(self) -> bool:
        return self.first_mismatch is None


def parse_bfile(text: str) -> list[BFileRecord]:
    """Parse b-file text: 'index value' per line, '#' comments, blank lines ok.

    Both tokens must be plain decimal integers ([+-]?[0-9]+), of any length.
    """
    from .series import from_decimal

    records: list[BFileRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:  # a bad token and a wrong token count both raise ValueError
            index, value = map(from_decimal, line.split())
        except ValueError:
            raise BFileError(f"malformed line {lineno}: expected two integer tokens, got {raw!r}") from None
        if records and index <= records[-1].index:
            raise BFileError(f"non-increasing index at line {lineno}")
        records.append(BFileRecord(index, value))
    return records


def compare_sequence(
    computed: CoeffSequence, reference: list[BFileRecord], offset: int = 0
) -> ComparisonReport:
    """Exact comparison of a computed run against b-file records.

    Computed index 0 is aligned with reference index `offset`; the
    report covers the longest agreeing prefix of the overlap.
    """
    top = len(computed.values) - 1
    overlap = [r for r in reference if 0 <= r.index - offset <= top]
    if not overlap:
        raise ValueError("empty overlap between computed sequence and reference")
    matched = 0
    mismatch = None
    for record in overlap:
        actual = computed.values[record.index - offset]
        if actual == record.value:
            matched += 1
        else:
            mismatch = (record.index, record.value, actual)
            break
    return ComparisonReport(matched, mismatch, offset, len(overlap))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _triple_arg(text: str) -> AdmissibleTriple:
    try:
        return AdmissibleTriple.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fraction_arg(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def _add_verb(sub, name: str, handler, *, triple: bool = True, form: bool = True, **kwargs):
    """Declare one verb: its subparser, bound to `handler`, with --triple and a required --form."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(handler=handler)
    if triple:
        p.add_argument("--triple", type=_triple_arg, required=True, metavar="I,J,K")
    if form:
        p.add_argument("--form", choices=("P", "Q"), required=True)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-forge",
        description="Exact coefficients and growth estimates for the P/Q partition product families.",
    )
    sub = parser.add_subparsers(dest="verb", metavar="VERB")

    p = _add_verb(sub, "coeffs", _cmd_coeffs, help="exact coefficient run for a triple")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--ogf", action="store_true", help="ordinary coefficients (requires J = 0)")
    p.add_argument("--format", choices=("plain", "bfile", "tsv", "json"), default="plain")

    p = _add_verb(sub, "weighted", _cmd_weighted, form=False,
                  help="rational coefficients of the v-weighted family")
    p.add_argument("--v", type=_fraction_arg, required=True, metavar="NUM/DEN")
    # argparse takes a dash token for an option unless it looks like a number; -7/2 is one
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p.add_argument("--n", type=int, required=True, metavar="N")

    for verb, handler, help_text in (
        ("estimate", _cmd_estimate, "closed-form coefficient estimate (log scale)"),
        ("logasymp", _cmd_logasymp, "first-order growth of log [z^n]F(z)"),
    ):
        group = _add_verb(sub, verb, handler, help=help_text).add_mutually_exclusive_group(required=True)
        group.add_argument("--n", type=float)
        group.add_argument("--log10n", type=float, metavar="X")

    p = _add_verb(sub, "table-w", _cmd_table_w, triple=False, form=False,
                  help="ratio w_n^2/ln^2(n) rows, 4 decimals")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-list", metavar="N1,N2,...")
    group.add_argument("--log10n-list", metavar="X1,X2,...")

    p = _add_verb(sub, "figure1", _cmd_figure1, triple=False, form=False,
                  help="three-estimate comparison data, TSV")
    p.add_argument("--nmax", type=int, required=True)

    p = _add_verb(sub, "compare", _cmd_compare, help="compare a computed run against an OEIS b-file")
    p.add_argument("--bfile", required=True, metavar="PATH")
    p.add_argument("--offset", type=int, default=0, metavar="K")
    p.add_argument("--ogf", action="store_true")
    p.add_argument(
        "--limit", type=int, default=DEFAULT_COMPARE_LIMIT, help="cap on computed terms (default %(default)s)"
    )

    # debugging verb: no help, so hidden from the listing; --form defaults to P
    p = _add_verb(sub, "oracle", _cmd_oracle, form=False)
    p.add_argument("--form", choices=("P", "Q"), default="P")
    p.add_argument("--n", type=int, required=True)

    return parser


def _print_sequence(seq: CoeffSequence, fmt: str, out) -> None:
    from .series import to_bfile, to_decimal, to_json

    if fmt == "plain":
        print(" ".join(to_decimal(v) for v in seq.values), file=out)
    elif fmt in ("bfile", "tsv"):
        text = to_bfile(seq)
        out.write(text if fmt == "bfile" else text.replace(" ", "\t"))
    else:
        print(to_json(seq), file=out)


def _ln_n_from(args) -> tuple[float | None, float | None]:
    """(n, ln_n) pair for the estimate/logasymp verbs."""
    if args.log10n is not None:
        return None, args.log10n * log(10.0)
    return args.n, None


def _nonnegative(value: int, flag: str) -> int:
    """value, if it is >= 0; else a domain error that names the flag."""
    if value < 0:
        raise ValueError(f"{flag} must be >= 0")
    return value


def _exact_run(args, n: int) -> CoeffSequence:
    """Exact run to index n: ordinary coefficients with --ogf, else exponential."""
    from .series import egf_coeffs, ogf_coeffs_euler

    engine = ogf_coeffs_euler if args.ogf else egf_coeffs
    return engine(args.triple, args.form, n)


def _cmd_coeffs(args, out) -> int:
    _print_sequence(_exact_run(args, _nonnegative(args.n, "--n")), args.format, out)
    return EXIT_OK


def _cmd_weighted(args, out) -> int:
    from .series import egf_coeffs_weighted

    _print_sequence(egf_coeffs_weighted(args.triple, args.v, _nonnegative(args.n, "--n")), "plain", out)
    return EXIT_OK


def _log_scale_text(x: float, ln_abs) -> str:
    """A decimal prints while its unit exceeds one ulp's step: x to 6 while ulp(x) < 1e-6 (|x| < 2^33); else its sign
    and |x| off ln|x| = ln_abs(), to the decimals of mantissa m's step m ln10 ulp(log10|x|), <= 12, or 10^(log10|x|)."""
    from .asympt import CoeffEstimate

    if math.ulp(x) < 1e-6:  # inf has an infinite ulp
        return f"{x:.6f}"
    est = CoeffEstimate(ln_abs())
    decimals = min(12, math.floor(-math.log10(est.mantissa * log(10.0) * math.ulp(est.log10))))
    return ("-" if x < 0 else "") + (est.scientific(decimals) if decimals > 0 else f"10^({est.log10!r})")


def _growth_text(args, n, ln_n) -> str:
    """log_coeff_asymptotic, past float resolution read off log_coeff_asymptotic_ln."""
    from .asympt import log_coeff_asymptotic, log_coeff_asymptotic_ln

    try:
        value = log_coeff_asymptotic(args.triple, args.form, n, ln_n=ln_n)
    except OverflowError:
        value = math.inf
    return _log_scale_text(value, lambda: log_coeff_asymptotic_ln(args.triple, args.form, n, ln_n=ln_n))


def _cmd_estimate(args, out) -> int:
    from .asympt import NoClosedFormError, coeff_asymptotic

    n, ln_n = _ln_n_from(args)
    try:
        est = coeff_asymptotic(args.triple, args.form, n, ln_n=ln_n)
        lines = [f"ln_estimate = {_log_scale_text(est.ln, lambda: log(abs(est.ln)))}"]
        if est.mantissa * log(10.0) * math.ulp(est.log10) < 1e-3:  # an ulp moves the mantissa < 1e-3
            lines.append(f"estimate ~ {est.scientific()}")
    except NoClosedFormError:  # raised before n is read: the growth law prints at every index it takes
        growth = _growth_text(args, n, ln_n)
        lines = ["log-only: no closed-form coefficient estimate for this case", f"log_coeff_growth = {growth}"]
    except OverflowError:  # past float range ln_estimate is its first-order law, to float precision
        lines = [f"ln_estimate = {_growth_text(args, n, ln_n)}"]
    print(f"triple={args.triple} form={args.form}", file=out)
    print("\n".join(lines), file=out)
    return EXIT_OK


def _cmd_logasymp(args, out) -> int:
    print(_growth_text(args, *_ln_n_from(args)), file=out)
    return EXIT_OK


def truncate4(x: float) -> float:
    """Truncate toward zero at 4 decimals, the table's display precision.

    The reference tables truncate rather than round; a 1e-9 nudge first
    absorbs float representation dust.  From 2^52 on x is already integral
    and comes back unchanged, where x * 10000 could overflow.
    """
    return x if abs(x) >= 2.0 ** 52 else math.floor(x * 10000.0 + 1e-9) / 10000.0


def _cmd_table_w(args, out) -> int:
    from .asympt import kotesovec_ratio

    key, tokens = ("n", args.n_list) if args.n_list is not None else ("log10_n", args.log10n_list)
    # every row is computed before the first prints, so a bad token prints nothing
    rows = [(token.strip(), kotesovec_ratio(**{key: float(token)})) for token in tokens.split(",")]
    for token, ratio in rows:
        print(f"{token} {truncate4(ratio):.4f}", file=out)
    return EXIT_OK


def _cmd_figure1(args, out) -> int:
    from .asympt import CONSTANTS, coeff_asymptotic
    from .series import egf_coeffs

    if args.nmax < 2:
        raise ValueError("--nmax must be at least 2")
    seq = egf_coeffs((0, 1, 0), "P", args.nmax)
    half_log2 = CONSTANTS.log2 / 2.0
    print("n\tlog_coeff\tconjectured\tcorrected\thalf_log_sq", file=out)
    for n in range(2, args.nmax + 1):
        exact = log(seq.values[n]) - lgamma(n + 1)
        ln2n = log(n) ** 2
        corrected = coeff_asymptotic((0, 1, 0), "P", n).ln
        print(
            f"{n}\t{exact:.6f}\t{half_log2 * ln2n:.6f}\t{corrected:.6f}\t{0.5 * ln2n:.6f}",
            file=out,
        )
    return EXIT_OK


def _cmd_compare(args, out) -> int:
    from .series import to_decimal

    _nonnegative(args.limit, "--limit")
    with open(args.bfile, "r", encoding="utf-8") as fh:
        records = parse_bfile(fh.read())
    if not records:
        raise ValueError(f"no records in b-file {args.bfile}")
    upto = max(min(records[-1].index - args.offset, args.limit), 0)  # indices increase; no overlap raises below
    report = compare_sequence(_exact_run(args, upto), records, args.offset)
    print(f"offset: {report.offset_applied}", file=out)
    print(f"overlap: {report.overlap_length} terms (computed up to index {upto})", file=out)
    print(f"matched prefix: {report.matched_prefix_length}", file=out)
    if report.full_match:
        print("full match", file=out)
        return EXIT_OK
    idx, expected, actual = report.first_mismatch
    print(
        f"first mismatch at index {idx}: reference {to_decimal(expected)}, "
        f"computed {to_decimal(actual)}",
        file=out,
    )
    return EXIT_MISMATCH


def _cmd_oracle(args, out) -> int:
    from .oracle import cycle_type_sum

    print(cycle_type_sum(args.triple, args.form, _nonnegative(args.n, "--n")), file=out)
    return EXIT_OK


def run(argv: list[str], out=None) -> int:
    """Run one CLI invocation; returns the exit status."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        with redirect_stdout(out):  # --help text goes to out; usage errors stay on stderr
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args, out)
    except MemoryError:  # str(MemoryError()) is empty
        print("error: out of memory", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
