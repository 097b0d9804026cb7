"""Command-line surface: exact coefficients, growth estimates, the
ratio tables, three-estimate comparison data, and OEIS b-file checks.

Exit status contract: 0 success (or full match), 1 domain error,
2 usage error, 3 comparison mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lgamma, log

from .asympt import (
    CAP_FULL,
    CONSTANTS,
    asymptotic_model,
    coeff_asymptotic,
    kotesovec_ratio,
    log_coeff_asymptotic,
)
from .divisors import AdmissibleTriple
from .oracle import cycle_type_sum
from .series import (
    CoeffSequence,
    egf_coeffs,
    egf_coeffs_weighted,
    from_decimal,
    ogf_coeffs_euler,
    to_bfile,
    to_decimal,
    to_json,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

DEFAULT_COMPARE_LIMIT = 1000


class BFileError(ValueError):
    """Malformed or inconsistent b-file text."""


@dataclass(frozen=True)
class BFileRecord:
    index: int
    value: int


@dataclass(frozen=True)
class ComparisonReport:
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
    records: list[BFileRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise BFileError(f"malformed line {lineno}: expected two integer tokens, got {raw!r}")
        try:
            index, value = from_decimal(tokens[0]), from_decimal(tokens[1])
        except ValueError:
            raise BFileError(
                f"malformed line {lineno}: expected two integer tokens, got {raw!r}"
            ) from None
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
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-forge",
        description="Exact coefficients and growth estimates for the P/Q partition product families.",
    )
    sub = parser.add_subparsers(dest="verb", metavar="VERB")

    p = sub.add_parser("coeffs", help="exact coefficient run for a triple")
    p.add_argument("--triple", type=_triple_arg, required=True, metavar="I,J,K")
    p.add_argument("--form", choices=("P", "Q"), required=True)
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--ogf", action="store_true", help="ordinary coefficients (requires J = 0)")
    p.add_argument("--format", choices=("plain", "bfile", "tsv", "json"), default="plain")

    p = sub.add_parser("weighted", help="rational coefficients of the v-weighted family")
    p.add_argument("--triple", type=_triple_arg, required=True, metavar="I,J,K")
    p.add_argument("--v", type=_fraction_arg, required=True, metavar="NUM/DEN")
    p.add_argument("--n", type=int, required=True, metavar="N")

    p = sub.add_parser("estimate", help="closed-form coefficient estimate (log scale)")
    p.add_argument("--triple", type=_triple_arg, required=True, metavar="I,J,K")
    p.add_argument("--form", choices=("P", "Q"), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=float)
    group.add_argument("--log10n", type=float, metavar="X")

    p = sub.add_parser("logasymp", help="first-order growth of log [z^n]F(z)")
    p.add_argument("--triple", type=_triple_arg, required=True, metavar="I,J,K")
    p.add_argument("--form", choices=("P", "Q"), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=float)
    group.add_argument("--log10n", type=float, metavar="X")

    p = sub.add_parser("table-w", help="ratio w_n^2/ln^2(n) rows, 4 decimals")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-list", metavar="N1,N2,...")
    group.add_argument("--log10n-list", metavar="X1,X2,...")

    p = sub.add_parser("figure1", help="three-estimate comparison data, TSV")
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("compare", help="compare a computed run against an OEIS b-file")
    p.add_argument("--triple", type=_triple_arg, required=True, metavar="I,J,K")
    p.add_argument("--form", choices=("P", "Q"), required=True)
    p.add_argument("--bfile", required=True, metavar="PATH")
    p.add_argument("--offset", type=int, default=0, metavar="K")
    p.add_argument("--ogf", action="store_true")
    p.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_COMPARE_LIMIT,
        help=f"cap on computed terms (default {DEFAULT_COMPARE_LIMIT})",
    )

    # debugging verb, hidden from the listing
    p = sub.add_parser("oracle")
    p.add_argument("--triple", type=_triple_arg, required=True, metavar="I,J,K")
    p.add_argument("--form", choices=("P", "Q"), default="P")
    p.add_argument("--n", type=int, required=True)

    return parser


def _print_sequence(seq: CoeffSequence, fmt: str, out) -> None:
    if fmt == "plain":
        print(" ".join(to_decimal(v) for v in seq.values), file=out)
    elif fmt == "bfile":
        out.write(to_bfile(seq))
    elif fmt == "tsv":
        for n, v in enumerate(seq.values):
            print(f"{n}\t{to_decimal(v)}", file=out)
    else:
        print(to_json(seq), file=out)


def _ln_n_from(args) -> tuple[float | None, float | None]:
    """(n, ln_n) pair for the estimate/logasymp verbs."""
    if args.log10n is not None:
        return None, args.log10n * log(10.0)
    return args.n, None


def _cmd_coeffs(args, out) -> int:
    if args.ogf:
        seq = ogf_coeffs_euler(args.triple, args.form, args.n)
    else:
        seq = egf_coeffs(args.triple, args.form, args.n)
    _print_sequence(seq, args.format, out)
    return EXIT_OK


def _cmd_weighted(args, out) -> int:
    seq = egf_coeffs_weighted(args.triple, args.v, args.n)
    print(" ".join(to_decimal(v) for v in seq.values), file=out)
    return EXIT_OK


def _cmd_estimate(args, out) -> int:
    n, ln_n = _ln_n_from(args)
    model = asymptotic_model(args.triple, args.form)
    if model.capability == CAP_FULL:
        est = coeff_asymptotic(args.triple, args.form, n, ln_n=ln_n)
        print(f"triple={args.triple} form={args.form}", file=out)
        print(f"ln_estimate = {est.ln:.6f}", file=out)
        print(f"estimate ~ {est.scientific()}", file=out)
    else:
        value = log_coeff_asymptotic(args.triple, args.form, n, ln_n=ln_n)
        print(f"triple={args.triple} form={args.form}", file=out)
        note = model.note or "no closed-form coefficient estimate for this case"
        print(f"log-only: {note}", file=out)
        print(f"log_coeff_growth = {value:.6f}", file=out)
    return EXIT_OK


def _cmd_logasymp(args, out) -> int:
    n, ln_n = _ln_n_from(args)
    value = log_coeff_asymptotic(args.triple, args.form, n, ln_n=ln_n)
    print(f"{value:.6f}", file=out)
    return EXIT_OK


def truncate4(x: float) -> float:
    """Truncate toward zero at 4 decimals, the table's display precision.

    The reference tables truncate rather than round; a 1e-9 nudge first
    absorbs float representation dust.
    """
    return math.floor(x * 10000.0 + 1e-9) / 10000.0


def _cmd_table_w(args, out) -> int:
    if args.n_list is not None:
        for token in args.n_list.split(","):
            ratio = kotesovec_ratio(n=float(token))
            print(f"{token.strip()} {truncate4(ratio):.4f}", file=out)
    else:
        for token in args.log10n_list.split(","):
            ratio = kotesovec_ratio(log10_n=float(token))
            print(f"{token.strip()} {truncate4(ratio):.4f}", file=out)
    return EXIT_OK


def _cmd_figure1(args, out) -> int:
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
    with open(args.bfile, "r", encoding="utf-8") as fh:
        records = parse_bfile(fh.read())
    if not records:
        raise ValueError(f"no records in b-file {args.bfile}")
    top = max(r.index for r in records) - args.offset
    if top < 0:
        raise ValueError("empty overlap between computed sequence and reference")
    upto = min(top, args.limit)
    if args.ogf:
        seq = ogf_coeffs_euler(args.triple, args.form, upto)
    else:
        seq = egf_coeffs(args.triple, args.form, upto)
    report = compare_sequence(seq, records, args.offset)
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
    print(cycle_type_sum(args.triple, args.form, args.n), file=out)
    return EXIT_OK


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "weighted": _cmd_weighted,
    "estimate": _cmd_estimate,
    "logasymp": _cmd_logasymp,
    "table-w": _cmd_table_w,
    "figure1": _cmd_figure1,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
}


def run(argv: list[str], out=None) -> int:
    """Run one CLI invocation; returns the exit status."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    handler = _HANDLERS[args.verb]
    try:
        return handler(args, out)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
