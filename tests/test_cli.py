import argparse
import io
import json
import math
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_forge import cli, oracle, series
from partition_forge.asympt import coeff_asymptotic, kotesovec_ratio, log_coeff_asymptotic_ln
from partition_forge.cli import (
    BFileError,
    BFileRecord,
    EXIT_DOMAIN,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    compare_sequence,
    parse_bfile,
    run,
    truncate4,
)
from partition_forge.divisors import AdmissibleTriple
from partition_forge.series import KIND_EGF, CoeffSequence, egf_coeffs, from_decimal, ogf_coeffs_euler


def run_cli(argv):
    buf = io.StringIO()
    status = run(argv, out=buf)
    return status, buf.getvalue()


class TestParseBfile:
    def test_basic(self):
        assert parse_bfile("0 1\n1 1\n2 2\n") == [
            BFileRecord(0, 1),
            BFileRecord(1, 1),
            BFileRecord(2, 2),
        ]

    def test_comment_and_blank_lines_skipped(self):
        assert parse_bfile("# comment\n1 5\n") == [BFileRecord(1, 5)]
        assert parse_bfile("\n\n0 1\n\n") == [BFileRecord(0, 1)]

    def test_non_increasing_index(self):
        with pytest.raises(BFileError, match="non-increasing index at line 2"):
            parse_bfile("1 5\n1 6\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(BFileError, match="line 2"):
            parse_bfile("0 1\n1 two\n")
        with pytest.raises(BFileError, match="line 1"):
            parse_bfile("0 1 2\n")

    def test_negative_values_allowed(self):
        assert parse_bfile("3 -7\n") == [BFileRecord(3, -7)]

    def test_value_past_digit_limit(self):
        digits = "9" * 5000
        assert parse_bfile(f"0 1\n1 {digits}\n") == [BFileRecord(0, 1), BFileRecord(1, 10 ** 5000 - 1)]

    @pytest.mark.parametrize("line", ["1 1_000", "1 1e3", "1 +-2"])
    def test_tokens_are_strict_decimals(self, line):
        with pytest.raises(BFileError, match="line 1"):
            parse_bfile(line)

    @given(
        st.lists(st.integers(min_value=-(10 ** 40), max_value=10 ** 40), min_size=1, max_size=30),
        st.integers(min_value=-5, max_value=1000),
    )
    def test_round_trip_any_values(self, values, start):
        text = "".join(f"{start + n} {v}\n" for n, v in enumerate(values))
        records = parse_bfile(text)
        assert [r.value for r in records] == values
        assert [r.index for r in records] == list(range(start, start + len(values)))


class TestCompareSequence:
    def test_partition_prefix(self):
        seq = ogf_coeffs_euler((0, 0, 1), "P", 4)
        records = [BFileRecord(i, v) for i, v in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5)]]
        report = compare_sequence(seq, records, 0)
        assert report.matched_prefix_length == 5
        assert report.first_mismatch is None
        assert report.overlap_length == 5
        assert report.full_match

    def test_identical_sequences_full_match(self):
        seq = egf_coeffs((0, 1, 0), "P", 10)
        records = [BFileRecord(i, v) for i, v in enumerate(seq.values)]
        report = compare_sequence(seq, records, 0)
        assert report.full_match
        assert report.matched_prefix_length == 11

    def test_deliberate_corruption_detected(self):
        seq = egf_coeffs((0, 1, 0), "P", 4)  # 1 1 3 11 59
        records = [BFileRecord(i, v) for i, v in [(0, 1), (1, 1), (2, 3), (3, 11), (4, 58)]]
        report = compare_sequence(seq, records, 0)
        assert report.first_mismatch == (4, 58, 59)
        assert report.matched_prefix_length == 4
        assert not report.full_match

    def test_offset_alignment(self):
        seq = ogf_coeffs_euler((0, 0, 1), "P", 3)
        records = [BFileRecord(i, v) for i, v in [(5, 1), (6, 1), (7, 2), (8, 3)]]
        report = compare_sequence(seq, records, 5)
        assert report.full_match
        assert report.offset_applied == 5

    def test_empty_overlap(self):
        seq = ogf_coeffs_euler((0, 0, 1), "P", 3)
        with pytest.raises(ValueError, match="empty overlap"):
            compare_sequence(seq, [BFileRecord(10, 42)], 0)

    def test_mismatch_absent_iff_prefix_covers_overlap(self):
        seq = egf_coeffs((0, 1, 0), "P", 4)
        good = compare_sequence(seq, [BFileRecord(2, 3)], 0)
        assert good.full_match and good.matched_prefix_length == good.overlap_length
        bad = compare_sequence(seq, [BFileRecord(2, 4)], 0)
        assert not bad.full_match and bad.matched_prefix_length < bad.overlap_length


class TestCoeffsVerb:
    def test_partitions_ogf(self):
        status, out = run_cli(["coeffs", "--triple", "0,0,1", "--form", "P", "--n", "6", "--ogf"])
        assert status == EXIT_OK
        assert out.strip() == "1 1 2 3 5 7 11"

    def test_cycle_family_q(self):
        status, out = run_cli(["coeffs", "--triple", "0,1,0", "--form", "Q", "--n", "4"])
        assert status == EXIT_OK
        assert out.strip() == "1 1 1 5 11"

    def test_bfile_format_round_trips(self):
        status, out = run_cli(
            ["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "8", "--format", "bfile"]
        )
        assert status == EXIT_OK
        records = parse_bfile(out)
        assert tuple(r.value for r in records) == egf_coeffs((0, 1, 0), "P", 8).values

    def test_tsv_format(self):
        status, out = run_cli(
            ["coeffs", "--triple", "0,0,1", "--form", "P", "--n", "3", "--ogf", "--format", "tsv"]
        )
        assert status == EXIT_OK
        assert out.splitlines() == ["0\t1", "1\t1", "2\t2", "3\t3"]

    def test_json_format(self):
        status, out = run_cli(
            ["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "4", "--format", "json"]
        )
        assert status == EXIT_OK
        payload = json.loads(out)
        assert payload["values"] == ["1", "1", "3", "11", "59"]

    def test_json_past_digit_limit(self):
        n = 1700
        status, out = run_cli(
            ["coeffs", "--triple", "0,0,1", "--form", "P", "--n", str(n), "--format", "json"]
        )
        assert status == EXIT_OK
        values = json.loads(out)["values"]
        assert len(values) == n + 1 and len(values[n]) > 4300
        partitions = ogf_coeffs_euler((0, 0, 1), "P", n).values
        for m in (0, 1000, n - 1, n):
            assert from_decimal(values[m]) == factorial(m) * partitions[m]

    @pytest.mark.parametrize("fmt", ["plain", "bfile", "tsv", "json"])
    def test_every_format_past_digit_limit(self, monkeypatch, fmt):
        values = (1, 10 ** 5000 - 7, -(10 ** 4400))
        seq = CoeffSequence(AdmissibleTriple(0, 1, 0), "P", KIND_EGF, values)
        monkeypatch.setattr(series, "egf_coeffs", lambda triple, form, n: seq)
        status, out = run_cli(["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "2", "--format", fmt])
        assert status == EXIT_OK
        if fmt == "plain":
            parsed = [from_decimal(token) for token in out.split()]
        elif fmt == "json":
            parsed = [from_decimal(token) for token in json.loads(out)["values"]]
        else:
            if fmt == "tsv":
                assert out.count("\t") == len(values) and " " not in out
                out = out.replace("\t", " ")
            records = parse_bfile(out)
            assert [r.index for r in records] == [0, 1, 2]
            parsed = [r.value for r in records]
        assert tuple(parsed) == values

    def test_ogf_with_positive_j_is_domain_error(self):
        status, _ = run_cli(["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "4", "--ogf"])
        assert status == EXIT_DOMAIN

    def test_memory_error_is_one_line(self, monkeypatch, capsys):
        def exhausted(triple, form, n):
            raise MemoryError

        monkeypatch.setattr(series, "ogf_coeffs_euler", exhausted)
        status, out = run_cli(["coeffs", "--triple", "0,0,1", "--form", "P", "--n", "5", "--ogf"])
        assert status == EXIT_DOMAIN
        assert out == ""
        err = capsys.readouterr().err
        assert err == "error: out of memory\n"


class TestUsageErrors:
    def test_unknown_verb(self):
        status, _ = run_cli(["frobnicate"])
        assert status == EXIT_USAGE

    def test_no_verb(self):
        status, _ = run_cli([])
        assert status == EXIT_USAGE

    def test_bad_triple(self):
        status, _ = run_cli(["coeffs", "--triple", "0,0,0", "--form", "P", "--n", "4"])
        assert status == EXIT_USAGE
        status, _ = run_cli(["coeffs", "--triple", "1,-2,0", "--form", "P", "--n", "4"])
        assert status == EXIT_USAGE
        status, _ = run_cli(["coeffs", "--triple", "1,2", "--form", "P", "--n", "4"])
        assert status == EXIT_USAGE

    def test_bad_form(self):
        status, _ = run_cli(["coeffs", "--triple", "0,0,1", "--form", "R", "--n", "4"])
        assert status == EXIT_USAGE

    def test_help_is_success(self, capsys):
        # the help text goes to the caller's out, not to the process's stdout
        for argv in (["--help"], ["coeffs", "--help"]):
            status, text = run_cli(argv)
            assert status == EXIT_OK, argv
            assert text.startswith("usage: partition-forge"), argv
            assert capsys.readouterr() == ("", ""), argv


# one valid argv tail per verb; the key set must be the parser's verb set
VERB_ARGV = {
    "coeffs": ["--triple", "0,0,1", "--form", "P", "--n", "3"],
    "weighted": ["--triple", "0,1,0", "--v", "1/3", "--n", "3"],
    "estimate": ["--triple", "0,0,1", "--form", "P", "--n", "100"],
    "logasymp": ["--triple", "0,0,1", "--form", "P", "--n", "100"],
    "table-w": ["--n-list", "2"],
    "figure1": ["--nmax", "2"],
    "compare": ["--triple", "0,0,1", "--form", "P", "--bfile", "ref.txt"],
    "oracle": ["--triple", "0,1,0", "--n", "3"],
}


def _verb_parsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestVerbHandlers:
    def test_every_verb_binds_a_callable_handler(self):
        verbs = _verb_parsers(build_parser())
        assert set(verbs) == set(VERB_ARGV)
        for name, sub in verbs.items():
            assert callable(sub.get_default("handler")), name

    @pytest.mark.parametrize("verb", sorted(VERB_ARGV))
    def test_run_dispatches_through_the_bound_handler(self, monkeypatch, verb):
        seen = []

        def handler(args, out):
            seen.append(args.verb)
            return 42

        def parser_with_fake_handlers():
            parser = build_parser()
            for sub in _verb_parsers(parser).values():
                sub.set_defaults(handler=handler)
            return parser

        monkeypatch.setattr(cli, "build_parser", parser_with_fake_handlers)
        assert run_cli([verb, *VERB_ARGV[verb]]) == (42, "")
        assert seen == [verb]


class TestWeightedVerb:
    def test_rational_output(self):
        status, out = run_cli(["weighted", "--triple", "0,1,0", "--v", "1", "--n", "4"])
        assert status == EXIT_OK
        assert out.strip() == "1 1 3 11 59"

    def test_half(self):
        status, out = run_cli(["weighted", "--triple", "0,1,0", "--v", "1/2", "--n", "3"])
        assert status == EXIT_OK
        tokens = out.split()
        assert tokens[0] == "1"
        assert "/" in out  # fractional values rendered as num/den

    def test_zero_denominator_is_usage_error(self, capsys):
        status, out = run_cli(["weighted", "--triple", "0,1,0", "--v", "1/0", "--n", "4"])
        assert status == EXIT_USAGE
        assert out == ""
        assert "bad rational '1/0'" in capsys.readouterr().err

    def test_negative_fraction_after_a_space(self):
        spaced = run_cli(["weighted", "--triple", "0,1,0", "--v", "-7/2", "--n", "4"])
        joined = run_cli(["weighted", "--triple", "0,1,0", "--v=-7/2", "--n", "4"])
        assert spaced == joined
        assert spaced[0] == EXIT_OK and "/" in spaced[1]


class TestEstimateVerbs:
    def test_full_coefficient_estimate(self):
        status, out = run_cli(["estimate", "--triple", "0,0,1", "--form", "P", "--n", "100"])
        assert status == EXIT_OK
        assert "1.993e+8" in out

    def test_log_only_notice(self):
        status, out = run_cli(["estimate", "--triple", "1,0,0", "--form", "P", "--n", "100"])
        assert status == EXIT_OK
        assert "log-only" in out
        # every pair without a closed form prints the one generic line, (1,0,0) and (1,0,1) included
        for triple in ("1,0,0", "1,0,1", "2,2,2"):
            for form in ("P", "Q"):
                status, out = run_cli(["estimate", "--triple", triple, "--form", form, "--n", "100"])
                assert status == EXIT_OK
                lines = out.splitlines()
                assert lines[1:2] == ["log-only: no closed-form coefficient estimate for this case"]
                assert lines[2].startswith("log_coeff_growth = ") and len(lines) == 3

    def test_log_only_pair_takes_an_index_below_two(self):
        # the closed forms need n >= 2; the growth law of a log-only pair only n > 1
        status, out = run_cli(["estimate", "--triple", "1,0,0", "--form", "P", "--n", "1.5"])
        assert status == EXIT_OK
        assert out.splitlines()[2].startswith("log_coeff_growth = ")
        assert run_cli(["estimate", "--triple", "0,0,1", "--form", "P", "--n", "1.5"])[0] == EXIT_DOMAIN

    def test_huge_index_estimate(self):
        status, out = run_cli(
            ["estimate", "--triple", "0,1,0", "--form", "P", "--log10n", "100000"]
        )
        assert status == EXIT_OK
        assert "ln_estimate" in out

    def test_negative_ln_estimate_past_float_resolution(self):
        # ln_estimate ~ -7.07e16 has an ulp of 16: it prints as a sign and the mantissa and exponent of |ln|
        status, out = run_cli(["estimate", "--triple", "0,1,0", "--form", "Q", "--log10n", "1e17"])
        assert status == EXIT_OK
        prefix = "ln_estimate = -"
        line = out.splitlines()[1]
        assert line.startswith(prefix)
        mantissa, exponent = line[len(prefix):].split("e")
        ln = coeff_asymptotic((0, 1, 0), "Q", ln_n=1e17 * math.log(10.0)).ln
        assert -float(mantissa) * 10.0 ** int(exponent) == pytest.approx(ln, rel=1e-12)

    def test_mantissa_rounded_up_to_ten_carries(self):
        # the estimate is 9.9999998...e-3, which rounds to 1.000e-2 at three decimals
        status, out = run_cli(["estimate", "--triple", "0,1,0", "--form", "Q", "--log10n", "6.524673201"])
        assert status == EXIT_OK
        assert out.splitlines()[2] == "estimate ~ 1.000e-2"

    def test_logasymp(self):
        status, out = run_cli(["logasymp", "--triple", "0,0,1", "--form", "P", "--n", "600"])
        assert status == EXIT_OK
        import math

        assert float(out.strip()) == pytest.approx(math.pi * math.sqrt(400.0), rel=1e-6)


ZETA3 = 1.2020569031595942


class TestOverflowingEstimates:
    """A value past float range prints as mantissa and exponent, read off its logarithm."""

    @pytest.mark.parametrize(
        "argv, prefix, ln_value",
        [
            (["logasymp", "--triple", "1,0,0", "--form", "P", "--log10n", "500"], "",
             lambda L: math.log(1.5 * (2 * ZETA3) ** (1 / 3)) + 2 * L / 3),
            (["logasymp", "--triple", "0,0,1", "--form", "P", "--log10n", "700"], "",
             lambda L: math.log(math.pi * math.sqrt(2 / 3)) + L / 2),
            (["estimate", "--triple", "1,0,0", "--form", "P", "--log10n", "500"], "log_coeff_growth = ",
             lambda L: math.log(1.5 * (2 * ZETA3) ** (1 / 3)) + 2 * L / 3),
            (["estimate", "--triple", "0,0,1", "--form", "P", "--log10n", "400"], "ln_estimate = ",
             lambda L: math.log(math.pi * math.sqrt(2 / 3)) + L / 2),
            # the last product of log_coeff_asymptotic overflows to inf without raising
            (["logasymp", "--triple", "2,0,0", "--form", "P", "--log10n", "461.9"], "",
             lambda L: log_coeff_asymptotic_ln((2, 0, 0), "P", ln_n=L)),
            # ln_estimate is a finite float, but too large for any of its decimals to mean anything
            (["estimate", "--triple", "0,0,1", "--form", "P", "--log10n", "307.9"], "ln_estimate = ",
             lambda L: math.log(math.pi * math.sqrt(2 / 3)) + L / 2),
            # finite, but an ulp of it is far above 1, so no decimal of it means anything
            (["logasymp", "--triple", "2,0,0", "--form", "P", "--log10n", "400"], "",
             lambda L: log_coeff_asymptotic_ln((2, 0, 0), "P", ln_n=L)),
        ],
    )
    def test_printed_from_the_logarithm(self, argv, prefix, ln_value):
        status, out = run_cli(argv)
        assert status == EXIT_OK
        line = next(line for line in out.splitlines() if line.startswith(prefix))
        mantissa, exponent = line[len(prefix):].split("e")
        printed = math.log(float(mantissa)) + int(exponent) * math.log(10.0)
        assert printed == pytest.approx(ln_value(float(argv[-1]) * math.log(10.0)), rel=1e-12)


class TestUnresolvedDigits:
    """Digits below one ulp of the float they come from are not printed."""

    @pytest.mark.parametrize("log10n", ["30", "307.9"])
    def test_no_mantissa_below_float_resolution(self, log10n):
        status, out = run_cli(["estimate", "--triple", "0,0,1", "--form", "P", "--log10n", log10n])
        assert status == EXIT_OK
        assert "estimate ~" not in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            # log10 ~ 6.7e4 has an ulp of 1.5e-11: the mantissa keeps 10 decimals
            (["logasymp", "--triple", "1,0,0", "--form", "P", "--log10n", "100000"], "9.3270205413e+66666"),
            # an ulp of log10 is far above 1: no mantissa digit is resolved, so log10 itself prints
            (["logasymp", "--triple", "0,0,1", "--form", "Q", "--log10n", "1e300"], "10^(5e+299)"),
            (["estimate", "--triple", "2,2,2", "--form", "Q", "--log10n", "1e20"],
             "log_coeff_growth = 10^(6.666666666666666e+19)"),
        ],
    )
    def test_mantissa_keeps_only_resolved_decimals(self, argv, line):
        status, out = run_cli(argv)
        assert status == EXIT_OK
        assert out.splitlines()[-1] == line

    def test_ln_decimals_kept_while_resolved(self):
        status, out = run_cli(["estimate", "--triple", "0,0,1", "--form", "P", "--log10n", "30"])
        ln = coeff_asymptotic((0, 0, 1), "P", ln_n=30 * math.log(10.0)).ln
        assert status == EXIT_OK
        assert out.splitlines()[1] == f"ln_estimate = {ln:.6f}"


class TestBadIndex:
    """A non-positive or non-finite index: exit 1, one error line, nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--triple", "0,0,1", "--form", "P", "--n", "inf"],
            ["logasymp", "--triple", "0,0,1", "--form", "P", "--n", "inf"],
            ["estimate", "--triple", "1,0,0", "--form", "Q", "--n", "0"],
            ["logasymp", "--triple", "0,2,0", "--form", "P", "--n", "-5"],
            ["estimate", "--triple", "2,1,0", "--form", "P", "--log10n", "inf"],
            ["logasymp", "--triple", "0,1,0", "--form", "Q", "--log10n", "nan"],
            ["table-w", "--log10n-list", "inf"],
            ["table-w", "--log10n-list", "-1"],
            ["table-w", "--n-list", "10,0"],
            ["table-w", "--n-list", "1000,inf"],
            ["table-w", "--log10n-list", "1e-155"],
            ["table-w", "--log10n-list", "4,1e-310"],
        ],
    )
    def test_rejected_before_any_output(self, argv, capsys):
        status, out = run_cli(argv)
        assert status == EXIT_DOMAIN
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert argv[-1].split(",")[-1] in err or "ln n = " in err


class TestTableVerb:
    def test_reference_rows(self):
        status, out = run_cli(["table-w", "--n-list", "2,1000"])
        assert status == EXIT_OK
        assert out.splitlines() == ["2 2.7032", "1000 0.6899"]

    def test_log10_rows(self):
        status, out = run_cli(["table-w", "--log10n-list", "4,100000"])
        assert status == EXIT_OK
        assert out.splitlines() == ["4 0.7063", "100000 0.9998"]

    def test_log10_row_past_square_overflow(self):
        status, out = run_cli(["table-w", "--log10n-list", "1e300"])
        assert status == EXIT_OK
        assert out.splitlines() == ["1e300 1.0000"]

    def test_truncate4(self):
        assert truncate4(2.70326) == 2.7032
        assert truncate4(0.99989) == 0.9998
        assert truncate4(0.6899) == 0.6899

    def test_log10_row_near_one(self):
        # the ratio is about 1.2e307, where x * 10000 would overflow
        status, out = run_cli(["table-w", "--log10n-list", "1e-154"])
        assert status == EXIT_OK
        token, value = out.split()
        assert token == "1e-154"
        assert float(value) == kotesovec_ratio(log10_n=1e-154)

    @pytest.mark.parametrize("x", [2.0 ** 52, 2.0 ** 53 + 2.0, 1.2e307, -1.7e308])
    def test_truncate4_returns_integral_values_unchanged(self, x):
        assert truncate4(x) == x


class TestFigure1Verb:
    def test_structure(self):
        status, out = run_cli(["figure1", "--nmax", "30"])
        assert status == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n\tlog_coeff\tconjectured\tcorrected\thalf_log_sq"
        assert len(lines) == 30  # header + n = 2..30
        import math

        row = lines[1].split("\t")
        assert int(row[0]) == 2
        ln2n = math.log(2.0) ** 2
        assert float(row[2]) == pytest.approx(math.log(2.0) / 2.0 * ln2n, abs=1e-6)
        assert float(row[4]) == pytest.approx(0.5 * ln2n, abs=1e-6)

    def test_rejects_tiny_nmax(self):
        status, _ = run_cli(["figure1", "--nmax", "1"])
        assert status == EXIT_DOMAIN


class TestCompareVerb:
    def test_full_match_exit_zero(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("0 1\n1 1\n2 2\n3 3\n4 5\n")
        status, out = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(path), "--ogf"]
        )
        assert status == EXIT_OK
        assert "full match" in out

    def test_mismatch_exit_three(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("0 1\n1 1\n2 3\n3 11\n4 58\n")
        status, out = run_cli(
            ["compare", "--triple", "0,1,0", "--form", "P", "--bfile", str(path)]
        )
        assert status == EXIT_MISMATCH
        assert "index 4" in out and "58" in out and "59" in out

    def test_mismatch_past_digit_limit(self, tmp_path):
        path = tmp_path / "ref.txt"
        big = "9" * 5000
        path.write_text(f"0 1\n1 {big}\n")
        status, out = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(path), "--ogf"]
        )
        assert status == EXIT_MISMATCH
        assert f"index 1: reference {big}, computed 1" in out

    def test_offset(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("1 1\n2 1\n3 2\n4 3\n5 5\n")
        status, out = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(path),
             "--offset", "1", "--ogf"]
        )
        assert status == EXIT_OK

    def test_negative_limit_names_the_flag(self, tmp_path, capsys):
        path = tmp_path / "ref.txt"
        path.write_text("0 1\n1 1\n2 2\n")
        status, out = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(path), "--ogf", "--limit", "-5"]
        )
        assert status == EXIT_DOMAIN
        assert out == ""
        assert capsys.readouterr().err == "error: --limit must be >= 0\n"

    def test_empty_bfile_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        status, out = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(path), "--ogf"]
        )
        assert status == EXIT_DOMAIN
        assert out == ""
        assert capsys.readouterr().err == f"error: no records in b-file {path}\n"

    def test_offset_past_every_index_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "ref.txt"
        path.write_text("0 1\n1 1\n2 2\n")
        status, out = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(path),
             "--offset", "3", "--ogf"]
        )
        assert status == EXIT_DOMAIN
        assert out == ""
        assert capsys.readouterr().err == "error: empty overlap between computed sequence and reference\n"

    def test_missing_file_is_domain_error(self, tmp_path):
        status, _ = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(tmp_path / "nope")]
        )
        assert status == EXIT_DOMAIN

    def test_malformed_bfile_is_domain_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nbroken\n")
        status, _ = run_cli(
            ["compare", "--triple", "0,0,1", "--form", "P", "--bfile", str(path), "--ogf"]
        )
        assert status == EXIT_DOMAIN


class TestOracleVerb:
    def test_outputs_cycle_sum(self):
        status, out = run_cli(["oracle", "--triple", "0,1,0", "--n", "4"])
        assert status == EXIT_OK
        assert out.strip() == "59"

    def test_bound_is_domain_error(self):
        status, _ = run_cli(["oracle", "--triple", "0,1,0", "--n", "100"])
        assert status == EXIT_DOMAIN


class TestNegativeCount:
    """--n below 0: exit 1 with one line that names the flag, before any engine runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "-1"],
            ["weighted", "--triple", "0,1,0", "--v", "1/3", "--n", "-1"],
            ["oracle", "--triple", "0,1,0", "--n", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_names_the_flag(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("an engine ran on a negative --n")

        for name in ("egf_coeffs", "egf_coeffs_weighted", "ogf_coeffs_euler"):
            monkeypatch.setattr(series, name, refuse)
        monkeypatch.setattr(oracle, "cycle_type_sum", refuse)
        status, out = run_cli(argv)
        assert status == EXIT_DOMAIN
        assert out == ""
        assert capsys.readouterr().err == "error: --n must be >= 0\n"
