import io
import json
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_forge.cli import (
    BFileError,
    BFileRecord,
    EXIT_DOMAIN,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    compare_sequence,
    parse_bfile,
    run,
    truncate4,
)
from partition_forge.series import egf_coeffs, from_decimal, ogf_coeffs_euler


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

    def test_ogf_with_positive_j_is_domain_error(self):
        status, _ = run_cli(["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "4", "--ogf"])
        assert status == EXIT_DOMAIN


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

    def test_help_is_success(self):
        status, _ = run_cli(["--help"])
        assert status == EXIT_OK


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


class TestEstimateVerbs:
    def test_full_coefficient_estimate(self):
        status, out = run_cli(["estimate", "--triple", "0,0,1", "--form", "P", "--n", "100"])
        assert status == EXIT_OK
        assert "1.993e+8" in out

    def test_log_only_notice(self):
        status, out = run_cli(["estimate", "--triple", "1,0,0", "--form", "P", "--n", "100"])
        assert status == EXIT_OK
        assert "log-only" in out

    def test_huge_index_estimate(self):
        status, out = run_cli(
            ["estimate", "--triple", "0,1,0", "--form", "P", "--log10n", "100000"]
        )
        assert status == EXIT_OK
        assert "ln_estimate" in out

    def test_logasymp(self):
        status, out = run_cli(["logasymp", "--triple", "0,0,1", "--form", "P", "--n", "600"])
        assert status == EXIT_OK
        import math

        assert float(out.strip()) == pytest.approx(math.pi * math.sqrt(400.0), rel=1e-6)


class TestTableVerb:
    def test_reference_rows(self):
        status, out = run_cli(["table-w", "--n-list", "2,1000"])
        assert status == EXIT_OK
        assert out.splitlines() == ["2 2.7032", "1000 0.6899"]

    def test_log10_rows(self):
        status, out = run_cli(["table-w", "--log10n-list", "4,100000"])
        assert status == EXIT_OK
        assert out.splitlines() == ["4 0.7063", "100000 0.9998"]

    def test_truncate4(self):
        assert truncate4(2.70326) == 2.7032
        assert truncate4(0.99989) == 0.9998
        assert truncate4(0.6899) == 0.6899


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
