import csv
import io
import json
from decimal import Decimal

import pytest

from zetaeven import cli, series_verifier
from zetaeven.reports import VerificationReport
from zetaeven.series_verifier import MAX_SERIES_TERMS, SUITES, run_suite

FIELDS = list(cli.FIELD_ORDER)


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors / --help
        code = exc.code if exc.code is not None else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out):
    return [json.loads(line) for line in out.splitlines()]


def csv_records(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == FIELDS
    return [
        {key: cell for key, cell in zip(FIELDS, row) if cell != ""}
        for row in rows[1:]
    ]


def normalize_json(record):
    """Project a json-lines record onto the csv cell encoding."""
    out = {}
    for key, value in record.items():
        if value is True:
            out[key] = "true"
        elif value is False:
            out[key] = "false"
        else:
            out[key] = str(value)
    return out


class TestZeta:
    def test_exact_single(self, capsys):
        code, out, err = run_cli(
            capsys, "zeta", "--k", "2", "--exact", "--format", "json-lines"
        )
        assert code == 0 and err == ""
        (record,) = json_records(out)
        assert record == {"kind": "ratio", "k": 2, "numerator": "1", "denominator": "90"}
        assert list(record) == ["kind", "k", "numerator", "denominator"]

    def test_decimal_single(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeta", "--k", "1", "--digits", "12", "--format", "json-lines"
        )
        assert code == 0
        (record,) = json_records(out)
        assert record["decimal"] == "1.64493406685"
        assert record["digits"] == 12
        assert record["kind"] == "decimal"

    def test_exact_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeta", "--kmax", "4", "--exact", "--format", "json-lines"
        )
        assert code == 0
        records = json_records(out)
        assert [r["k"] for r in records] == [1, 2, 3, 4]
        assert [r["denominator"] for r in records] == ["6", "90", "945", "9450"]

    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--k", "1", "--exact")
        assert code == 0
        assert out == "zeta(2) = pi^2 * 1/6\n"


class TestSmallSubcommands:
    def test_bernoulli(self, capsys):
        code, out, _ = run_cli(
            capsys, "bernoulli", "--n", "7", "--format", "json-lines"
        )
        assert code == 0
        (record,) = json_records(out)
        assert record == {"kind": "bernoulli", "n": 7, "numerator": "0", "denominator": "1"}

    def test_euler_poly_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "euler-poly", "--m", "1", "--format", "json-lines"
        )
        assert code == 0
        records = json_records(out)
        assert [(r["n"], r["numerator"], r["denominator"]) for r in records] == [
            (0, "-1", "2"),
            (1, "1", "1"),
        ]

    def test_euler_poly_plain_rendering(self, capsys):
        _, out, _ = run_cli(capsys, "euler-poly", "--m", "3")
        assert out == "E_3(x) = x^3 - 3/2*x^2 + 1/4\n"

    def test_euler_poly_negative_point_with_a_space(self, capsys):
        for fmt in ("plain", "json-lines", "csv"):
            spaced = run_cli(capsys, "euler-poly", "--m", "3", "--at", "-3/2", "--format", fmt)
            joined = run_cli(capsys, "euler-poly", "--m", "3", "--at=-3/2", "--format", fmt)
            assert spaced == joined
        assert spaced[0] == 0
        assert run_cli(capsys, "euler-poly", "--m", "3", "--at", "-3/2")[1] == (
            "E_3(-3/2) = -13/2\n"
        )

    def test_exact_output_at_any_size(self, capsys):
        # past the interpreter's default limit of 4300 digits for int <-> str
        big = "1" + "0" * 5000
        # E_1(x) = x - 1/2, so E_1(10^-5000) = -(5 * 10^4999 - 1)/10^5000
        numerator = "-4" + "9" * 4999
        cases = (
            (("euler-poly", "--m", "1", "--at", "1/" + big),
             f"E_1(1/{big}) = {numerator}/{big}",
             {"kind": "euler_poly", "m": 1, "u": "1/" + big,
              "numerator": numerator, "denominator": big}),
            (("phi", "--route", "taylor", "--m", "0", "--u", big),
             f"phi_0({big}) = 2/{big[:-1]}1",
             {"kind": "phi", "m": 0, "u": big, "numerator": "2",
              "denominator": big[:-1] + "1"}),
        )
        for argv, line, record in cases:
            assert run_cli(capsys, *argv) == (0, line + "\n", "")
            code, out, err = run_cli(capsys, *argv, "--format", "json-lines")
            assert (code, err) == (0, "")
            assert json_records(out) == [record]

    def test_euler_poly_evaluated(self, capsys):
        code, out, _ = run_cli(
            capsys, "euler-poly", "--m", "3", "--at", "1", "--format", "json-lines"
        )
        assert code == 0
        (record,) = json_records(out)
        assert record["u"] == "1"
        assert (record["numerator"], record["denominator"]) == ("-1", "4")

    def test_phi_taylor(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--m", "0", "--u", "3", "--route", "taylor",
            "--format", "json-lines",
        )
        assert code == 0
        (record,) = json_records(out)
        assert (record["numerator"], record["denominator"]) == ("1", "2")

    def test_phi_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--m", "0", "--u", "3", "--digits", "20",
            "--format", "json-lines",
        )
        assert code == 0
        (record,) = json_records(out)
        assert abs(Decimal(record["decimal"]) - Decimal("0.5")) < Decimal("1e-15")
        assert record["terms"] >= 1
        assert record["digits"] == 20


class TestVerify:
    def test_recurrence_suite(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "recurrence", "--kmax", "10",
            "--format", "json-lines",
        )
        assert code == 0 and err == ""
        (record,) = json_records(out)
        assert record["kind"] == "report"
        assert record["k"] == 10
        assert record["passed"] is True
        assert record["residual"] == "0"

    def test_expansion_suite_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "expansion", "--jmax", "8",
            "--digits", "20", "--format", "json-lines",
        )
        assert code == 0
        records = json_records(out)
        assert len(records) == 3
        for record in records:
            assert record["passed"] is True
            assert record["jmax"] == 8
            assert record["digits"] == 20
            assert isinstance(record["terms"], int)

    def test_abel_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "abel", "--digits", "15",
            "--format", "json-lines",
        )
        assert code == 0
        records = json_records(out)
        assert [r["k"] for r in records] == [1, 2]
        assert all(r["passed"] for r in records)

    def test_phi_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "phi", "--digits", "30",
            "--terms", "2000", "--format", "json-lines",
        )
        assert code == 0
        records = json_records(out)
        assert len(records) == 63 + 12
        assert all(r["passed"] for r in records)

    def test_all_is_run_suite_over_every_suite(self, capsys):
        knobs = {"kmax": 10, "digits": 15, "jmax": 8, "terms": 2000}
        flags = [f"--{name}={value}" for name, value in knobs.items()]
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", *flags)
        assert code == 0
        expected = []
        for name in SUITES:
            for report in run_suite(name, **knobs):
                params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
                expected.append(
                    f"[{'PASS' if report.passed else 'FAIL'}] {report.identity_name} "
                    f"({params}) residual={report.residual.rounded()} "
                    f"tolerance={report.tolerance.rounded()}"
                )
        assert out.splitlines() == expected
        # "all" is the CLI's loop over SUITES, not a suite
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("all")

    def test_tolerance_override_fails_and_reports(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "expansion", "--jmax", "6",
            "--digits", "15", "--tolerance", "1e-40", "--format", "json-lines",
        )
        assert code == 1
        records = json_records(out)
        assert all(r["passed"] is False for r in records)
        diagnostics = err.strip().splitlines()
        assert len(diagnostics) == len(records)
        for line in diagnostics:
            report = VerificationReport.from_line(line)
            assert report.identity_name == "cosine_series_rearrangement"
            assert not report.passed


class TestFormats:
    CASES = (
        ("zeta", "--kmax", "3", "--exact"),
        ("euler-poly", "--m", "4"),
        ("verify", "--suite", "abel", "--digits", "15"),
    )

    def test_json_and_csv_encode_identical_payloads(self, capsys):
        for case in self.CASES:
            _, json_out, _ = run_cli(capsys, *case, "--format", "json-lines")
            _, csv_out, _ = run_cli(capsys, *case, "--format", "csv")
            from_json = [normalize_json(r) for r in json_records(json_out)]
            from_csv = csv_records(csv_out)
            assert from_json == from_csv

    def test_byte_identical_reruns(self, capsys):
        for case in self.CASES:
            first = run_cli(capsys, *case, "--format", "json-lines")
            second = run_cli(capsys, *case, "--format", "json-lines")
            assert first == second

    def test_csv_header_always_full_vocabulary(self, capsys):
        _, out, _ = run_cli(capsys, "bernoulli", "--n", "0", "--format", "csv")
        assert out.splitlines()[0] == ",".join(FIELDS)


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "nope")[0] == 2
        assert run_cli(capsys, "zeta")[0] == 2
        assert run_cli(capsys, "zeta", "--k", "1", "--kmax", "2")[0] == 2
        assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 2
        assert run_cli(capsys, "bench", "--format", "csv")[0] == 2
        assert run_cli(capsys, "phi", "--m", "-1", "--u", "2", "--route", "taylor")[0] == 2

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--m", "2", "--u", "1/2")
        assert code == 2
        assert "error:" in err
        # a spaced negative fraction reaches the domain check too
        assert run_cli(capsys, "phi", "--m", "2", "--u", "-3/2")[2] == "error: series needs u > 1\n"

    def test_bad_inputs_exit_two_with_one_stderr_line(self, capsys):
        cases = (
            ("phi", "--m", "1", "--u", "1/0"),
            ("phi", "--m", "1", "--u", "abc"),
            ("euler-poly", "--m", "3", "--at", "2/0"),
            ("zeta", "--kmax", "0"),
            ("zeta", "--kmax", "-3"),
            ("zeta", "--k", "0", "--exact"),
            ("zeta", "--k", "abc", "--exact"),
            ("bench", "--kmax", "0"),
            ("bench", "--kmax", "-3"),
            ("verify", "--suite", "phi", "--tolerance", "nan"),
            ("verify", "--suite", "expansion", "--tolerance", "abc"),
            ("verify", "--suite", "expansion", "--tolerance", "inf"),
            ("verify", "--suite", "phi", "--tolerance", "-Infinity"),
            ("verify", "--suite", "expansion", "--tolerance", "sNaN"),
            # past the series work budget
            ("phi", "--m", "-2", "--u", "1.000000001", "--digits", "50"),
            ("verify", "--suite", "phi", "--digits", "12", "--terms", str(MAX_SERIES_TERMS + 1)),
            ("verify", "--suite", "phi", "--terms", "0"),
            ("phi", "--route", "taylor", "--m", "-1", "--u", "2"),
            ("phi", "--route", "series", "--m", "1", "--u", "3", "--digits", "9"),
        )
        for case in cases:
            code, out, err = run_cli(capsys, *case)
            assert code == 2, case
            assert out == "", case
            assert len(err.splitlines()) == 1 and "error:" in err, case
        # phi names the flag, as zeta and verify do
        for command in (("phi", "--m", "1", "--u", "3"), ("zeta", "--k", "1"), ("verify",)):
            digits = run_cli(capsys, *command, "--digits", "9")
            assert digits == (2, "", "error: digits must be >= 10\n"), command

    def test_terms_checked_before_any_series(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series ran before --terms was checked")

        monkeypatch.setattr(series_verifier, "phi_series", refuse)
        monkeypatch.setattr(series_verifier, "eta_partial", refuse)
        for terms, message in (
            ("0", "error: terms must be >= 1\n"),
            (str(MAX_SERIES_TERMS + 1),
             f"error: terms must be <= {MAX_SERIES_TERMS}, the series work budget\n"),
        ):
            assert run_cli(capsys, "verify", "--suite", "phi", "--terms", terms) == (2, "", message)

    def test_every_knob_checked_before_any_suite(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a suite ran before its knobs were checked")

        for name in ("recurrence_cross_check", "identity_check_expansion",
                     "abel_limit_check", "_phi_suite"):
            monkeypatch.setattr(series_verifier, name, refuse)
        cases = (
            (("--kmax", "300", "--digits", "5"), "error: digits must be >= 10\n"),
            (("--suite", "recurrence", "--digits", "9"), "error: digits must be >= 10\n"),
            (("--suite", "expansion", "--jmax", "0"), "error: jmax must be >= 3\n"),
            (("--suite", "abel", "--kmax", "0"), "error: kmax must be >= 1\n"),
        )
        for flags, message in cases:
            assert run_cli(capsys, "verify", *flags) == (2, "", message), flags

    def test_abel_past_the_budget_exits_two_before_any_sum(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("f_k was summed before the budget check")

        monkeypatch.setattr(series_verifier, "_reciprocal_power_sum", refuse)
        code, out, err = run_cli(capsys, "verify", "--suite", "abel", "--digits", "5000")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "over the budget" in err

    def test_negative_finite_tolerance_fails_every_overridden_check(self, capsys):
        argv = ("verify", "--suite", "expansion", "--jmax", "6", "--digits", "15")
        code, out, err = run_cli(capsys, *argv, "--tolerance=-1e-5", "--format", "json-lines")
        assert code == 1
        records = json_records(out)
        assert len(records) == 3
        assert all(r["passed"] is False for r in records)
        spaced = run_cli(capsys, *argv, "--tolerance", "-1e-5", "--format", "json-lines")
        assert spaced == (code, out, err)

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestBench:
    def test_plain_only_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kmax", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("k=1")
        assert lines[-1].startswith("total")
