import csv
import io
import json
import os
import subprocess
import sys
import time
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import zetaeven
from zetaeven import cli, euler_bernoulli, numeric_core, series_verifier, zeta_recurrence
from zetaeven.euler_bernoulli import euler_polynomial
from zetaeven.numeric_core import round_significant
from zetaeven.reports import VerificationReport, json_line
from zetaeven.series_verifier import SUITES, phi_coefficients, phi_series, run_suite

from test_series_loops import round_exact

FIELDS = list(cli.FIELD_ORDER)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
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

    def test_euler_poly_builds_its_polynomial_once(self, capsys, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return euler_polynomial(m)

        # the handler imports its layer's function when it runs
        monkeypatch.setattr(euler_bernoulli, "euler_polynomial", counted)
        code, out, _ = run_cli(capsys, "euler-poly", "--m", "9")
        assert code == 0 and out.startswith("E_9(x) = x^9 - 9/2*x^8")
        assert calls == [9]

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

    def test_gives_back_the_callers_int_str_limit(self, capsys, default_int_str_limit):
        # main lifts the limit to print exact values of any size, and only
        # for its own call: a process that calls it keeps its own setting
        if default_int_str_limit is None:
            pytest.skip("this interpreter has no int <-> str digit limit")
        big = "1" + "0" * 5000
        runs = (
            (("euler-poly", "--m", "1", "--at", "1/" + big), 0),  # prints 5000 digits
            (("zeta", "--k", "0", "--exact"), 2),  # refused by the handler
            (("zeta", "--bogus"), 2),  # refused by the parser
        )
        for limit in (default_int_str_limit, 5000, 0):
            sys.set_int_max_str_digits(limit)
            for argv, code in runs:
                assert run_cli(capsys, *argv)[0] == code, argv
                assert sys.get_int_max_str_digits() == limit, (limit, argv)
        sys.set_int_max_str_digits(default_int_str_limit)
        assert run_cli(capsys, *runs[0][0])[1].endswith(f"/{big}\n")

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
            "--format", "json-lines",
        )
        assert code == 0
        records = json_records(out)
        assert len(records) == 63 + 12
        assert all(r["passed"] for r in records)

    def test_rounding_never_passes_a_limit_residual_past_its_tolerance(self, capsys):
        # the m = 2, u = 101/100 limit residual is -0.01374466510853923123423
        # 03275191412044551692135690493530...: 3.5e-53 past this tolerance,
        # which is that residual rounded to 50 digits
        tolerance = "0.013744665108539231234230327519141204455169213569049"
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "phi", "--tolerance", tolerance,
            "--format", "json-lines",
        )
        assert code == 1
        (record,) = [r for r in json_records(out) if r["m"] == 2 and r["u"] == "101/100"]
        assert record["passed"] is False

    def test_all_is_run_suite_over_every_suite(self, capsys):
        knobs = {"kmax": 10, "digits": 15, "jmax": 8}
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
            ("phi", "--m", "2", "--u", "1.000000001", "--digits", "10000"),
            ("phi", "--m", "-2", "--u", "1.000000001", "--digits", "10000"),
            ("phi", "--m", "1000", "--u", "3", "--digits", "50"),
            # the alternating-sum length is a suite constant, not a flag
            ("verify", "--suite", "phi", "--digits", "12", "--terms", "3000001"),
            ("verify", "--suite", "phi", "--terms", "0"),
            ("verify", "--terms=7"),
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
        # nor before the zeta target and its pi, which come after the sums
        def refuse(*args):
            raise AssertionError("f_k, zeta(2k) or pi was computed before the budget check")

        monkeypatch.setattr(series_verifier, "_cvz_sum", refuse)
        monkeypatch.setattr(zeta_recurrence, "_zeta_even_ball", refuse)
        monkeypatch.setattr(zeta_recurrence, "_pi", refuse)
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

    def test_tolerance_prints_as_given_across_the_exponent_range(self, capsys):
        argv = ("verify", "--suite", "expansion", "--jmax", "3", "--digits", "10")
        # past the default context's exponents (+/-999999), within the full range
        for text, status in (
            ("1e1000000", 0),
            ("1e-1000020", 1),
            ("1e999999999999999998", 0),
            ("-1e-999999999999999999", 1),
        ):
            code, out, err = run_cli(capsys, *argv, "--tolerance", text)
            assert code == status, text
            printed = {line.rsplit(" tolerance=", 1)[1] for line in out.splitlines()}
            assert printed == {str(Decimal(text))}, text
            assert len(err.splitlines()) == (3 if status else 0), text
        # beyond it rounding to 15 digits would overflow or flush to zero
        for text in ("1e999999999999999999", "1e-1000000000000000000", "0e-1000000000000000000"):
            message = f"zetaeven verify: error: argument --tolerance: exponent out of range: {text!r}\n"
            assert run_cli(capsys, *argv, "--tolerance", text) == (2, "", message), text

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
        # 1/6, 1/90 and 1/945: the digits of numerator and denominator
        assert [line.split()[-1] for line in lines[:3]] == ["2", "3", "4"]


def parse_phi_line(line):
    """value, bound and terms of a plain ``phi --route series`` line."""
    _, _, tail = line.partition(" = ")
    value, _, rest = tail.partition("  (+/- ")
    bound, _, terms = rest.rstrip(")").partition(", ")
    return Decimal(value), Decimal(bound), int(terms.split()[0])


class TestPhiNearOne:
    def test_probe_answers_in_a_fresh_child_within_its_bound(self):
        mpmath = pytest.importorskip("mpmath")
        src = Path(zetaeven.__file__).resolve().parents[1]
        argv = ("phi", "--m", "-2", "--u", "1.000000001", "--digits", "50")
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "zetaeven", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == 0 and result.stderr == ""
        assert elapsed < 1.0
        value, bound, terms = parse_phi_line(result.stdout.strip())
        assert terms < 100
        with mpmath.workdps(90):
            u = mpmath.mpf(1000000001) / 1000000000
            true = -2 * mpmath.polylog(2, -1 / u)
            # the printed bound plus half an ulp of the 50 printed digits
            half_ulp = 5 * mpmath.mpf(10) ** (value.adjusted() - 50)
            assert abs(mpmath.mpf(str(value)) - true) <= mpmath.mpf(str(bound)) + half_ulp


ROUNDING_US = ("11/10", "3/2", "2", "3", "17/5", "1001/1000", "7")


def correctly_rounded(mpmath, m, u, digits):
    u = Fraction(u)
    with mpmath.workdps(digits + 40):
        true = -2 * mpmath.polylog(-m, -mpmath.mpf(u.denominator) / u.numerator)
        closer = mpmath.nstr(true, digits + 30, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)
    return round_significant(Decimal(closer), digits)


class TestPhiCorrectRounding:
    """phi --route series prints the correctly rounded decimal, for every m."""

    def test_grid(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        for m in range(-7, 0):
            for u in ROUNDING_US:
                for digits in ("10", "20", "50"):
                    code, out, _ = run_cli(capsys, "phi", "--m", str(m), "--u", u, "--digits", digits)
                    assert code == 0
                    value, _, _ = parse_phi_line(out.strip())
                    assert value == correctly_rounded(mpmath, m, u, int(digits)), (m, u, digits)

    def test_open_rounding_is_retried_with_more_digits(self, capsys, monkeypatch):
        # one guard digit leaves the rounding open in many cases: each is
        # summed again with twice the guard digits until it is decided
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(numeric_core, "_GUARD", 1)
        calls = []
        kernel = series_verifier._cvz_decimal

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(series_verifier, "_cvz_decimal", counting)
        cases = [(m, u) for m in range(-7, 0) for u in ROUNDING_US]
        for m, u in cases:
            code, out, _ = run_cli(capsys, "phi", "--m", str(m), "--u", u, "--digits", "20")
            assert code == 0
            assert parse_phi_line(out.strip())[0] == correctly_rounded(mpmath, m, u, 20), (m, u)
        assert len(calls) > len(cases)

    @staticmethod
    def nonnegative_mismatches(capsys, digits_list):
        """The m = 0..11 cases of the grid whose printed decimal is not the
        exact phi_m(u) rounded correctly."""
        exact = {u: phi_coefficients(Fraction(u), 11) for u in ROUNDING_US}
        mismatches = []
        for m in range(12):
            for u in ROUNDING_US:
                for digits in digits_list:
                    code, out, _ = run_cli(capsys, "phi", "--m", str(m), "--u", u, "--digits", digits)
                    assert code == 0
                    value, _, _ = parse_phi_line(out.strip())
                    if value != round_exact(exact[u][m], int(digits)):
                        mismatches.append((m, u, digits))
        return mismatches

    def test_nonnegative_grid_against_the_exact_values(self, capsys):
        # 12 m x 7 u x 3 digits = 252 cases, against exact rationals
        assert self.nonnegative_mismatches(capsys, ("10", "20", "50")) == []

    def test_planted_truncation_fails(self, capsys, monkeypatch):
        # a renderer that truncates instead of rounding prints the last
        # digit one too low in about half the cases
        def truncate(value, digits):
            with localcontext() as ctx:
                ctx.prec = digits
                ctx.rounding = ROUND_DOWN
                return +value

        monkeypatch.setattr(numeric_core, "round_significant", truncate)
        assert len(self.nonnegative_mismatches(capsys, ("10",))) >= 20

    def test_a_rounding_tie_ends_at_the_retry_cap(self, capsys, monkeypatch):
        # phi_0(u) = 2/(1+u) = 0.12345678905 is a tie at 10 digits: every
        # ball holds it, so the guard doubles to its cap (10, 20, 40, 80)
        tie = Fraction(12345678905, 10**11)
        u = 2 / tie - 1
        passes = []
        kernel = series_verifier._cvz_decimal
        monkeypatch.setattr(
            series_verifier, "_cvz_decimal", lambda *args: passes.append(args[3]) or kernel(*args)
        )
        evaluation = phi_series(0, u, 10)
        assert [digits - passes[0] for digits in passes] == [0, 10, 30, 70]
        assert abs(Fraction(evaluation.value.value) - tie) <= Fraction(evaluation.error_bound.value)
        code, out, _ = run_cli(capsys, "phi", "--m", "0", "--u", str(u), "--digits", "10")
        value, bound, _ = parse_phi_line(out.strip())
        assert code == 0
        assert value == Decimal("0.1234567890")  # the tie, rounded to the even digit
        # the printed bound plus half an ulp of the 10 printed digits
        assert abs(Fraction(value) - tie) <= Fraction(bound) + Fraction(5, 10**11)

    def test_exact_ties_round_half_to_even(self, capsys):
        # phi_m(u), m >= 0, is rational; where it is a decimal of d + 1
        # significant digits ending in 5, it sits exactly on the tie at d
        # digits, which no guard decides. It prints the exact value rounded
        # half to even: phi_14(3) = -1268610513/262144 =
        # -4839.365055084228515625 is -4839.36505508422851562 at 21 digits.
        ties = []
        for u in ("3", "7", "15", "19", "31", "3/2", "5/3", "13/7"):
            for m, exact in enumerate(phi_coefficients(Fraction(u), 30)):
                for digits in range(10, 60):
                    wider = round_exact(exact, digits + 1)
                    if wider == exact and wider.as_tuple().digits[-1] == 5:
                        ties.append((u, m, digits, round_exact(exact, digits)))
        assert len(ties) >= 60 and ("3", 14, 21, Decimal("-4839.36505508422851562")) in ties
        for u, m, digits, want in ties:
            code, out, _ = run_cli(capsys, "phi", "--m", str(m), "--u", u, "--digits", str(digits))
            assert code == 0
            assert parse_phi_line(out.strip())[0] == want, (u, m, digits)

    def test_planted_undecided_rounding(self, capsys, monkeypatch):
        # with Ziv's test planted to never decide, m >= 0 prints the exact
        # phi_m(u) rounded correctly, and m < 0 exits 2 with one line
        monkeypatch.setattr(numeric_core, "_rounds_alike", lambda *args: False)
        for u in ROUNDING_US:
            exact = phi_coefficients(Fraction(u), 7)
            for m in range(8):
                code, out, _ = run_cli(capsys, "phi", "--m", str(m), "--u", u, "--digits", "20")
                assert code == 0
                assert parse_phi_line(out.strip())[0] == round_exact(exact[m], 20), (m, u)
        code, out, err = run_cli(capsys, "phi", "--m", "-2", "--u", "3", "--digits", "20")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "phi_-2(3) to 20 digits: its rounding is not decided at 80 guard digits" in err


class TestParser:
    """The argv parser reads cli.COMMANDS and keeps argparse's rules."""

    # argv, the handler argument to look at, its parsed value
    PARSED = (
        # both value forms
        (("zeta", "--k", "3"), "k", 3),
        (("zeta", "--k=3"), "k", 3),
        (("verify", "--suite=abel"), "suite", "abel"),
        # the token after a value-taking flag is its value, '-' or not
        (("phi", "--m", "-7", "--u", "2"), "m", -7),
        (("phi", "--m=-7", "--u", "2"), "m", -7),
        (("phi", "--m", "1", "--u", "-3/2"), "u", Fraction(-3, 2)),
        (("euler-poly", "--m", "3", "--at", "-3/2"), "at", Fraction(-3, 2)),
        (("verify", "--tolerance", "-1e-5"), "tolerance", Decimal("-1e-5")),
        (("verify", "--tolerance=-1e-5"), "tolerance", Decimal("-1e-5")),
        # unique prefixes abbreviate; an exact name beats a prefix
        (("zeta", "--dig", "20", "--k", "1"), "digits", 20),
        (("zeta", "--k", "1"), "kmax", None),
        (("zeta", "--km", "4"), "kmax", 4),
        (("zeta", "--k", "1", "--e"), "exact", True),
        (("verify", "--tol", "1e-9"), "tolerance", Decimal("1e-9")),
        # a repeated flag keeps its last value
        (("zeta", "--k", "2", "--k", "5"), "k", 5),
        (("phi", "--m", "1", "--u", "3", "--route", "taylor", "--route", "series"), "route", "series"),
        # defaults come from the table; a switch left out is False
        (("zeta", "--k", "2"), "digits", 50),
        (("zeta", "--k", "2"), "exact", False),
        (("zeta", "--k", "2"), "fmt", "plain"),
        (("bench",), "kmax", 100),
        (("verify",), "suite", "all"),
        (("verify",), "digits", None),
    )

    # argv, the whole stderr line
    USAGE_ERRORS = (
        ((), "zetaeven: error: the following arguments are required: command"),
        (("nope",), "zetaeven: error: argument command: invalid choice: 'nope' (choose from "
                    "'zeta', 'bernoulli', 'euler-poly', 'phi', 'verify', 'bench')"),
        (("--version",), "zetaeven: error: unrecognized arguments: --version"),
        (("zeta", "--exact"), "zetaeven zeta: error: one of the arguments --k --kmax is required"),
        (("phi", "--m", "1"), "zetaeven phi: error: the following arguments are required: --u"),
        (("bernoulli",), "zetaeven bernoulli: error: the following arguments are required: --n"),
        (("zeta", "--k", "1", "--kmax", "2"),
         "zetaeven zeta: error: argument --kmax: not allowed with argument --k"),
        (("zeta", "--kmax", "2", "--k", "1"),
         "zetaeven zeta: error: argument --k: not allowed with argument --kmax"),
        (("zeta", "--k", "1", "--exact", "--digits", "20"),
         "zetaeven zeta: error: argument --digits: not allowed with argument --exact"),
        (("zeta", "--k", "0", "--exact"), "zetaeven zeta: error: argument --k: must be >= 1: '0'"),
        (("zeta", "--k", "abc"), "zetaeven zeta: error: argument --k: not an integer: 'abc'"),
        (("zeta", "--k", "--exact"), "zetaeven zeta: error: argument --k: not an integer: '--exact'"),
        (("phi", "--m", "1", "--u", "1/0"),
         "zetaeven phi: error: argument --u: not a rational number: '1/0'"),
        (("verify", "--tolerance", "nan"), "zetaeven verify: error: argument --tolerance: must be finite: 'nan'"),
        (("verify", "--suite", "bogus"),
         "zetaeven verify: error: argument --suite: invalid choice: 'bogus' (choose from "
         "'recurrence', 'expansion', 'abel', 'phi', 'all')"),
        (("zeta", "--k", "1", "--format", "xml"),
         "zetaeven zeta: error: argument --format: invalid choice: 'xml' (choose from "
         "'plain', 'json-lines', 'csv')"),
        (("zeta", "--k"), "zetaeven zeta: error: argument --k: expected one argument"),
        (("zeta", "--k", "1", "--exact=yes"),
         "zetaeven zeta: error: argument --exact: ignored explicit argument 'yes'"),
        (("zeta", "--k", "1", "--kilo", "3"), "zetaeven zeta: error: unrecognized arguments: --kilo"),
        (("zeta", "--k", "1", "-k"), "zetaeven zeta: error: unrecognized arguments: -k"),
        (("zeta", "--k", "1", "extra"), "zetaeven zeta: error: unrecognized arguments: extra"),
        (("verify", "--terms=7"), "zetaeven verify: error: unrecognized arguments: --terms"),
        # a domain error of the handler, like every other
        (("bench", "--format", "csv"), "error: bench prints wall-clock timings; plain format only"),
    )

    def test_values(self):
        for argv, dest, value in self.PARSED:
            handler, arguments = cli._parse(list(argv))
            assert handler is cli.COMMANDS[argv[0]][0], argv
            assert arguments[dest] == value, argv
            assert type(arguments[dest]) is type(value), argv

    # the shortest argv each command takes
    MINIMAL = {
        "zeta": ("--k", "1"),
        "bernoulli": ("--n", "2"),
        "euler-poly": ("--m", "3"),
        "phi": ("--m", "1", "--u", "3"),
        "verify": (),
        "bench": (),
    }

    def test_every_flag_reaches_its_handler(self):
        assert list(self.MINIMAL) == list(cli.COMMANDS)
        for name, tail in self.MINIMAL.items():
            handler, _, flags, _, _ = cli.COMMANDS[name]
            parsed, arguments = cli._parse([name, *tail])
            assert parsed is handler
            assert list(arguments) == [dest for _, dest, _, _, _ in flags], name
            code = handler.__code__
            assert set(code.co_varnames[: code.co_argcount]) <= set(arguments), name

    def test_usage_errors_exit_two_with_one_stderr_line(self, capsys):
        for argv, line in self.USAGE_ERRORS:
            assert run_cli(capsys, *argv) == (2, "", line + "\n"), argv

    def test_ambiguous_prefix(self, capsys, monkeypatch):
        # no two flags of today's table share a prefix that is not itself
        # a flag, so plant one: --km now starts --kmax and --kmin
        handler, summary, flags, required, exclusive = cli.COMMANDS["zeta"]
        kmin = ("--kmin", "kmin", cli._int, None, "planted")
        monkeypatch.setitem(cli.COMMANDS, "zeta", (handler, summary, (*flags, kmin), required, exclusive))
        assert run_cli(capsys, "zeta", "--km", "3") == (
            2, "", "zetaeven zeta: error: ambiguous option: --km could match --kmax, --kmin\n"
        )
        assert cli._parse(["zeta", "--kmin", "3", "--k", "1"])[1]["kmin"] == 3

    def test_help_lists_every_command_and_flag(self, capsys):
        for argv in (("--help",), ("-h",), ("--he",)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            for name, (_, summary, flags, _, _) in cli.COMMANDS.items():
                assert f"{name}: {summary}" in out
                for flag, _, _, _, text in flags:
                    text = text() if callable(text) else text  # verify's suite names
                    assert any(line.split()[:1] == [flag] and text in line
                               for line in out.splitlines()), (name, flag)

    def test_help_after_each_command(self, capsys):
        for name, (_, summary, flags, _, _) in cli.COMMANDS.items():
            for argv in ((name, "--help"), (name, "-h"), (name, "--format", "csv", "--help")):
                code, out, err = run_cli(capsys, *argv)
                assert (code, err) == (0, ""), argv
                assert f"{name}: {summary}" in out
                assert all(flag in out for flag, *_ in flags)
                other = next(n for n in cli.COMMANDS if n != name)
                assert f"{other}: " not in out

    def test_verify_passes_only_the_knobs_given(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            series_verifier, "run_suite", lambda name, **knobs: calls.append((name, knobs)) or []
        )
        assert run_cli(capsys, "verify", "--suite", "abel", "--dig", "20") == (0, "", "")
        assert run_cli(capsys, "verify", "--suite", "phi", "--tolerance=-1e-5", "--kmax", "3") == (0, "", "")
        assert run_cli(capsys, "verify", "--suite", "recurrence") == (0, "", "")
        assert calls == [
            ("abel", {"digits": 20}),
            ("phi", {"kmax": 3, "tolerance": Decimal("-1e-5")}),
            ("recurrence", {}),
        ]


def emitted_json(records):
    out = io.StringIO()
    cli._emit(records, [], "json-lines", out)
    return out.getvalue()


def dumps_sorted(record):
    return json.dumps(record, sort_keys=True, separators=(", ", ": "))


class TestJsonWriter:
    """json-lines records and report lines are written as json.dumps writes them."""

    def test_every_golden_record(self):
        golden = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())
        lines = [
            line
            for entry in golden
            if "json-lines" in entry["argv"]
            for line in entry["stdout"]
            if line
        ]
        assert len(lines) > 90
        for line in lines:
            record = json.loads(line)
            assert json_line(record) == json.dumps(record) == line
            # _emit puts the fields in FIELD_ORDER whatever order they come in
            shuffled = dict(reversed(record.items()))
            assert emitted_json([shuffled]) == line + "\n"

    def test_adversarial_values(self):
        strings = (
            '"', "\\", 'say "hi" \\ bye', "".join(map(chr, range(32))), "\x7f",
            "π ≈ 3.14159, ζ(2) = π²/6", "  ", "\U0001d701 outside the BMP",
            "\ud800 lone surrogate", "", "</script>",
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            scalars = (*strings, 10**100_000, -(10**100_000), 0, -7, True, False)
            for value in scalars:
                for key in ("kind", "k", "passed", "jmax"):
                    record = {key: value}
                    assert json_line(record) == json.dumps(record), (key, value)
                    assert emitted_json([record]) == json.dumps(record) + "\n", (key, value)
            full = dict(zip(cli.FIELD_ORDER, (*strings, 10**100_000, True, False)))
            assert json_line(full) == emitted_json([full])[:-1] == json.dumps(full)
            # report lines nest a mapping, whose keys are arbitrary text too
            nested = {"parameters": dict(zip(strings, reversed(scalars))), "passed": False}
            assert json_line(nested) == json.dumps(nested)
            assert json_line({"parameters": {}}) == json.dumps({"parameters": {}})
        finally:
            sys.set_int_max_str_digits(limit)

    def test_field_order_and_unknown_types(self):
        record = {"denominator": "6", "kind": "ratio", "extra": "dropped", "k": 1}
        assert emitted_json([record]) == '{"kind": "ratio", "k": 1, "denominator": "6"}\n'
        assert json_line(record) == '{"denominator": "6", "kind": "ratio", "extra": "dropped", "k": 1}'
        for value in (1.5, Fraction(1, 3), Decimal("0.1"), None, ["1"], ("1",)):
            with pytest.raises(TypeError):
                json_line({"decimal": value})
            with pytest.raises(TypeError):
                json_line({"parameters": {"u": value}})
        with pytest.raises(TypeError):
            json_line({1: "non-string key"})

    @pytest.mark.parametrize("digits", [15, 50])
    def test_report_lines_are_json_dumps_with_sorted_keys(self, digits):
        reports = [report for name in SUITES for report in run_suite(name, digits=digits)]
        failing = run_suite("expansion", digits=15, jmax=6, tolerance=Decimal("1e-40"))
        assert reports and failing and not any(r.passed for r in failing)
        # a decimal string overrides as its Decimal does, in both suites that take one
        for name in ("expansion", "phi"):
            as_string = run_suite(name, digits=15, jmax=6, tolerance="1e-40")
            assert as_string == run_suite(name, digits=15, jmax=6, tolerance=Decimal("1e-40"))
        for report in (*reports, *failing):
            record = {
                "identity": report.identity_name,
                "parameters": report.parameters,
                "lhs": report.lhs,
                "rhs": report.rhs,
                "residual": str(report.residual.value),
                "residual_digits": report.residual.precision_digits,
                "tolerance": str(report.tolerance.value),
                "tolerance_digits": report.tolerance.precision_digits,
                "passed": report.passed,
            }
            assert report.to_line() == dumps_sorted(record), report.identity_name

    def test_failed_verify_writes_report_lines_without_json(self):
        # -S keeps site hooks from importing json and masking an import
        src = Path(zetaeven.__file__).resolve().parents[1]
        argv = ["verify", "--suite", "expansion", "--jmax", "6", "--digits", "15",
                "--tolerance", "1e-40"]
        code = (
            "import sys, zetaeven.cli\n"
            f"status = zetaeven.cli.main({argv!r})\n"
            "print(status, 'json' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.stdout.splitlines()[-1] == "1 False"
        lines = result.stderr.splitlines()
        assert len(lines) == result.stdout.count("[FAIL]") > 0
        for line in lines:
            assert not VerificationReport.from_line(line).passed
            assert line == dumps_sorted(json.loads(line))
