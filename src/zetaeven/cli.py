"""Command-line front end: exact even-zeta values and identity checks.

Subcommands
-----------
zeta        exact ratio records or decimal values, single k or a table
bernoulli   one Bernoulli number
euler-poly  polynomial coefficients, optionally evaluated at a point
phi         one phi_m(u) value by the series or the exact Taylor route
verify      identity-check suites as machine-readable reports
bench       wall-clock time per recurrence table entry (plain text only)

Formats: plain (default, human), json-lines, csv. json-lines and csv
encode identical payloads over the fixed field vocabulary

    kind, k, m, n, u, numerator, denominator, decimal, digits, passed,
    residual, tolerance, terms, jmax

with absent fields omitted (json) or empty (csv). Exact rationals are
emitted as separate integer strings, never floats. For euler-poly the u
field carries the evaluation point of --at; report records map their
check's main size parameter onto k (e.g. the cross-check's k_max) and
their precision onto digits. Records go to stdout; diagnostics --
including full JSON report lines, with identity names and parameters,
for every failed check -- go to stderr.

Exit status: 0 success, 1 if any emitted report failed, 2 usage or
input error (one line on stderr, no traceback), including a series over
the work budget of series_verifier.
Every subcommand except bench (which prints timings) is deterministic:
identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import sys
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .euler_bernoulli import bernoulli, euler_polynomial, euler_polynomial_eval
from .reports import VerificationReport
from .series_verifier import SUITES, phi_series, phi_taylor_coeff, run_suite
from .zeta_recurrence import ZetaEvenTable, zeta_even_decimal, zeta_even_ratio

__all__ = ["main"]

FIELD_ORDER = (
    "kind",
    "k",
    "m",
    "n",
    "u",
    "numerator",
    "denominator",
    "decimal",
    "digits",
    "passed",
    "residual",
    "tolerance",
    "terms",
    "jmax",
)

_SUITE_KNOBS = ("kmax", "digits", "jmax", "tolerance")


def _emit(records: list[dict], plain_lines: list[str], fmt: str, out) -> None:
    if fmt == "plain":
        for line in plain_lines:
            out.write(line + "\n")
        return
    if fmt == "json-lines":
        import json  # deferred: only json output pays for this import

        for rec in records:
            ordered = {key: rec[key] for key in FIELD_ORDER if key in rec}
            out.write(json.dumps(ordered) + "\n")
        return
    import csv  # deferred: only csv output pays for this import

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELD_ORDER)
    for rec in records:
        writer.writerow([_csv_cell(rec.get(key)) for key in FIELD_ORDER])


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _rational_fields(value: Fraction) -> dict:
    return {"numerator": str(value.numerator), "denominator": str(value.denominator)}


def _report_record(report: VerificationReport) -> dict:
    """Map a report onto the fixed output vocabulary (names go to stderr)."""
    params = report.parameters
    rec = {"kind": "report"}
    if "k" in params:
        rec["k"] = params["k"]
    elif "k_max" in params:
        rec["k"] = params["k_max"]
    if "m" in params:
        rec["m"] = params["m"]
    if "u" in params:
        rec["u"] = params["u"]
    if "precision" in params:
        rec["digits"] = params["precision"]
    rec["passed"] = report.passed
    rec["residual"] = str(report.residual.rounded())
    rec["tolerance"] = str(report.tolerance.rounded())
    if "terms" in params:
        rec["terms"] = params["terms"]
    elif "lhs_terms" in params:
        rec["terms"] = params["lhs_terms"]
    if "jmax" in params:
        rec["jmax"] = params["jmax"]
    return rec


def _report_plain(report: VerificationReport) -> str:
    tag = "PASS" if report.passed else "FAIL"
    params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
    return (
        f"[{tag}] {report.identity_name} ({params}) "
        f"residual={report.residual.rounded()} tolerance={report.tolerance.rounded()}"
    )


def _poly_plain(m: int) -> str:
    poly = euler_polynomial(m)
    parts: list[str] = []
    for j in range(poly.degree, -1, -1):
        c = poly.coefficients[j]
        if c == 0:
            continue
        mono = "" if j == 0 else ("x" if j == 1 else f"x^{j}")
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return f"E_{m}(x) = " + (" ".join(parts) if parts else "0")


# ---------------------------------------------------------------- commands


def _cmd_zeta(args, parser) -> int:
    ks = range(1, args.kmax + 1) if args.kmax is not None else [args.k]
    records, lines = [], []
    for k in ks:
        if args.exact:
            ratio = zeta_even_ratio(k)
            records.append({"kind": "ratio", "k": k, **_rational_fields(ratio)})
            lines.append(f"zeta({2 * k}) = pi^{2 * k} * {ratio}")
        else:
            value = zeta_even_decimal(k, args.digits)
            records.append(
                {"kind": "decimal", "k": k, "digits": args.digits, "decimal": value}
            )
            lines.append(f"zeta({2 * k}) = {value}  ({args.digits} digits)")
    _emit(records, lines, args.format, sys.stdout)
    return 0


def _cmd_bernoulli(args, parser) -> int:
    value = bernoulli(args.n)
    records = [{"kind": "bernoulli", "n": args.n, **_rational_fields(value)}]
    _emit(records, [f"B_{args.n} = {value}"], args.format, sys.stdout)
    return 0


def _cmd_euler_poly(args, parser) -> int:
    poly = euler_polynomial(args.m)
    if args.at is not None:
        point = args.at
        value = euler_polynomial_eval(poly, point)
        records = [
            {"kind": "euler_poly", "m": args.m, "u": str(point), **_rational_fields(value)}
        ]
        lines = [f"E_{args.m}({point}) = {value}"]
    else:
        records = [
            {"kind": "euler_poly", "m": args.m, "n": j, **_rational_fields(c)}
            for j, c in enumerate(poly.coefficients)
        ]
        lines = [_poly_plain(args.m)]
    _emit(records, lines, args.format, sys.stdout)
    return 0


def _cmd_phi(args, parser) -> int:
    u = args.u
    if args.route == "taylor":
        value = phi_taylor_coeff(args.m, u)
        records = [{"kind": "phi", "m": args.m, "u": str(u), **_rational_fields(value)}]
        lines = [f"phi_{args.m}({u}) = {value}"]
    else:
        if args.digits < 10:
            raise ValueError("digits must be >= 10")
        evaluation = phi_series(args.m, u, args.digits)
        records = [
            {
                "kind": "phi",
                "m": args.m,
                "u": str(u),
                "decimal": str(evaluation.value.rounded()),
                "digits": args.digits,
                "terms": evaluation.terms_used,
            }
        ]
        lines = [
            f"phi_{args.m}({u}) = {evaluation.value.rounded()}  "
            f"(+/- {evaluation.error_bound.rounded()}, {evaluation.terms_used} terms)"
        ]
    _emit(records, lines, args.format, sys.stdout)
    return 0


def _cmd_verify(args, parser) -> int:
    knobs = {name: getattr(args, name) for name in _SUITE_KNOBS if name in args}
    names = SUITES if args.suite == "all" else (args.suite,)
    reports = [report for name in names for report in run_suite(name, **knobs)]
    records = [_report_record(r) for r in reports]
    lines = [_report_plain(r) for r in reports]
    _emit(records, lines, args.format, sys.stdout)
    failed = [r for r in reports if not r.passed]
    for report in failed:
        print(report.to_line(), file=sys.stderr)
    return 1 if failed else 0


def _cmd_bench(args, parser) -> int:
    if args.format != "plain":
        parser.error("bench prints wall-clock timings; plain format only")
    table = ZetaEvenTable()
    total = 0.0
    for k in range(1, args.kmax + 1):
        start = time.perf_counter()
        ratio = table.ratio(k)
        elapsed = time.perf_counter() - start
        total += elapsed
        size = len(str(ratio.numerator)) + len(str(ratio.denominator))
        print(f"k={k:<4d} {elapsed * 1000:10.3f} ms   ratio digits {size}")
    print(f"total {total * 1000:.3f} ms for k_max={args.kmax}")
    return 0


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """Usage errors as one stderr line (no usage dump), exit status 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _finite_decimal(text: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from None
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetaeven",
        description="Exact even zeta values and series-identity verification.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("plain", "json-lines", "csv"),
        default="plain",
        help="output format (default plain)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeta = sub.add_parser("zeta", parents=[shared], help="zeta(2k) exactly or as a decimal")
    which = p_zeta.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=_positive_int, help="single index k")
    which.add_argument("--kmax", type=_positive_int, help="table for k = 1..kmax")
    how = p_zeta.add_mutually_exclusive_group()
    how.add_argument("--exact", action="store_true", help="emit the ratio zeta(2k)/pi^(2k)")
    how.add_argument("--digits", type=int, default=50, help="decimal significant digits (default 50)")
    p_zeta.set_defaults(func=_cmd_zeta)

    p_bern = sub.add_parser("bernoulli", parents=[shared], help="Bernoulli number B_n")
    p_bern.add_argument("--n", type=int, required=True)
    p_bern.set_defaults(func=_cmd_bernoulli)

    p_euler = sub.add_parser("euler-poly", parents=[shared], help="Euler polynomial E_m")
    p_euler.add_argument("--m", type=int, required=True)
    p_euler.add_argument("--at", type=_rational, help="evaluate at this rational point instead of listing coefficients")
    p_euler.set_defaults(func=_cmd_euler_poly)

    p_phi = sub.add_parser("phi", parents=[shared], help="phi_m(u) by series or Taylor route")
    p_phi.add_argument("--m", type=int, required=True)
    p_phi.add_argument("--u", type=_rational, required=True, help="rational u, e.g. 3/2")
    p_phi.add_argument("--route", choices=("series", "taylor"), default="series")
    p_phi.add_argument("--digits", type=int, default=50)
    p_phi.set_defaults(func=_cmd_phi)

    # flags left out are left out of the namespace, so run_suite's
    # defaults apply
    p_verify = sub.add_parser(
        "verify",
        parents=[shared],
        help="run identity-check suites",
        argument_default=argparse.SUPPRESS,
    )
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p_verify.add_argument("--kmax", type=int, help="recurrence cross-check depth")
    p_verify.add_argument("--digits", type=int, help="working precision")
    p_verify.add_argument("--jmax", type=int, help="expansion truncation order")
    p_verify.add_argument(
        "--tolerance",
        type=_finite_decimal,
        help="override the derived tolerances of the expansion and phi suites "
        "(finite decimal); recurrence and abel keep their intrinsic judgments",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", parents=[shared], help="time the recurrence table")
    p_bench.add_argument("--kmax", type=_positive_int, default=100)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """'--at -3/2' as '--at=-3/2', and so for --u and --tolerance: argparse
    takes a value starting with '-' only if it looks like '-3' or '-1.5'."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in ("--at", "--u", "--tolerance") and token.startswith("-"):
            token = joined.pop() + "=" + token
        joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    # exact values print at any size: lift the int <-> str digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
