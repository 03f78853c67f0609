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
input error (one line on stderr, no traceback), including a series that
would need more than MAX_SERIES_TERMS terms.
Every subcommand except bench (which prints timings) is deterministic:
identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from typing import Optional

from .euler_bernoulli import bernoulli, euler_polynomial, euler_polynomial_eval
from .numeric_core import HighPrecisionReal, round_significant
from .reports import VerificationReport
from .series_verifier import (
    MAX_SERIES_TERMS,
    abel_limit_check,
    eta_partial,
    identity_check_expansion,
    phi_coefficients,
    phi_series,
    phi_taylor_coeff,
)
from .zeta_recurrence import (
    ZetaEvenTable,
    recurrence_cross_check,
    zeta_even_decimal,
    zeta_even_ratio,
)

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

_EXPANSION_CASES = ((1, Fraction(3, 2)), (2, Fraction(2)), (3, Fraction(3, 2)))
_ABEL_DELTAS = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
_PHI_SAMPLE_US = (Fraction(3, 2), Fraction(2), Fraction(3))
_PHI_LIMIT_MS = (2, 3, 4, 6)


def _emit(records: list[dict], plain_lines: list[str], fmt: str, out) -> None:
    if fmt == "plain":
        for line in plain_lines:
            out.write(line + "\n")
        return
    if fmt == "json-lines":
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
        if args.m < 0:
            parser.error("--route taylor extracts Taylor coefficients; needs m >= 0")
        value = phi_taylor_coeff(args.m, u, args.m)
        records = [{"kind": "phi", "m": args.m, "u": str(u), **_rational_fields(value)}]
        lines = [f"phi_{args.m}({u}) = {value}"]
    else:
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


def _phi_limit_tolerance(m: int, delta: Fraction) -> Decimal:
    """Proven bound on |2(1-2^(1-m)) zeta(m) - phi_{-m}(1+delta)|.

    The difference is 2 sum (1-x^n)/n^m with x = 1/(1+delta); splitting
    at n ~ 1/eps gives 2*delta*(2 + delta + ln(1/delta)) for m = 2, and
    termwise 1-x^n <= n*eps gives 2*delta*(1 + 1/(m-2)) for m >= 3.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(delta.numerator) / Decimal(delta.denominator)
        if m == 2:
            return 2 * d * (2 + d + (1 / d).ln())
        return 2 * d * (1 + Decimal(1) / (m - 2))


def _phi_suite(
    digits: int, eta_terms: int, tolerance: Optional[Decimal]
) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for u in _PHI_SAMPLE_US:
        for m, exact in enumerate(phi_coefficients(u, 20)):
            evaluation = phi_series(m, u, digits)
            # the exact side must not be quantized: these values reach
            # ~1e8, where even 55 significant digits would inject more
            # absolute error than the series' own bound
            with localcontext() as ctx:
                ctx.prec = digits + 30
                exact_dec = Decimal(exact.numerator) / Decimal(exact.denominator)
                residual_dec = evaluation.value.value - exact_dec
            residual = HighPrecisionReal(residual_dec, digits)
            tol = (
                HighPrecisionReal(tolerance, 15)
                if tolerance is not None
                else evaluation.error_bound
            )
            reports.append(
                VerificationReport(
                    identity_name="phi_series_vs_coefficients",
                    parameters={
                        "m": m,
                        "u": u,
                        "precision": digits,
                        "terms": evaluation.terms_used,
                    },
                    lhs=evaluation.value,
                    rhs=exact,
                    residual=residual,
                    tolerance=tol,
                )
            )
    for m in _PHI_LIMIT_MS:
        factor = Fraction(2) * (1 - Fraction(1, 2 ** (m - 1)))
        if m % 2 == 0:
            zeta_m = Decimal(zeta_even_decimal(m // 2, digits + 5))
            with localcontext() as ctx:
                ctx.prec = digits + 5
                target_dec = (
                    Decimal(factor.numerator) / Decimal(factor.denominator) * zeta_m
                )
            target = HighPrecisionReal(target_dec, digits)
            target_bound = Decimal(10) ** (-digits)
        else:
            eta = eta_partial(m, eta_terms)
            target = HighPrecisionReal.from_int(-2) * eta.value
            target_bound = 2 * eta.error_bound.value
        for delta in _ABEL_DELTAS:
            evaluation = phi_series(-m, 1 + delta, digits)
            residual = evaluation.value - target
            tol_dec = (
                tolerance
                if tolerance is not None
                else _phi_limit_tolerance(m, delta)
                + evaluation.error_bound.value
                + target_bound
            )
            reports.append(
                VerificationReport(
                    identity_name="phi_negative_index_limit",
                    parameters={
                        "m": m,
                        "u": 1 + delta,
                        "precision": digits,
                        "terms": evaluation.terms_used,
                    },
                    lhs=evaluation.value,
                    rhs=target,
                    residual=residual,
                    tolerance=HighPrecisionReal(tol_dec, 15),
                )
            )
    return reports


def _cmd_verify(args, parser) -> int:
    suites = (
        ["recurrence", "expansion", "abel", "phi"]
        if args.suite == "all"
        else [args.suite]
    )
    reports: list[VerificationReport] = []
    for suite in suites:
        if suite == "recurrence":
            reports.append(recurrence_cross_check(args.kmax))
        elif suite == "expansion":
            for k, u in _EXPANSION_CASES:
                reports.append(
                    identity_check_expansion(
                        k, u, args.jmax, args.digits, tolerance=args.tolerance
                    )
                )
        elif suite == "abel":
            for k in (1, 2):
                reports.append(abel_limit_check(k, list(_ABEL_DELTAS), args.digits))
        else:
            reports.extend(_phi_suite(args.digits, args.terms, args.tolerance))
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

    p_verify = sub.add_parser("verify", parents=[shared], help="run identity-check suites")
    p_verify.add_argument(
        "--suite",
        choices=("recurrence", "expansion", "abel", "phi", "all"),
        default="all",
    )
    p_verify.add_argument("--kmax", type=int, default=50, help="recurrence cross-check depth")
    p_verify.add_argument("--digits", type=int, default=50, help="working precision")
    p_verify.add_argument("--jmax", type=int, default=25, help="expansion truncation order")
    p_verify.add_argument(
        "--terms",
        type=int,
        default=100000,
        help="alternating-sum length for odd-index limit targets "
        f"(at most {MAX_SERIES_TERMS}, the series work budget)",
    )
    p_verify.add_argument(
        "--tolerance",
        type=_finite_decimal,
        help="override the derived tolerances of the expansion and phi suites "
        "(finite decimal); recurrence and abel keep their intrinsic judgments",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", parents=[shared], help="time the recurrence table")
    p_bench.add_argument("--kmax", type=int, default=100)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
