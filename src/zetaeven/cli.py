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

Flags come from one table, COMMANDS, which the parser and the --help
text both read. A flag takes its value as ``--flag value`` or
``--flag=value``; the token after a value-taking flag is its value even
when it starts with '-' (``--u -3/2``). Any unique prefix abbreviates a
flag (``--dig`` for ``--digits``), an exact name beats a prefix (``--k``
against ``--kmax``), and a repeated flag keeps its last value.

Exit status: 0 success (and --help), 1 if any emitted report failed, 2
usage or input error (one line on stderr, no traceback), including a
series over the work budget of series_verifier.
Every subcommand except bench (which prints timings) is deterministic:
identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import sys
import time
from decimal import MAX_EMAX, MIN_EMIN, Decimal, InvalidOperation
from fractions import Fraction

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


def _emit(records: list[dict], plain_lines: list[str], fmt: str, out) -> None:
    if fmt == "plain":
        for line in plain_lines:
            out.write(line + "\n")
        return
    if fmt == "json-lines":
        from .reports import json_line

        for rec in records:
            out.write(json_line({key: rec[key] for key in FIELD_ORDER if key in rec}) + "\n")
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


# report parameters whose output field has another name
_REPORT_FIELDS = {"k_max": "k", "precision": "digits", "lhs_terms": "terms"}


def _report_record(report) -> dict:
    """Map a VerificationReport onto the fixed output vocabulary (names go to stderr).

    Parameters outside FIELD_ORDER stay in the record; ``_emit`` drops them.
    """
    rec = {_REPORT_FIELDS.get(name, name): value for name, value in report.parameters.items()}
    rec["kind"] = "report"
    rec["passed"] = report.passed
    rec["residual"] = str(report.residual.rounded())
    rec["tolerance"] = str(report.tolerance.rounded())
    return rec


def _report_plain(report) -> str:
    """One plain line for a VerificationReport."""
    tag = "PASS" if report.passed else "FAIL"
    params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
    return (
        f"[{tag}] {report.identity_name} ({params}) "
        f"residual={report.residual.rounded()} tolerance={report.tolerance.rounded()}"
    )


def _poly_plain(poly) -> str:
    """An EulerPolynomial written out, highest power first."""
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
    return f"E_{poly.degree}(x) = " + (" ".join(parts) if parts else "0")




# ---------------------------------------------------------------- commands


def _cmd_zeta(k, kmax, exact, digits, fmt) -> int:
    from .zeta_recurrence import zeta_even_decimal, zeta_even_ratio

    ks = range(1, kmax + 1) if kmax is not None else [k]
    records, lines = [], []
    for k in ks:
        if exact:
            ratio = zeta_even_ratio(k)
            records.append({"kind": "ratio", "k": k, **_rational_fields(ratio)})
            lines.append(f"zeta({2 * k}) = pi^{2 * k} * {ratio}")
        else:
            value = zeta_even_decimal(k, digits)
            records.append({"kind": "decimal", "k": k, "digits": digits, "decimal": value})
            lines.append(f"zeta({2 * k}) = {value}  ({digits} digits)")
    _emit(records, lines, fmt, sys.stdout)
    return 0


def _cmd_bernoulli(n, fmt) -> int:
    from .euler_bernoulli import bernoulli

    value = bernoulli(n)
    records = [{"kind": "bernoulli", "n": n, **_rational_fields(value)}]
    _emit(records, [f"B_{n} = {value}"], fmt, sys.stdout)
    return 0


def _cmd_euler_poly(m, at, fmt) -> int:
    from .euler_bernoulli import euler_polynomial, euler_polynomial_eval

    poly = euler_polynomial(m)
    if at is not None:
        value = euler_polynomial_eval(poly, at)
        records = [{"kind": "euler_poly", "m": m, "u": str(at), **_rational_fields(value)}]
        lines = [f"E_{m}({at}) = {value}"]
    else:
        records = [
            {"kind": "euler_poly", "m": m, "n": j, **_rational_fields(c)}
            for j, c in enumerate(poly.coefficients)
        ]
        lines = [_poly_plain(poly)]
    _emit(records, lines, fmt, sys.stdout)
    return 0


def _cmd_phi(m, u, route, digits, fmt) -> int:
    from .series_verifier import phi_series, phi_taylor_coeff

    if route == "taylor":
        value = phi_taylor_coeff(m, u)
        records = [{"kind": "phi", "m": m, "u": str(u), **_rational_fields(value)}]
        lines = [f"phi_{m}({u}) = {value}"]
    else:
        if digits < 10:
            raise ValueError("digits must be >= 10")
        evaluation = phi_series(m, u, digits)
        records = [
            {
                "kind": "phi",
                "m": m,
                "u": str(u),
                "decimal": str(evaluation.value.rounded()),
                "digits": digits,
                "terms": evaluation.terms_used,
            }
        ]
        lines = [
            f"phi_{m}({u}) = {evaluation.value.rounded()}  "
            f"(+/- {evaluation.error_bound.rounded()}, {evaluation.terms_used} terms)"
        ]
    _emit(records, lines, fmt, sys.stdout)
    return 0


def _cmd_verify(suite, fmt, **knobs) -> int:
    from .series_verifier import SUITES, run_suite

    # knobs left out stay out, so run_suite's defaults apply
    knobs = {name: value for name, value in knobs.items() if value is not None}
    names = SUITES if suite == "all" else (suite,)
    reports = [report for name in names for report in run_suite(name, **knobs)]
    plain = fmt == "plain"
    records = [] if plain else [_report_record(r) for r in reports]
    lines = [_report_plain(r) for r in reports] if plain else []
    _emit(records, lines, fmt, sys.stdout)
    failed = [r for r in reports if not r.passed]
    for report in failed:
        print(report.to_line(), file=sys.stderr)
    return 1 if failed else 0


def _cmd_bench(kmax, fmt) -> int:
    if fmt != "plain":
        raise ValueError("bench prints wall-clock timings; plain format only")
    from .numeric_core import _decimal_digits
    from .zeta_recurrence import ZetaEvenTable

    table = ZetaEvenTable()
    total = 0.0
    for k in range(1, kmax + 1):
        start = time.perf_counter()
        ratio = table.ratio(k)
        elapsed = time.perf_counter() - start
        total += elapsed
        size = _decimal_digits(ratio.numerator) + _decimal_digits(ratio.denominator)
        print(f"k={k:<4d} {elapsed * 1000:10.3f} ms   ratio digits {size}")
    print(f"total {total * 1000:.3f} ms for k_max={kmax}")
    return 0


# ------------------------------------------------------------------ values

# Each converter turns one flag's text into its value, or raises a
# ValueError whose message follows "argument --flag: ".


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise ValueError(f"must be >= 1: {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _finite_decimal(text: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a decimal number: {text!r}") from None
    if not value.is_finite():
        raise ValueError(f"must be finite: {text!r}")
    # a report rounds it to 15 digits, which past these exponents overflows or flushes to 0
    if not MIN_EMIN <= value.adjusted() < MAX_EMAX:
        raise ValueError(f"exponent out of range: {text!r}")
    return value


def _choice(*options: str):
    def choose(text: str) -> str:
        if text not in options:
            listed = ", ".join(map(repr, options))
            raise ValueError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return choose


def _suite_names() -> tuple[str, ...]:
    # imported only for --suite and --help, so no other command loads the verifier
    from .series_verifier import SUITES

    return SUITES


def _suite(text: str) -> str:
    return _choice(*_suite_names(), "all")(text)


# ------------------------------------------------------------------- table

_FORMAT = ("--format", "fmt", _choice("plain", "json-lines", "csv"), "plain",
           "plain, json-lines or csv")

# command -> (handler, summary, flags, required groups, exclusive groups).
# A flag is (name, dest, converter, default, help); the handler gets one
# keyword argument per flag, named by dest. A help that is a function is
# called for its text when --help prints it. A converter of None makes a
# switch, which takes no value and is True when given. A required group
# needs one of its flags, an exclusive group allows at most one.
COMMANDS = {
    "zeta": (
        _cmd_zeta,
        "zeta(2k) exactly or as a decimal",
        (
            ("--k", "k", _positive_int, None, "single index k: zeta(2k)"),
            ("--kmax", "kmax", _positive_int, None, "table for k = 1..kmax"),
            ("--exact", "exact", None, False, "emit the ratio zeta(2k)/pi^(2k)"),
            ("--digits", "digits", _int, 50, "decimal significant digits"),
            _FORMAT,
        ),
        (("--k", "--kmax"),),
        (("--k", "--kmax"), ("--exact", "--digits")),
    ),
    "bernoulli": (
        _cmd_bernoulli,
        "Bernoulli number B_n",
        (("--n", "n", _int, None, "index n of B_n"), _FORMAT),
        (("--n",),),
        (),
    ),
    "euler-poly": (
        _cmd_euler_poly,
        "Euler polynomial E_m",
        (
            ("--m", "m", _int, None, "degree m"),
            ("--at", "at", _rational, None,
             "rational point to evaluate at, not list coefficients"),
            _FORMAT,
        ),
        (("--m",),),
        (),
    ),
    "phi": (
        _cmd_phi,
        "phi_m(u) by series or Taylor route",
        (
            ("--m", "m", _int, None, "index m (>= 0 for taylor)"),
            ("--u", "u", _rational, None, "rational u, e.g. 3/2 (> 1 for the series)"),
            ("--route", "route", _choice("series", "taylor"), "series",
             "series (certified) or taylor (exact)"),
            ("--digits", "digits", _int, 50, "series significant digits, >= 10"),
            _FORMAT,
        ),
        (("--m",), ("--u",)),
        (),
    ),
    "verify": (
        _cmd_verify,
        "run identity-check suites; a knob left out takes the library default",
        (
            ("--suite", "suite", _suite, "all", lambda: ", ".join(_suite_names()) + " or all"),
            ("--kmax", "kmax", _int, None, "recurrence cross-check depth"),
            ("--digits", "digits", _int, None, "working precision"),
            ("--jmax", "jmax", _int, None, "expansion truncation order"),
            ("--tolerance", "tolerance", _finite_decimal, None,
             "finite; overrides expansion and phi tolerances"),
            _FORMAT,
        ),
        (),
        (),
    ),
    "bench": (
        _cmd_bench,
        "time the recurrence table (plain format only)",
        (("--kmax", "kmax", _positive_int, 100, "time k = 1..kmax"), _FORMAT),
        (),
        (),
    ),
}

_HELP = ("-h", "--help")


# ------------------------------------------------------------------ parser


class _UsageError(Exception):
    """A usage error; main prints it as one stderr line and exits 2."""

    def __init__(self, prog: str, message: str):
        super().__init__(f"{prog}: error: {message}")


def _lookup(option: str, names: tuple[str, ...], prog: str) -> str:
    """The flag of ``names`` that option is, or the one it abbreviates."""
    if option in names:
        return option
    if option.startswith("--") and option != "--":
        matches = [name for name in names if name.startswith(option)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise _UsageError(prog, f"ambiguous option: {option} could match {', '.join(matches)}")
    raise _UsageError(prog, f"unrecognized arguments: {option}")


def _parse(argv: list[str]):
    """The handler argv asks for and its keyword arguments (--help included)."""
    if not argv:
        raise _UsageError("zetaeven", "the following arguments are required: command")
    command = argv[0]
    if command.startswith("-"):
        _lookup(command, _HELP, "zetaeven")
        return _help, {}
    if command not in COMMANDS:
        listed = ", ".join(map(repr, COMMANDS))
        raise _UsageError(
            "zetaeven", f"argument command: invalid choice: {command!r} (choose from {listed})"
        )
    prog = f"zetaeven {command}"
    handler, _, flags, required, exclusive = COMMANDS[command]
    spec = {flag[0]: flag for flag in flags}
    names = (*spec, *_HELP)
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if not option.startswith("-"):
            raise _UsageError(prog, f"unrecognized arguments: {token}")
        name = _lookup(option, names, prog)
        if name in _HELP:
            return _help, {"command": command}
        convert = spec[name][2]
        if convert is None:
            if eq:
                raise _UsageError(prog, f"argument {name}: ignored explicit argument {value!r}")
            given[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(prog, f"argument {name}: expected one argument")
        try:
            given[name] = convert(value)
        except ValueError as exc:
            raise _UsageError(prog, f"argument {name}: {exc}") from None
    for group in exclusive:
        clash = [name for name in given if name in group]
        if len(clash) > 1:
            raise _UsageError(prog, f"argument {clash[1]}: not allowed with argument {clash[0]}")
    for group in required:
        if not any(name in given for name in group):
            if len(group) == 1:
                raise _UsageError(prog, f"the following arguments are required: {group[0]}")
            raise _UsageError(prog, f"one of the arguments {' '.join(group)} is required")
    return handler, {dest: given.get(name, default) for name, dest, _, default, _ in flags}


def _help(command: str | None = None) -> int:
    """Print the usage of one command, or of all, from COMMANDS."""
    lines = [
        "usage: zetaeven COMMAND [--FLAG VALUE | --FLAG=VALUE | --SWITCH] ...",
        "       zetaeven [COMMAND] -h | --help",
        "",
        "Exact even zeta values and series-identity verification. A flag may",
        "be shortened to any unique prefix; a repeated flag keeps its last value.",
    ]
    for name in (command,) if command else COMMANDS:
        _, summary, flags, required, exclusive = COMMANDS[name]
        lines += ["", f"{name}: {summary}"]
        for flag, _, convert, default, text in flags:
            text = text() if callable(text) else text
            usage = flag if convert is None else f"{flag} {flag[2:].upper()}"
            if default is not None and default is not False:
                text += f" (default {default})"
            lines.append(f"  {usage:<22} {text}")
        lines += [f"  {' or '.join(group)} is required" for group in required]
        lines += [f"  {' and '.join(group)} exclude each other" for group in exclusive]
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    # exact values print at any size: lift the int <-> str digit limit for
    # this call, and give the caller its own setting back afterwards
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        handler, arguments = _parse(sys.argv[1:] if argv is None else argv)
        return handler(**arguments)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
