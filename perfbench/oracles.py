"""Output checks for one CLI invocation, against mpmath as an outside oracle.

``Checker.check`` returns None for a right outcome and a one-line reason
otherwise. The right outcome of an operation is exit 0 with output that
passes its oracle, or, where the operation allows it, exit 2 with one
line on stderr and no traceback. Oracles are chosen from the argv alone.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import mpmath

from workloads import Op

# Reports each verify suite emits; a missing report is a failure.
SUITE_REPORTS = {"recurrence": 1, "expansion": 3, "abel": 2, "phi": 75}
SUITE_REPORTS["all"] = sum(SUITE_REPORTS.values())

_PHI_PLAIN = re.compile(
    r"phi_(-?\d+)\((\S+)\) = (\S+)  \(\+/- (\S+), (\d+) terms\)"
)


def _flags(argv: tuple[str, ...]) -> dict[str, Optional[str]]:
    """``--name value`` pairs of an argv after the subcommand; bare flags map to None."""
    out: dict[str, Optional[str]] = {}
    i = 1
    while i < len(argv):
        name = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[name] = argv[i + 1]
            i += 2
        else:
            out[name] = None
            i += 1
    return out


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def _fraction(record: dict) -> Fraction:
    return Fraction(int(record["numerator"]), int(record["denominator"]))


def _half_ulp(value: Decimal, digits: int):
    """Half a unit in the last of ``digits`` significant digits of ``value``, as an mpf."""
    return mpmath.mpf(5) * mpmath.mpf(10) ** (value.adjusted() - digits)


class Checker:
    """Oracles with their own caches of exact reference values."""

    def __init__(self) -> None:
        self._bernoulli_cache: dict[int, Fraction] = {}

    def bernoulli(self, n: int) -> Fraction:
        if n not in self._bernoulli_cache:
            p, q = mpmath.bernfrac(n)
            self._bernoulli_cache[n] = Fraction(int(p), int(q))
        return self._bernoulli_cache[n]

    def ratio(self, k: int) -> Fraction:
        """r_k = zeta(2k)/pi^(2k) = 2^(2k-1) |B_2k| / (2k)!."""
        return 2 ** (2 * k - 1) * abs(self.bernoulli(2 * k)) / math.factorial(2 * k)

    def check_reference(self, stdout: str) -> Optional[str]:
        """The output of ``reference.py``: B_n exact and the last digits of pi."""
        import reference

        record = json.loads(stdout)
        n = reference.BERNOULLI_N
        if Fraction(record[f"B_{n}"]) != self.bernoulli(n):
            return f"reference B_{n} differs from mpmath.bernfrac"
        with mpmath.workdps(reference.PI_DIGITS + 20):
            digits = mpmath.nstr(mpmath.pi, reference.PI_DIGITS)
        if record["pi_tail"] != digits[-20:]:
            return "reference pi differs from mpmath.pi"
        return None

    def check(self, op: Op, exit_code: int, stdout: str, stderr: str, timed_out: bool) -> Optional[str]:
        if timed_out:
            return f"killed after its {op.budget_s:g} s budget"
        if "Traceback" in stderr:
            return f"exit {exit_code} with a traceback"
        if exit_code == 2:
            if op.expect == "answer":
                return "exit 2 on an input that has an answer"
            lines = stderr.strip().splitlines()
            return None if len(lines) == 1 else f"exit 2 with {len(lines)} stderr lines, not one"
        if exit_code != 0:
            return f"exit {exit_code}"
        if op.expect == "error":
            return "exit 0 on an input that has no answer"
        oracle = getattr(self, "_" + op.argv[0].replace("-", "_"), None)
        if oracle is None:
            return f"no oracle for {op.argv[0]}"
        try:
            return oracle(_flags(op.argv), stdout)
        except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    # ------------------------------------------------------------ oracles

    def _zeta(self, flags: dict, stdout: str) -> Optional[str]:
        records = _records(stdout)
        ks = [int(flags["k"])] if "k" in flags else list(range(1, int(flags["kmax"]) + 1))
        if [r["k"] for r in records] != ks:
            return f"records for k={[r.get('k') for r in records][:5]}..., expected {ks[:5]}..."
        for record in records:
            k = record["k"]
            if "exact" in flags:
                if record["kind"] != "ratio" or _fraction(record) != self.ratio(k):
                    return f"r_{k} differs from 2^(2k-1)|B_2k|/(2k)!"
                continue
            digits = int(flags.get("digits") or 50)
            value = Decimal(record["decimal"])
            if record["kind"] != "decimal" or record["digits"] != digits:
                return f"zeta({2 * k}) record is not a {digits}-digit decimal"
            with mpmath.workdps(digits + 30):
                error = abs(mpmath.mpf(record["decimal"]) - mpmath.zeta(2 * k))
                if error > _half_ulp(value, digits) * (1 + mpmath.mpf(10) ** -20):
                    return f"zeta({2 * k}) off by {mpmath.nstr(error, 3)} at {digits} digits"
        return None

    def _bernoulli(self, flags: dict, stdout: str) -> Optional[str]:
        (record,) = _records(stdout)
        n = int(flags["n"])
        if record["kind"] != "bernoulli" or record["n"] != n or _fraction(record) != self.bernoulli(n):
            return f"B_{n} differs from mpmath.bernfrac"
        return None

    def _verify(self, flags: dict, stdout: str) -> Optional[str]:
        records = _records(stdout)
        expected = SUITE_REPORTS[flags.get("suite") or "all"]
        if len(records) != expected:
            return f"{len(records)} reports, expected {expected}"
        bad = [r for r in records if r.get("kind") != "report" or r.get("passed") is not True]
        return f"{len(bad)} reports not passed" if bad else None

    def _phi(self, flags: dict, stdout: str) -> Optional[str]:
        m = int(flags["m"])
        u = Fraction(flags["u"])
        if flags.get("route") == "taylor":
            (record,) = _records(stdout)
            if record["kind"] != "phi" or record["m"] != m or Fraction(record["u"]) != u:
                return "phi record does not match its request"
            value = _fraction(record)
            with mpmath.workdps(len(str(value.numerator)) + len(str(value.denominator)) + 40):
                exact = self._phi_reference(m, u)
                error = abs(mpmath.mpf(value.numerator) / value.denominator - exact)
                if error > mpmath.mpf(10) ** -30 * max(1, abs(exact)):
                    return f"phi_{m}({u}) off by {mpmath.nstr(error, 3)}"
            return None
        match = _PHI_PLAIN.fullmatch(stdout.strip())
        if not match:
            return "phi output is not one 'value (+/- bound, terms)' line"
        if int(match[1]) != m or Fraction(match[2]) != u:
            return "phi line does not match its request"
        digits = int(flags.get("digits") or 50)
        value = Decimal(match[3])
        with mpmath.workdps(digits + 30):
            error = abs(mpmath.mpf(match[3]) - self._phi_reference(m, u))
            allowed = mpmath.mpf(match[4]) + _half_ulp(value, digits)
            if error > allowed:
                return f"phi_{m}({u}) off by {mpmath.nstr(error, 3)}, outside +/- {match[4]}"
        return None

    @staticmethod
    def _phi_reference(m: int, u: Fraction):
        """phi_m(u) = -2 Li_{-m}(-1/u), at the caller's working precision."""
        return -2 * mpmath.polylog(-m, -mpmath.mpf(u.denominator) / u.numerator)
