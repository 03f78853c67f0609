"""Pass/fail reports for identity checks.

A report captures one verification: what was compared, at which
parameters, the residual, and the tolerance it was judged against.
``passed`` is never supplied by the caller -- it is computed at
construction from |residual| <= tolerance, so the field can never
contradict the numbers it summarizes. The comparison is exact, on the
full decimal values: rounding either side first could turn a residual
just above its tolerance into a pass. A NaN or infinite residual or
tolerance fails: an infinite tolerance certifies nothing.

Every builder of reports follows one rounding rule. A residual is
computed exactly, from exact operands; only the finished residual is
rounded, away from zero, and only where it does not terminate at the
digits it keeps. A tolerance is rounded only up. So rounding can fail
a report but never pass one.

A report whose check failed for a structural reason (for example a
residual sequence that was supposed to decrease but did not) carries
tolerance -1; no magnitude satisfies |residual| <= -1, so such reports
are failed by construction while keeping the invariant intact.

Reports serialize to single JSON lines via ``to_line``/``from_line`` so
they can be logged, diffed, and re-read without loss. ``json_line``,
the package's one JSON writer, also writes the CLI's json-lines records;
only ``from_line`` imports the json package.
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

from .numeric_core import FrozenRecord, HighPrecisionReal

__all__ = ["VerificationReport", "render_value"]


def render_value(value: object) -> object:
    """Canonical rendering of payload values for reports and records.

    Fractions render as 'p/q' (or a bare integer string), decimals and
    high-precision reals as decimal strings; ints, bools and strings
    pass through.
    """
    # first, as the Fraction test below is an ABC's check for anything else
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, HighPrecisionReal):
        return str(value.rounded())
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, Fraction):
        # str(value) would convert the ints through str, which CPython's
        # int <-> str digit limit refuses past 4300 digits; the Decimal of
        # an int does not, and prints its digits alone (its exponent is 0)
        numerator = str(Decimal(value.numerator))
        if value.denominator == 1:
            return numerator
        return numerator + "/" + str(Decimal(value.denominator))
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def json_line(record: Mapping[str, object]) -> str:
    """record as one JSON object, its keys in the order given.

    Values may be str, int, bool or a mapping of those; anything else
    raises TypeError. The text is what the json package's ``dumps``
    writes with its default separators: strings go through
    ``encode_basestring_ascii``, the C encoder ``dumps`` itself uses, so
    the json package is never imported.
    """
    from _json import encode_basestring_ascii as quote  # deferred: only JSON output pays

    return _json_value(record, quote)


def _json_value(value: object, quote) -> str:
    if isinstance(value, str):
        return quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Mapping):
        return "{" + ", ".join(
            f"{quote(key)}: {_json_value(item, quote)}" for key, item in value.items()
        ) + "}"
    raise TypeError(f"no json-lines form for {type(value).__name__}")


class VerificationReport(FrozenRecord):
    """One identity check: parameters in, residual/tolerance/passed out."""

    __slots__ = (
        "identity_name",
        "parameters",
        "lhs",
        "rhs",
        "residual",
        "tolerance",
        "passed",
    )

    def __init__(
        self,
        identity_name: str,
        parameters: Mapping[str, object],
        lhs: object,
        rhs: object,
        residual: HighPrecisionReal,
        tolerance: HighPrecisionReal,
    ):
        super().__init__(identity_name, parameters, lhs, rhs, residual, tolerance)
        self.__post_init__()

    def __post_init__(self):
        rendered = {str(k): render_value(v) for k, v in dict(self.parameters).items()}
        object.__setattr__(self, "parameters", rendered)
        object.__setattr__(self, "lhs", render_value(self.lhs))
        object.__setattr__(self, "rhs", render_value(self.rhs))
        residual, tolerance = self.residual.value, self.tolerance.value
        # copy_abs and Decimal comparison are exact; abs() would round
        passed = (
            residual.is_finite()
            and tolerance.is_finite()
            and residual.copy_abs() <= tolerance
        )
        object.__setattr__(self, "passed", passed)

    def to_line(self) -> str:
        """One-line JSON form, keys sorted, lossless for residuals."""
        record = {
            "identity": self.identity_name,
            "parameters": dict(sorted(self.parameters.items())),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": str(self.residual.value),
            "residual_digits": self.residual.precision_digits,
            "tolerance": str(self.tolerance.value),
            "tolerance_digits": self.tolerance.precision_digits,
            "passed": self.passed,
        }
        return json_line(dict(sorted(record.items())))

    @classmethod
    def from_line(cls, line: str) -> "VerificationReport":
        import json

        record = json.loads(line)
        report = cls(
            identity_name=record["identity"],
            parameters=record["parameters"],
            lhs=record["lhs"],
            rhs=record["rhs"],
            residual=HighPrecisionReal(
                Decimal(record["residual"]), record["residual_digits"]
            ),
            tolerance=HighPrecisionReal(
                Decimal(record["tolerance"]), record["tolerance_digits"]
            ),
        )
        if report.passed != record["passed"]:
            raise ValueError("serialized passed flag contradicts residual/tolerance")
        return report
