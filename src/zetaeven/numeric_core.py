"""Exact rational and configurable-precision decimal arithmetic.

Two value kinds underpin everything else here:

* exact rationals -- stdlib ``fractions.Fraction``, which keeps every value
  in canonical reduced form (positive denominator, gcd 1, zero as 0/1);
* ``HighPrecisionReal`` -- a decimal value paired with the number of
  significant digits it is guaranteed to.

Pi is generated internally from two independent arctangent formulae that
must agree before a value is released, so no precomputed constant enters
the trust base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

__all__ = [
    "HighPrecisionReal",
    "PiAgreementError",
    "factorial",
    "binomial",
    "compute_pi",
    "fraction_to_decimal",
    "round_significant",
    "positional_str",
]


class PiAgreementError(ArithmeticError):
    """Two independent pi formulae disagreed at the requested precision."""


def factorial(n: int) -> int:
    """Exact n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    return math.factorial(n)


def binomial(n: int, j: int) -> int:
    """Exact C(n, j) for 0 <= j <= n.

    Unlike math.comb, out-of-range j is an error rather than 0: callers
    here always mean a genuine coefficient.
    """
    if n < 0 or j < 0:
        raise ValueError("binomial requires nonnegative arguments")
    if j > n:
        raise ValueError(f"binomial requires j <= n, got j={j} > n={n}")
    return math.comb(n, j)


def round_significant(value: Decimal, digits: int) -> Decimal:
    """Round to ``digits`` significant digits, ties to even."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return +value


def fraction_to_decimal(value: Fraction, digits: int) -> Decimal:
    """Decimal image of an exact rational, correct to ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return Decimal(value.numerator) / Decimal(value.denominator)


def positional_str(value: Decimal) -> str:
    """Plain positional rendering (no exponent), e.g. '1.64493406685'."""
    return format(value, "f")


class HighPrecisionReal:
    """A decimal value carrying the significant digits it is guaranteed to.

    Arithmetic and comparisons between two instances happen at the minimum
    of the two precisions: the result of ``a + b`` carries
    ``min(a.precision_digits, b.precision_digits)`` digits, and ``a <= b``
    compares both sides rounded (half-even) to that shared precision.
    The rounding comparison is deliberate: a value printed to d digits is
    only meaningful to d digits, so interval endpoints must be judged at
    the same resolution.
    """

    __slots__ = ("value", "precision_digits")

    def __init__(self, value: Decimal, precision_digits: int):
        if precision_digits < 10:
            raise ValueError("precision_digits must be >= 10")
        if not isinstance(value, Decimal):
            raise TypeError("value must be a Decimal")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "precision_digits", precision_digits)

    def __setattr__(self, name, _value):
        raise AttributeError(f"HighPrecisionReal is immutable ({name})")

    @classmethod
    def from_fraction(cls, value: Fraction, precision_digits: int) -> "HighPrecisionReal":
        return cls(fraction_to_decimal(value, precision_digits), precision_digits)

    @classmethod
    def from_int(cls, value: int, precision_digits: int = 50) -> "HighPrecisionReal":
        return cls(Decimal(value), precision_digits)

    def rounded(self) -> Decimal:
        """The value rounded to its own guaranteed precision."""
        return round_significant(self.value, self.precision_digits)

    def _binary(self, other: "HighPrecisionReal", op: str) -> "HighPrecisionReal":
        if not isinstance(other, HighPrecisionReal):
            return NotImplemented
        prec = min(self.precision_digits, other.precision_digits)
        with localcontext() as ctx:
            ctx.prec = prec
            ctx.rounding = ROUND_HALF_EVEN
            if op == "add":
                out = self.value + other.value
            elif op == "sub":
                out = self.value - other.value
            elif op == "mul":
                out = self.value * other.value
            else:
                out = self.value / other.value
        return HighPrecisionReal(out, prec)

    def __neg__(self):
        return HighPrecisionReal(-self.value, self.precision_digits)

    def __abs__(self):
        return HighPrecisionReal(abs(self.value), self.precision_digits)

    def __add__(self, other):
        return self._binary(other, "add")

    def __sub__(self, other):
        return self._binary(other, "sub")

    def __mul__(self, other):
        return self._binary(other, "mul")

    def __truediv__(self, other):
        return self._binary(other, "div")

    def _cmp(self, other: "HighPrecisionReal") -> int:
        if not isinstance(other, HighPrecisionReal):
            raise TypeError("can only compare HighPrecisionReal with HighPrecisionReal")
        prec = min(self.precision_digits, other.precision_digits)
        a = round_significant(self.value, prec)
        b = round_significant(other.value, prec)
        return (a > b) - (a < b)

    def __eq__(self, other):
        if not isinstance(other, HighPrecisionReal):
            return NotImplemented
        return self._cmp(other) == 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    __hash__ = None

    def __repr__(self):
        return f"HighPrecisionReal({str(self.rounded())!r}, digits={self.precision_digits})"


def _arctan_inverse_fixed(m: int, scale: int) -> int:
    """floor(scale * arctan(1/m)) up to a few ulps, by the alternating series.

    Fixed-point integer evaluation: every division floors, each retained
    term costs < 1 ulp, and the alternating tail is below the first
    dropped term, itself < 1 ulp at the working scale.
    """
    power = scale // m          # scale * (1/m)^(2k+1)
    total = power
    mm = m * m
    k = 1
    while power:
        power //= mm
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        k += 1
    return total


def _pi_fixed(scale: int) -> tuple[int, int]:
    """Two independent fixed-point pi values at the given scale.

    Machin:        pi/4 = 4*arctan(1/5) - arctan(1/239)
    Euler/Hutton:  pi/4 = 2*arctan(1/3) + arctan(1/7)
    """
    machin = 4 * (4 * _arctan_inverse_fixed(5, scale) - _arctan_inverse_fixed(239, scale))
    hutton = 4 * (2 * _arctan_inverse_fixed(3, scale) + _arctan_inverse_fixed(7, scale))
    return machin, hutton


_PI_GUARD = 12


def compute_pi(digits: int) -> HighPrecisionReal:
    """Pi to ``digits`` significant digits.

    Internally evaluates Machin's and Euler/Hutton's arctangent formulae
    independently; both the raw fixed-point values (at guard precision)
    and the rounded results must agree, otherwise PiAgreementError is
    raised -- disagreement would mean an arithmetic bug, not a math fact.
    """
    if digits < 10:
        raise ValueError("digits must be >= 10")
    work = digits + _PI_GUARD
    scale = 10 ** work
    machin, hutton = _pi_fixed(scale)
    # each value is within ~200 ulps of pi at the working scale
    if abs(machin - hutton) > 10 ** (_PI_GUARD // 2):
        raise PiAgreementError(
            f"pi formulae disagree by {abs(machin - hutton)} ulps at scale 1e-{work}"
        )
    with localcontext() as ctx:
        ctx.prec = work + 8
        a = Decimal(machin) / scale
        b = Decimal(hutton) / scale
    ra = round_significant(a, digits)
    rb = round_significant(b, digits)
    if ra != rb:
        raise PiAgreementError("pi formulae round differently at the requested precision")
    return HighPrecisionReal(ra, digits)
