"""Exact rational and configurable-precision decimal arithmetic.

Two value kinds underpin everything else here:

* exact rationals -- stdlib ``fractions.Fraction``, which keeps every value
  in canonical reduced form (positive denominator, gcd 1, zero as 0/1);
* ``HighPrecisionReal`` -- a decimal value paired with the number of
  significant digits it is guaranteed to; arithmetic and comparisons
  happen on its ``Decimal`` value, exactly or in an explicit context.

Every decimal operation in the package runs in ``_decimal_context``: a
copy of one fixed base context, so no result depends on the caller's
decimal context.

Pi is generated internally from two independent arctangent formulae that
must agree before a value is released, so no precomputed constant enters
the trust base; ``compute_pi`` returns it as a plain ``Decimal``.

``FrozenRecord`` is the base of the package's immutable value records
(high-precision reals, Euler polynomials, phi evaluations, verification
reports).
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from decimal import DivisionByZero, InvalidOperation, Overflow
from functools import lru_cache

__all__ = [
    "HighPrecisionReal",
    "PiAgreementError",
    "compute_pi",
    "round_significant",
    "positional_str",
]


class PiAgreementError(ArithmeticError):
    """Two independent pi formulae disagreed at the requested precision."""


# The one decimal context of the package. Its exponent range is the full
# one, so a value whose exponent the default context cannot hold (beyond
# +/-999999) neither overflows nor flushes to zero; only exponents beyond
# about +/-10^18 do.
_BASE_CONTEXT = Context(
    prec=28, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1, clamp=0,
    flags=[], traps=[InvalidOperation, DivisionByZero, Overflow],
)


def _decimal_context(prec: int, rounding: str = ROUND_HALF_EVEN):
    """A ``with`` context of ``prec`` digits and ``rounding``, copied from
    ``_BASE_CONTEXT``: nothing of the caller's decimal context (precision,
    rounding, exponent range, traps, flags) reaches the result."""
    ctx = _BASE_CONTEXT.copy()
    ctx.prec = prec
    ctx.rounding = rounding
    return localcontext(ctx)


def round_significant(value: Decimal, digits: int) -> Decimal:
    """Round to ``digits`` significant digits, ties to even."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with _decimal_context(digits):
        return +value


def positional_str(value: Decimal) -> str:
    """Plain positional rendering (no exponent), e.g. '1.64493406685'."""
    return format(value, "f")


class FrozenRecord:
    """Immutable record whose fields are the subclass's ``__slots__``.

    ``FrozenRecord.__init__(self, *values)`` sets the slots in order; a
    subclass checks its arguments first, then calls it. Instances
    compare field-wise (only with instances of the same class), print as
    ``Name(field=value, ...)`` and refuse assignment. They are
    unhashable unless the subclass defines ``__hash__``. This gives what
    a frozen dataclass gives, without importing ``dataclasses`` (and with
    it ``inspect`` and ``ast``) into every process that runs the CLI.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable ({name})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class HighPrecisionReal(FrozenRecord):
    """A decimal value carrying the significant digits it is guaranteed to.

    A tag, not a number type: it defines no arithmetic and no ordering,
    so ``a + b`` and ``a < b`` raise TypeError, and ``==`` is the exact
    field-wise equality of ``FrozenRecord`` (same value, same digits).
    Callers compute on ``.value`` in a context they choose and compare
    with exact ``Decimal`` operations; rounding both sides first could
    turn a value just outside a bound into one inside it.
    """

    __slots__ = ("value", "precision_digits")

    def __init__(self, value: Decimal, precision_digits: int):
        if precision_digits < 10:
            raise ValueError("precision_digits must be >= 10")
        if not isinstance(value, Decimal):
            raise TypeError("value must be a Decimal")
        super().__init__(value, precision_digits)

    def rounded(self) -> Decimal:
        """The value rounded to its own guaranteed precision."""
        return round_significant(self.value, self.precision_digits)

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


def compute_pi(digits: int) -> Decimal:
    """Pi rounded to ``digits`` significant digits.

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
    with _decimal_context(work + 8):
        a = Decimal(machin) / scale
        b = Decimal(hutton) / scale
    ra = round_significant(a, digits)
    rb = round_significant(b, digits)
    if ra != rb:
        raise PiAgreementError("pi formulae round differently at the requested precision")
    return ra


@lru_cache(maxsize=4)
def _pi(digits: int) -> Decimal:
    """compute_pi(digits), kept for the few precisions a k-loop asks for.

    A table of decimals at one ``digits`` needs only two working
    precisions (they differ by the digit count of 2k), and the cases of
    the expansion suite share one, so this saves recomputing the same pi
    for every k and every case. The value is immutable. ``compute_pi``
    itself stays uncached, so it can be timed and traced as it is.
    """
    return compute_pi(digits)
