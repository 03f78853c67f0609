"""Exact rational and configurable-precision decimal arithmetic.

Two value kinds underpin everything else here:

* exact rationals -- stdlib ``fractions.Fraction``, which keeps every value
  in canonical reduced form (positive denominator, gcd 1, zero as 0/1);
* ``HighPrecisionReal`` -- a decimal value paired with the number of
  significant digits it is guaranteed to; arithmetic and comparisons
  happen on its ``Decimal`` value, exactly or in an explicit context.

Every decimal operation in the package runs in one context per
``(prec, rounding)``, ``_context(prec, rounding)``: a copy of one fixed
base context, made once and kept by ``functools.lru_cache`` (the memo
of ``_pi`` here too), so no result depends on the caller's decimal
context. The cached contexts are shared, so they are used as the
receiver (``ctx.divide(a, b)``, ``ctx.plus(x)``) and never entered or
changed, and only this module calls ``_context``: the others convert
and round through the functions below. An exact value becomes a
``Decimal`` one way only: a fixed-point integer through
``_fixed_decimal`` (exactly, by a power of ten) and a rational through
``_rational_decimal`` (one division, rounded to a stated precision).

A real known only within a bound travels as an integer ball: a
fixed-point value and a radius, both in ulps of one stated scale, with
the true value within radius ulps of the value (the midpoint-radius
balls of F. Johansson's Arb, IEEE Trans. Comput. 66, 2017). Products
and powers (``_ball_product``, ``_ball_power``) and divisions by an
exact integer (``_ball_quotient``) carry the radius exactly, so every
bound the package certifies is an integer number of ulps, and only its
printed rendering is a ``Decimal``. Every certified decimal -- pi,
phi_m(u) and zeta(2k) -- is rounded by one loop, ``_ziv``, from a ball
maker its caller supplies; it rounds only when both ends of the ball
round alike.

Pi is generated internally from two independent series, Chudnovsky's and
Ramanujan's 1/pi series, each summed exactly by binary splitting and
brought to fixed point with one integer square root and one floor
division. The two values must agree before either is used
(``_agreed_pi``), so no precomputed constant enters the trust base;
``compute_pi`` rounds Chudnovsky's value, a ball of ``_PI_RADIUS``
ulps, through ``_ziv`` and returns a plain ``Decimal``, and ``_pi``
keeps the agreed values of the few scales a run asks for.

``FrozenRecord`` is the base of the package's immutable value records
(high-precision reals, Euler polynomials, phi evaluations, verification
reports), and ``_ExactTable`` the base of the two exact memo tables (the
recurrence's r_k, the Bernoulli numbers): an append-only list of
unreduced integer pairs, extended behind one lock. Only a public read
makes a ``Fraction`` of an entry, so a read of one entry pays no gcd for
the others.
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
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


@lru_cache(maxsize=256)
def _context(prec: int, rounding: str) -> Context:
    """The context of ``prec`` digits and ``rounding``: a copy of
    ``_BASE_CONTEXT``, made on the first call for the pair and then kept
    by ``lru_cache`` (the 256 pairs last used; a caller that asks for
    ever new precisions evicts the oldest). The rounding has no default,
    so each pair has one cache key. Nothing of the caller's decimal
    context (precision, rounding, exponent range, traps, flags) reaches
    the result.

    It is shared by every caller and thread: call its methods, and never
    enter it or change its settings. Two threads that miss the same pair
    at once may each get a copy of their own, equal in every setting.
    Its flags record what its operations signalled and are never read."""
    ctx = _BASE_CONTEXT.copy()
    ctx.prec = prec
    ctx.rounding = rounding
    return ctx


def _fixed_decimal(total: int, digits: int) -> Decimal:
    """total / 10^digits as a Decimal, exactly, with its trailing zeros:
    rounding it keeps as many significant digits as it is asked for.
    Scaling by a power of ten needs only the digits of total, so at the
    largest precision it is exact and costs no more."""
    return _context(MAX_PREC, ROUND_HALF_EVEN).scaleb(total, -digits)


def _rational_decimal(x, prec: int, rounding: str = ROUND_HALF_EVEN) -> Decimal:
    """The Fraction x as a Decimal of ``prec`` significant digits,
    rounded by ``rounding``: one division."""
    return _context(prec, rounding).divide(x.numerator, x.denominator)


def round_significant(value: Decimal, digits: int) -> Decimal:
    """Round to ``digits`` significant digits, ties to even."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return _context(digits, ROUND_HALF_EVEN).plus(value)


def positional_str(value: Decimal) -> str:
    """Plain positional rendering (no exponent), e.g. '1.64493406685'."""
    return format(value, "f")


class FrozenRecord:
    """Immutable record whose fields are the subclass's ``__slots__``.

    ``FrozenRecord.__init__(self, *values)`` sets the slots in order; a
    subclass checks its arguments first, then calls it. Instances
    compare field-wise (only with instances of the same class), print as
    ``Name(field=value, ...)``, refuse assignment and are unhashable.
    This gives what a frozen dataclass gives, without importing
    ``dataclasses`` (and with it ``inspect`` and ``ast``) into every
    process that runs the CLI.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable ({name})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # tuples compare identity first, so a field holding a NaN still
        # equals itself
        names = self.__slots__
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _ExactTable:
    """An exact memo table of rationals, extended on demand and append-only.

    Entry i is the (numerator, denominator) pair, denominator > 0, that
    the subclass's ``_extend_to(size)`` appended, not necessarily
    reduced, and it is never rewritten. ``_pair`` gives it as it is;
    each public read makes its own ``Fraction`` of it, so a read pays
    one gcd for its own entry and none for the others. ``_extend_to``
    appends entries until the table holds ``size`` of them and runs with
    the table's lock already held: the lock is not reentrant, so
    ``_extend_to`` never takes it itself. Reads of completed entries are
    safe from any thread.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[int, int]] = []
        self._lock = allocate_lock()

    def _pair(self, i: int) -> tuple[int, int]:
        """Entry i, extending the table if needed."""
        if i >= len(self._entries):
            with self._lock:
                self._extend_to(i + 1)
        return self._entries[i]


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


def _decimal_digits(n: int) -> int:
    """len(str(n)) for an int n >= 0, counted from ``bit_length``, so it
    holds under CPython's int <-> str digit limit.

    With b bits, n >= 2^(b-1) has more than (b-1) log10(2) digits, and
    1233/4096 < log10(2); the loop then counts the rest exactly.
    """
    digits = (max(n.bit_length() - 1, 0) * 1233 >> 12) + 1
    power = 10**digits
    while n >= power:
        power *= 10
        digits += 1
    return digits


def _binary_split(a: int, b: int, p, q, c) -> tuple[int, int, int]:
    """(P, Q, T) of the terms a <= k < b, all exact integers, with

        P = p(a) ... p(b-1),   Q = q(a) ... q(b-1),
        T / Q = sum_{a<=k<b} c(k) p(a) ... p(k) / (q(a) ... q(k)),

    by splitting the range in halves, so that the big products are of
    numbers of like size (B. Haible and T. Papanikolaou, "Fast
    multiprecision evaluation of series of rational numbers", ANTS 1998).
    An empty range gives (1, 1, 0).
    """
    if b - a <= 1:
        if b == a:
            return 1, 1, 0
        pk = p(a)
        return pk, q(a), c(a) * pk
    m = (a + b) // 2
    p1, q1, t1 = _binary_split(a, m, p, q, c)
    p2, q2, t2 = _binary_split(m, b, p, q, c)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _series_sum(p, q, c, rho: int, scale: int) -> tuple[int, int]:
    """(D, Q) with D / Q = t_0 + ... + t_(N-1), exactly, for the series

        t_0 = c(0),   t_k = c(k) p(1) ... p(k) / (q(1) ... q(k)),

    where c(k) > 0 grows with k and |p(j) / q(j)| < 1/rho for every j,
    so that |t_k| <= c(k) / rho^k. N is the least count with

        4 c(N) scale <= c(0) rho^N,

    so the first omitted term has |t_N| <= c(0) / (4 scale). The count is
    found on integers: for N <= bit_length(scale) // bit_length(rho),
    rho^N < 2 scale and the inequality fails, so the search starts there.
    """
    n = max(scale.bit_length() // rho.bit_length(), 1)
    power = rho**n
    while 4 * c(n) * scale > c(0) * power:
        n += 1
        power *= rho
    _, big_q, t = _binary_split(1, n, p, q, c)
    return c(0) * big_q + t, big_q


def _chudnovsky_c(k):
    return 13591409 + 545140134 * k


def _chudnovsky_p(j):
    return -(6 * j - 5) * (2 * j - 1) * (6 * j - 1)


def _chudnovsky_q(j):
    return 10939058860032000 * j**3  # 640320^3 / 24


def _ramanujan_c(k):
    return 1103 + 26390 * k


def _ramanujan_p(j):
    return 8 * (4 * j - 3) * (2 * j - 1) * (4 * j - 1)


def _ramanujan_q(j):
    return 24591257856 * j**3  # 396^4


def _pi_fixed(scale: int) -> tuple[int, int]:
    """Two independent fixed-point pi values at the given scale, each
    within 2 ulps of pi * scale.

    Chudnovsky (1988):  pi = 426880 sqrt(10005) / S,
        S = sum_k (-1)^k (6k)! (13591409 + 545140134 k) / ((3k)! (k!)^3 640320^(3k)),
    about 14.2 digits per term.
    Ramanujan (1914):   pi = 9801 / (2 sqrt(2) S'),
        S' = sum_k (4k)! (1103 + 26390 k) / ((k!)^4 396^(4k)),
    about 8 digits per term.

    Both are ``_series_sum`` series. Chudnovsky's term ratio is
    -24 (6j-5)(2j-1)(6j-1) / (j^3 640320^3), below 1728 / 640320^3 = 1/rho
    with rho = 151931373056000 in size; Ramanujan's is
    8 (4j-3)(2j-1)(4j-1) / (j^3 396^4), below 256 / 396^4 = 1/99^4.

    Truncation. With N terms summed, pi_N - pi = pi (S - S_N) / S_N.
    Chudnovsky alternates, with terms of decreasing size, so its tail is
    below the first omitted term: |S - S_N| <= |t_N| <= c(0) / (4 scale),
    and S_N >= c(0) - |t_1| > c(0) (1 - 10^-12). Ramanujan's terms are
    positive and shrink by a ratio under 10^-7 (24 * 27493 / (396^4 * 1103)
    from t_0 to t_1, then below 2 / 99^4), so its tail is below
    t_N / (1 - 10^-7), and S'_N >= c(0). Either way the truncation moves
    pi * scale by less than (pi/4) / (1 - 10^-7) < 0.79 ulp.

    Rounding. Each of ``isqrt`` and the final floor costs under 1 ulp,
    and both round down: the floor of the square root loses less than 1
    of sqrt(10005) scale (of 4 sqrt(2) scale), which the factor
    pi_N / sqrt(10005) < 0.04 (pi_N / (4 sqrt(2)) < 0.56) shrinks, and
    the floor division loses less than 1 more. So Chudnovsky's value is
    within 0.79 + 1.04 ulps of pi * scale, and Ramanujan's, whose
    pi_N >= pi, lies between pi * scale - 1.56 and pi * scale + 0.79.
    """
    d, big_q = _series_sum(_chudnovsky_p, _chudnovsky_q, _chudnovsky_c, 151931373056000, scale)
    chudnovsky = 426880 * math.isqrt(10005 * scale * scale) * big_q // d
    d, big_q = _series_sum(_ramanujan_p, _ramanujan_q, _ramanujan_c, 96059601, scale)
    ramanujan = 9801 * math.isqrt(32 * scale * scale) * big_q // (16 * d)
    return chudnovsky, ramanujan


# each _pi_fixed value is within this many ulps of pi * scale
_PI_RADIUS = 2


def _agreed_pi(scale: int) -> tuple[int, int]:
    """``_pi_fixed(scale)``, Chudnovsky's value first, once the two agree.

    Each is within ``_PI_RADIUS`` ulps of pi * scale, so they differ by at
    most twice that; more would mean an arithmetic bug, not a math fact,
    and raises PiAgreementError.
    """
    chudnovsky, ramanujan = _pi_fixed(scale)
    if abs(chudnovsky - ramanujan) > 2 * _PI_RADIUS:
        raise PiAgreementError(
            f"pi formulae disagree by more than {2 * _PI_RADIUS} ulps"
            f" at a scale of {scale.bit_length()} bits"
        )
    return chudnovsky, ramanujan


def _round_half_even(n: int, places: int) -> int:
    """n / 10^places, n >= 0 and places >= 1, rounded to an integer,
    ties to the even one."""
    unit = 10**places
    q, r = divmod(n, unit)
    # up past the half way, and at it when q is odd
    return q + (2 * r + q % 2 > unit)


def _round_significant_int(n: int, digits: int) -> int:
    """The int n rounded to ``digits`` significant digits, ties to even:
    the value of ``round_significant(Decimal(n), digits)``, as an int."""
    drop = _decimal_digits(abs(n)) - digits
    if drop <= 0:
        return n
    rounded = _round_half_even(abs(n), drop) * 10**drop
    return rounded if n > 0 else -rounded


def _rounds_alike(value: int, radius: int, precision: int) -> bool:
    """Whether both ends of the ball value +- radius round to the same
    ``precision`` significant digits, ties to even: Ziv's test, on the
    integers. The ends are fixed-point numbers of one scale, which moves
    the decimal point of both alike, so it needs no Decimal."""
    return _round_significant_int(value - radius, precision) == _round_significant_int(
        value + radius, precision
    )


# Guard digits of every certified decimal: ``_ziv`` starts with them and
# doubles them while the rounding is not decided, up to 8 times this start.
_GUARD = 10


def _ziv(ball, digits: int, what=None) -> tuple[tuple[int, int, int], bool]:
    """Ziv's loop (A. Ziv, ACM TOMS 17, 1991) over the caller's ball
    maker: ``ball(guard)`` gives a real as (value, radius, places), a ball
    in ulps of 10^-places that holds ``digits + guard`` significant digits.

    While the two ends of the ball round to different ``digits``-digit
    decimals (``_rounds_alike``), the guard is doubled, up to 8 times its
    start. Returns the last ball and whether its rounding is decided: if
    it is, the true value, which lies between the ends, rounds as they do.
    With ``what``, a ball still undecided at the cap raises ValueError
    instead, whose message starts with ``what()``.
    """
    for guard in (_GUARD, 2 * _GUARD, 4 * _GUARD, 8 * _GUARD):
        value, radius, places = ball(guard)
        if _rounds_alike(value, radius, digits):
            return (value, radius, places), True
    if what:
        raise ValueError(f"{what()}: its rounding is not decided at {guard} guard digits")
    return (value, radius, places), False


def compute_pi(digits: int) -> Decimal:
    """Pi rounded to ``digits`` significant digits, every digit certified.

    Chudnovsky's and Ramanujan's series are evaluated independently and
    must agree (``_agreed_pi``), or PiAgreementError is raised --
    disagreement would mean an arithmetic bug, not a math fact.
    Chudnovsky's value, within ``_PI_RADIUS`` ulps of pi 10^places, is the
    ball ``_ziv`` rounds: it is rounded only when both ends round alike.
    Pi is irrational, so it is never a rounding tie and more guard digits
    decide it; a ball still undecided at the cap raises ValueError. It is
    not cached, so each call computes pi afresh.
    """
    if digits < 10:
        raise ValueError("digits must be >= 10")

    def ball(guard):
        return _agreed_pi(10 ** (digits - 1 + guard))[0], _PI_RADIUS, digits - 1 + guard

    (value, _, places), _ = _ziv(ball, digits, lambda: f"pi to {digits} digits")
    return round_significant(_fixed_decimal(value, places), digits)


@lru_cache(maxsize=4)
def _pi(scale: int) -> tuple[int, int]:
    """``_agreed_pi(scale)``, kept for the few scales a run asks for.

    ``zeta_even_decimal`` reads pi at one binary scale per working
    precision, whatever k, so a table of decimals computes pi once, the
    abel suite and the phi suite's limit targets share one binary scale,
    and so do the cases of the expansion suite (``_bits_for``). The
    values are immutable ints. ``compute_pi`` itself stays uncached, so
    it can be timed and traced as it is.
    """
    return _agreed_pi(scale)


def _bits_for(places: int) -> int:
    """bits with 2^bits >= 10^(places + 1), as 1701/512 > log2(10): the
    binary scale at which a ball is computed for ``places`` decimals."""
    return -(-(places + 1) * 1701 // 512)


def _ball_product(x: int, ex: int, y: int, ey: int, bits: int) -> tuple[int, int]:
    """The ball of X Y from the balls x +- ex of X and y +- ey of Y, with
    x, y >= 0: x is at scale 2^bits, and y and the result at any one scale.

    With X 2^bits = x + d and Y s = y + f, |d| <= ex, |f| <= ey,

        X Y s = (x y + x f + y d + d f) / 2^bits,

    so the floor of x y / 2^bits, which loses under 1 ulp, is within
    (x ey + y ex + ex ey) / 2^bits + 1 ulps of X Y s.
    """
    return x * y >> bits, -(-(x * ey + y * ex + ex * ey) >> bits) + 1


def _ball_power(x: int, ex: int, n: int, bits: int) -> tuple[int, int]:
    """The ball of X^n, n >= 1, from the ball x +- ex of X >= 0 at scale
    2^bits: square-and-multiply over the bits of n, each product a
    ``_ball_product``, so the radius follows every floor and every radius."""
    value, radius = x, ex
    for i in range(n.bit_length() - 2, -1, -1):
        value, radius = _ball_product(value, radius, value, radius, bits)
        if n >> i & 1:
            value, radius = _ball_product(value, radius, x, ex, bits)
    return value, radius


def _ball_quotient(x: int, ex: int, n: int) -> tuple[int, int]:
    """The ball of X / n from the ball x +- ex of X, for an integer n >= 1,
    at the same scale: x / n is within ex / n of X / n, and its floor
    loses under 1 ulp more."""
    return x // n, -(-ex // n) + 1
