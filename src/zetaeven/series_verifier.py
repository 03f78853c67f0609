"""Numerical verification of the series identities behind the recurrence.

The recurrence for r_k = zeta(2k)/pi^(2k) rests on a small stack of
analytic facts about the coefficient family phi_m(u) generated by
2e^t/(e^t + u):

* for u > 1 the generating function's coefficients are also given by
  the convergent series phi_m(u) = -2 sum_{n>=1} n^m/(-u)^n, which makes
  sense for negative m too and is taken as the definition there;
* at u = 1 the limiting values 2(1 - 2^(1-m)) zeta(m) appear (m > 1);
* the weighted sum f_k(u) = sum_{n>=1} u^(-n)/n^(2k) can be rearranged,
  via the cosine power series for cos(n pi) = (-1)^n, into
  f_k(u) = sum_{j>=0} (-1)^j (pi^(2j)/(2j)!) * phi_(2j-2k)(u)/(-2);
* letting u -> 1+ (an Abel limit) turns f_k into zeta(2k).

Nothing here is a proof; each check evaluates both sides of one of
those statements at explicit parameters with explicit, derived error
bounds, and reports the residual against a tolerance that the bounds
justify. Internals use fixed-point integer arithmetic (floor divisions
whose loss is tracked in ulps) so every bound is a statement about
integers, not about rounded floats.

Every verify suite is built here (``run_suite``), the recurrence suite
included: the one place in the library that compares the recurrence
route with the classical Bernoulli formula.

The exact routes and ``reports`` are imported inside the checks that
use them, so a phi evaluation loads only this module and
``numeric_core``; the ``VerificationReport`` in annotations is never
evaluated (PEP 563).
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from collections.abc import Sequence
from decimal import Decimal, ROUND_CEILING, ROUND_UP
from fractions import Fraction

from .numeric_core import (
    _PI_RADIUS, FrozenRecord, HighPrecisionReal, _ball_power, _ball_product, _ball_quotient,
    _bits_for, _decimal_digits, _fixed_decimal, _pi, _rational_decimal, _ziv,
    round_significant,
)

__all__ = [
    "MAX_SERIES_WORK",
    "PhiEvaluation",
    "SeriesBudgetError",
    "SUITES",
    "EXPANSION_CASES",
    "ABEL_DELTAS",
    "PHI_SAMPLE_US",
    "PHI_LIMIT_MS",
    "phi_series",
    "phi_coefficients",
    "phi_taylor_coeff",
    "direct_zeta_partial",
    "abel_limit_check",
    "identity_check_expansion",
    "recurrence_cross_check",
    "run_suite",
]


class PhiEvaluation(FrozenRecord):
    """One evaluation of phi_m(u): value, terms used, proven error bound."""

    __slots__ = ("m", "u", "value", "terms_used", "error_bound")

    def __init__(
        self,
        m: int,
        u: Fraction,
        value: HighPrecisionReal,
        terms_used: int,
        error_bound: HighPrecisionReal,
    ):
        if u < 1:
            raise ValueError("u must be >= 1")
        if terms_used < 1:
            raise ValueError("terms_used must be positive")
        if error_bound.value < 0:
            raise ValueError("error_bound must be nonnegative")
        super().__init__(m, u, value, terms_used, error_bound)


# Work budget of every series (phi_m(u), the phi suite's 2 eta(m) targets
# and f_k(u), all summed by ``_cvz_sum``), in term-digits: the terms of
# every level summed, each weighted by its digit size, the decimal digits
# of the fixed-point numbers times the 64-bit words of y's denominator
# (``_term_digits``). The verify suites ask for at most about 5e5 (the
# abel suite at --digits 80); 5e7 takes about half a second.
MAX_SERIES_WORK = 50_000_000


class SeriesBudgetError(ValueError):
    """A series would need more work than its budget allows."""


_LOG10_2 = math.log10(2)


def _term_digits(bits: int, y_bits: int) -> int:
    """Digit size of one kernel term at the binary scale 2^bits: each
    multiplies and divides a number of that many digits by y's numerator
    and denominator, y_bits long."""
    return math.ceil(bits * _LOG10_2) * _ceil_div(max(y_bits, 1), 64)


def _check_work(what, work: int) -> None:
    """SeriesBudgetError, before any sum, past MAX_SERIES_WORK. ``what()``
    gives the start of its message, so only a refused series builds it."""
    if work > MAX_SERIES_WORK:
        raise SeriesBudgetError(
            f"{what()} about {work} term-digits, over the budget of "
            f"{MAX_SERIES_WORK} term-digits"
        )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ceil_ulps(x, scale: int) -> int:
    """The exact rational x (a Fraction or a Decimal) in ulps of 1/scale,
    rounded up: how an upper bound joins an integer tolerance."""
    a, b = x.as_integer_ratio()
    return _ceil_div(a * scale, b)


_LN_CVZ = math.acosh(3)  # ln(3 + sqrt 8), the rate of the kernel's weights


def _cvz_growth(m: int, n: int) -> int:
    """(2n^2 + 2m)^m, m >= 1: how much m applications of y d/dy can grow
    the truncation error of n weighted terms (``_cvz_sum``)."""
    return (2 * n * n + 2 * m) ** m


def _cvz_terms(bits: int, m: int) -> int:
    """Terms n of ``_cvz_sum`` whose truncation is at most one ulp of 2^-bits.

    For m <= 0, the least n with 2^(bits+2) <= (3+sqrt 8)^n, so
    2 * 2^bits / d_n <= 1. For m >= 1, the least n with
    2^(bits+2) (2n^2+2m)^m <= (3+sqrt 8)^n, found by iterating the
    increasing map n -> ceil(((bits+2) ln 2 + m ln(2n^2+2m))/ln(3+sqrt 8))
    up from the first n. The floats here round, but the kernel's radius
    uses the exact bound, so a short n costs accuracy, never soundness.
    """
    base = (bits + 2) * math.log(2)
    n = math.ceil(base / _LN_CVZ)
    while m > 0:
        longer = math.ceil((base + m * math.log(2 * n * n + 2 * m)) / _LN_CVZ)
        if longer <= n:
            break
        n = longer
    return n


def _terms_before_floor(bits: int, ln_y: float, n: int, m: int) -> int:
    """Estimated count of the k with 2^bits (k+1)^m y^(k+1) >= 1, or
    before the peak k+1 = m/ln_y of those terms, ln_y = ln(1/y), capped at
    n: where ``_cvz_sum`` stops, and what the budgets count. For m <= 0 the
    factor (k+1)^m is left out (it is at most 1).

    For m >= 1 the count is the larger root of x ln_y = bits ln 2 + m ln x,
    whose right side is increasing and concave in x: the fixed-point
    iteration from max(1, bits ln 2/ln_y, m/ln_y) approaches it.
    """
    if ln_y <= 0:
        return n
    target = bits * math.log(2)
    x = target / ln_y
    if m > 0:
        x = max(1.0, x, m / ln_y)
        for _ in range(100):
            x, last = max(1.0, (target + m * math.log(x)) / ln_y), x
            if abs(x - last) < 0.5:
                break
    return min(n, int(x) + 1)


def _cvz_weights(n: int) -> tuple[list[int], int]:
    """The integer weights c_0..c_(n-1) of ``_cvz_sum`` and their d = T_n(3).

    P(x) = T_n(1 - 2x) = sum_j (-1)^j q_j x^j with q_0 = 1 and
    q_(j+1) = q_j * 2(n+j)(n-j)/((j+1)(2j+1)), so q_j = n/(n+j) C(n+j, 2j) 4^j
    and every q_j is a positive integer. c_k = q_(k+1) + ... + q_n and
    d = P(-1) = q_0 + ... + q_n = c_0 + 1. One pass from the back builds
    them: q_n = 4^n/2 = c_(n-1), q_j = q_(j+1) (j+1)(2j+1)/(2(n+j)(n-j)),
    an exact division as q_j is an integer, and c_k = c_(k+1) + q_(k+1).
    The list is the caller's: the kernel scales it in place
    (``_cvz_scaled``).
    """
    q = 1 << 2 * n - 1  # q_n
    c = [q] * n
    for j in range(n - 1, 0, -1):
        q = q * ((j + 1) * (2 * j + 1)) // (2 * (n + j) * (n - j))
        c[j - 1] = c[j] + q
    return c, c[0] + 1


# The last scaled weights of ``_cvz_sum``: ((n, m, bits), b, d), or None.
_cvz_cache = None
_cvz_lock = allocate_lock()


def _cvz_scaled(n: int, m: int, bits: int, terms: int) -> tuple[list[int], int]:
    """The scaled weights b_k = c_k 2^bits (k+1)^m (m >= 0) or
    floor(c_k 2^bits/(k+1)^-m) (m < 0), at least for k < terms, and d, of
    ``_cvz_weights(n)``: the integers of ``_cvz_sum``'s Horner scheme.

    One entry is kept: the phi suite's sample u and limit deltas of one
    m and all the Lewin levels of one f_k ask for the same (n, m, bits).
    It holds the b_k below the largest terms asked since it was built,
    and a longer sum rebuilds it; so do other keys. The raw list is
    scaled in place from the back, each c_k freed as its b_k replaces it
    (from the front, the peak memory of phi_715(3) at 50 digits was 10 %
    higher), and never changed once published. Builds are serialized
    behind a lock.

    It is not an ``lru_cache`` on (n, m, bits), as the decimal contexts
    and pi are, because that would scale all n weights where a sum that
    stops early reads only the first terms: cold, phi_715(3) at 50
    digits took 668 ms against 570 (best of 3) and peaked at 26.9 MiB of
    traced memory against 20.4 (CPython 3.11, 2 cores).
    """
    global _cvz_cache
    key = (n, m, bits)
    with _cvz_lock:
        cached = _cvz_cache
        if cached is None or cached[0] != key or len(cached[1]) < terms:
            cached = _cvz_cache = None  # the old list goes before the new one is built
            b, d = _cvz_weights(n)
            del b[terms:]
            if m >= 0:
                for k in range(terms - 1, -1, -1):
                    b[k] = (b[k] << bits) * (k + 1) ** m
            else:
                for k in range(terms - 1, -1, -1):
                    c = b[k]
                    # for e = -m: once e (bit_length(k+1) - 1) >= bit_length(c_k) + bits,
                    # (k+1)^e > c_k 2^bits and the weight floors to 0, so the power,
                    # which no budget counts, is never built
                    past = -m * ((k + 1).bit_length() - 1) >= c.bit_length() + bits
                    b[k] = 0 if past else (c << bits) // (k + 1) ** -m
            cached = _cvz_cache = key, b, d
    return cached[1], cached[2]


def _cvz_sum(
    m: int, num: int, den: int, bits: int, n: int, estimate: int
) -> tuple[int, int, int]:
    """2 sum_{k>=0} (-1)^k (k+1)^m y^(k+1) for y = num/den, any integer m.

    y lies in (0, 1] for m < 0 and in (0, 1) for m >= 0. Returns
    ``(value, radius, terms)`` in ulps of 2^-bits: the true sum lies
    within radius ulps of value, and terms is how many weighted terms
    were summed. This is Algorithm 1 of Cohen, Rodriguez Villegas and
    Zagier ("Convergence acceleration of alternating series",
    Experimental Math. 9, 2000) with the integer weights of
    ``_cvz_weights``; n sets the accuracy whatever y is
    (``_cvz_terms(bits, m)``). Write a_k = (k+1)^m y^(k+1), S = sum
    (-1)^k a_k and S_n = sum_{k<n} (-1)^k (c_k/d) a_k.

    Weights. With P(x) = sum_j (-1)^j q_j x^j and d = P(-1),
    d - P(x) = sum_j q_j (1 - (-x)^j) and (1 - (-x)^j)/(1 + x) =
    sum_{k<j} (-x)^k, so (d - P(x))/(1 + x) = sum_{k<n} c_k (-x)^k with
    c_k = q_(k+1) + ... + q_n. All q_j are positive and q_0 = 1, so
    0 < c_k <= d - 1 < d, that is 0 <= c_k/d <= 1.

    Truncation, m <= 0. With e = -m, a_k = y^(k+1)/(k+1)^e =
    int_0^1 x^k dmu(x) for a positive measure mu on [0, 1]: y^(k+1) is y
    times the moments of a point mass at y, 1/(k+1)^e are the moments of
    (ln 1/t)^(e-1)/(e-1)! dt (for e = 0 the point mass alone), and a
    product of moment sequences is the moment sequence of the image of
    the product measure under (s, t) -> st. So S = int dmu/(1+x),
    0 < S <= a_0 = y, and S - S_n = int P(x)/((1+x) d) dmu. As
    |P(x)| = |T_n(1 - 2x)| <= 1 on [0, 1], |S - S_n| <= S/d <= y/d. As
    d = T_n(3) = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2 >= (3+sqrt 8)^n/2, the
    error of 2 S_n is at most 4y/(3+sqrt 8)^n, under one ulp for
    n = ``_cvz_terms(bits, m)``; the radius uses 2y/d itself.

    Truncation, m >= 1. The a_k rise before they fall, so they are no
    moment sequence, but the error is still linear in them. With
    theta = y d/dy, a_k = theta^m y^(k+1), so for y < 1 S =
    theta^m[y/(1+y)], S_n = theta^m[y (d - P(y))/((1+y) d)] by the
    weights above, and S - S_n = theta^m[g]/d with g(y) = P(y) y/(1+y).
    Expand theta^m = sum_{j<=m} S(m,j) y^j (d/dy)^j, with S(m,j) the
    Stirling numbers of the second kind.
    - Markov's inequality |p'| <= deg(p)^2 max|p| on [-1, 1], applied j
      times to T_n and carried to [0, 1] by x -> 1 - 2x, which doubles
      each derivative, gives |P^(i)| <= (2n^2)^i on [0, 1].
    - The r-th derivative of y/(1+y) is y/(1+y) <= 1 for r = 0 and
      +-r!/(1+y)^(r+1) past that, so at most r! <= j^r for r <= j.
    - By Leibniz, |g^(j)| <= sum_i C(j,i) (2n^2)^i j^(j-i) = (2n^2 + j)^j.
    - A partition of m things into j blocks is fixed by its j block
      minima and the block of each other thing, so
      S(m,j) <= C(m,j) j^(m-j) <= C(m,j) m^(m-j).
    With y <= 1 and j <= m, |S - S_n| <= sum_j C(m,j) m^(m-j)
    (2n^2 + m)^j / d = (2n^2 + 2m)^m/d (``_cvz_growth``). The radius uses
    2 (2n^2 + 2m)^m/d, at most one ulp for n = ``_cvz_terms(bits, m)``,
    which costs about m ln(2n^2)/1.76 more terms than m <= 0.

    Early stop. Let w = max(m, 0). Past the first K with
    2^bits (K+1)^w y^(K+1) < 1 and rho = ((K+2)/(K+1))^w y < 1 (for
    m >= 1 that is past the peak of the a_k), every term left is below
    one ulp, and each is at most rho times the one before: the ratio
    ((k+2)/(k+1))^m y of the a_k falls with k, and for m < 0 it is at
    most y = rho. The terms from K on are left out; with weights in
    [0, 1] they add at most 2 sum_{k>=K} a_k < 2/(1 - rho) ulps. The
    caller passes ``estimate``, the float guess of K from
    ``_terms_before_floor(bits, ln(1/y), n, m)`` that its work budget has
    already counted; the kernel checks it, and the one before it, exactly,
    and sums all n terms when neither is K, so a wrong guess costs terms,
    never accuracy.

    Floor dust. The sum runs as a Horner scheme from the last term down,
    H_k = b_k - floor(H_(k+1) y) on the scaled weights b_k of
    ``_cvz_scaled``: b_k = c_k 2^bits (k+1)^m for m >= 0 (an exact
    integer) and floor(c_k 2^bits/(k+1)^e) for m < 0, computed once per
    (n, m, bits) and read by every sum of that shape. When den is a
    power of two (y = 1/2, and the Lewin levels past their exact
    fractions, where den = 2^bits) the floor is the same integer taken by
    a shift, which costs less than a division by a many-limb divisor.
    H_0 is close to 2^bits sum_{k<K} (-1)^k c_k a_k/y. Each step adds
    less than 1 to the error of the step before, times y <= 1, so H_0 is
    off by less than K. value = floor(2 y H_0/d) is then off by less than
    1 + 2K/d < 2 ulps. (Summed forward, the incremental y^(k+1) would be
    off by up to k+1 ulps, and each weight would multiply a full-size
    term; from the back, the weights carry d-fold precision and every
    product is by a small integer when y is a small fraction.)
    """
    w = max(m, 0)
    terms = n
    if estimate < n:
        # the K past which the terms floor to 0, checked exactly
        for k in (estimate - 1, estimate):
            rise, fall = (k + 2) ** w * num, (k + 1) ** w * den
            if rise < fall and (k + 1) ** w * num ** (k + 1) << bits < den ** (k + 1):
                terms = k
                break
    b, d = _cvz_scaled(n, m, bits, terms)
    h = 0
    if den & (den - 1):
        for bk in reversed(b[:terms]):
            h = bk - h * num // den
    else:
        shift = den.bit_length() - 1
        for bk in reversed(b[:terms]):
            h = bk - (h * num >> shift)
    value = 2 * num * h // (den * d)
    if m > 0:
        radius = 2 + _ceil_div(2 * _cvz_growth(m, n) << bits, d)
    else:
        radius = 2 + _ceil_div(2 * num << bits, den * d)
    if terms < n:
        radius += _ceil_div(2 * fall, fall - rise)
    return value, radius, terms


def _cvz_decimal(m: int, num: int, den: int, digits: int, what) -> tuple[int, int, int]:
    """``_cvz_sum`` in ulps of 10^-digits, with one more ulp for the conversion.

    Raises SeriesBudgetError past MAX_SERIES_WORK, before summing; its
    message starts with ``what()``. For m >= 1 the digit size of a term
    also counts the bits of the growth factor, which the weights carry,
    and those of (k+1)^m.
    """
    bits = math.ceil(digits / _LOG10_2) + 1
    n = _cvz_terms(bits, m)
    terms = _terms_before_floor(bits, math.log(den) - math.log(num), n, m)
    size = bits + max(m, 0) * ((2 * n * n + 2 * m).bit_length() + n.bit_length())
    _check_work(what, terms * _term_digits(size, den.bit_length()))
    value, radius, terms = _cvz_sum(m, num, den, bits, n, terms)
    ten = 10**digits
    return value * ten >> bits, _ceil_div(radius * ten, 1 << bits) + 1, terms


def _ln_ball(x, digits: int) -> tuple[int, int]:
    """ln x for a rational x > 0 as a ball (value, radius) in ulps of
    10^-digits.

    ln x = -ln(1/x) for x < 1. For x >= 1 one reduction writes
    x = 2^e (1 + y) with 0 <= y < 1, so that 2 ln x = 2 ln(1 + y) +
    e 2 ln 2. Both logarithms are the series kernel's alternating sums
    at m = -1, 2 ln(1 + y) = phi_-1(1/y) = 2 sum_{n>=1} (-1)^(n+1) y^n/n
    (``_cvz_decimal``, about 1.31 terms per digit whatever y), and 2 ln 2
    the same at y = 1. Their balls add, the ln 2 ball e times, and
    halving floors once more.
    """
    if x < 1:
        value, radius = _ln_ball(1 / x, digits)
        return -value, radius
    p, q = x.numerator, x.denominator
    e = (p // q).bit_length() - 1
    value = radius = 0
    if e:
        v, r, _ = _cvz_decimal(-1, 1, 1, digits, lambda: f"ln(2) to {digits} digits needs")
        value, radius = e * v, e * r
    if p != q << e:  # y = p/(q 2^e) - 1, unreduced
        v, r, _ = _cvz_decimal(-1, p - (q << e), q << e, digits, lambda: f"ln({x}) needs")
        value, radius = value + v, radius + r
    return _ball_quotient(value, radius, 2)


def phi_series(m: int, u, precision: int = 50) -> PhiEvaluation:
    """phi_m(u) = 2 sum_{n>=1} (-1)^(n+1) n^m / u^n for u > 1, rounded
    correctly to ``precision`` significant digits.

    For every m the sum is ``_cvz_sum`` at y = 1/u: about 1.31 terms per
    digit at any u > 1, and about m ln(2n^2)/1.76 more for m >= 1. The
    result is the value with its radius, the error bound, and the package's
    one Ziv loop (``_ziv``) sums it again with more guard digits while the
    two ends of that ball round apart. terms counts every term summed,
    retries included. Only the result becomes a Decimal, and its error
    bound is radius/10^digits, one division rounded up to 15 digits.

    Undecided at the loop's cap. For m >= 0 phi_m(u) is rational and may
    sit exactly on a rounding tie, which no guard decides: the value is
    then the exact phi_m(u) (``phi_coefficients``) at the ball's scale,
    cut toward zero and, when that loses a remainder, moved away from zero
    past a last digit of 0 or 5 (ROUND_05UP). It stays inside the ball, and
    rounding it to ``precision`` digits, ties to even, is the correct
    rounding of the exact value, as its last digit is 0 or 5 only when it
    is exact. For m < 0 a ball still undecided raises ValueError.

    Leading zeros. ``precision + guard`` significant digits need
    ``precision + guard + lead`` decimals where |phi_m(u)| >= 10^-lead.
    The first pass takes lead from 1/u, which phi_m(u) exceeds for m < 0.
    For m >= 0 no such bound holds (phi_2(u) = 2u(u-1)/(u+1)^3 vanishes
    at u = 1), so the ball sets the lead: while it certifies fewer than
    ``precision + guard`` digits, the sum is repeated with the lead its
    lower end gives, or with twice the decimals while it holds 0. That
    ends, as phi_m(u) != 0 for rational u > 1. phi_0(u) = 2/(1+u), and
    for m >= 1 phi_m(u) = -2 Li_-m(-1/u) with
    Li_-m(x) = x A_m(x)/(1-x)^(m+1): the first and last coefficients of
    the Eulerian polynomial A_m are 1, so its only possible rational
    roots are +-1, and -1/u is neither. Each pass checks the budget.

    Raises SeriesBudgetError, before summing, when a pass would need more
    than MAX_SERIES_WORK term-digits.
    """
    if not isinstance(u, Fraction):
        u = Fraction(u)
    p, q = u.numerator, u.denominator
    if p <= q:
        raise ValueError("series needs u > 1")
    if precision < 10:
        raise ValueError("precision must be >= 10")
    lead = math.ceil(_ceil_div(p, q).bit_length() * _LOG10_2)
    terms = 0
    needs = lambda: f"phi_{m}({u}) to {precision} digits needs"

    def ball(guard):
        nonlocal lead, terms
        while True:
            digits = precision + guard + lead
            value, radius, used = _cvz_decimal(m, q, p, digits, needs)
            terms += used
            certain = abs(value) - radius  # |phi_m(u)| >= certain 10^-digits
            if certain >= 10 ** (precision + guard):
                return value, radius, digits
            # one spare digit, so that the next pass clears this test
            lead = digits + 2 - _decimal_digits(certain) if certain > 0 else lead + digits

    # only a rational phi_m(u), m >= 0, may be left undecided (a tie)
    what = None if m >= 0 else lambda: f"phi_{m}({u}) to {precision} digits"
    (value, radius, digits), decided = _ziv(ball, precision, what)
    if not decided:
        exact = phi_coefficients(u, m)[m]
        value, rest = divmod(abs(exact.numerator) * 10**digits, exact.denominator)
        if rest and value % 5 == 0:
            value += 1
        value = value if exact > 0 else -value
    return PhiEvaluation(
        m=m,
        u=u,
        value=HighPrecisionReal(_fixed_decimal(value, digits), precision),
        terms_used=terms,
        error_bound=HighPrecisionReal(
            _rational_decimal(Fraction(radius, 10**digits), 15, ROUND_CEILING), 15
        ),
    )


def phi_coefficients(u, m_max: int) -> list[Fraction]:
    """Exact phi_0(u), ..., phi_m_max(u): Taylor coefficients of 2e^t/(e^t + u).

    Matching coefficients of t^m/m! in (e^t + u) * F(t) = 2e^t gives

        (1 + u) phi_m = 2 - sum_{j<m} C(m, j) phi_j,

    O(m_max^2) multiplications in all. At u = 1 this is the Euler
    polynomial recurrence for E_m(1). The recurrence runs on integers:
    with u = p/q and s = p + q, N_m = phi_m * s^(m+1) satisfies

        N_m = q * (2 s^m - sum_{j<m} C(m, j) N_j s^(m-j-1)).

    The list keeps each term with its weight: before step m it holds the
    integers C(m, j) N_j s^(m-1-j) for j < m, so N_m is one sum. Moving
    to m + 1 multiplies every term by (m+1) s and divides it by m+1-j;
    the division is exact because its quotient is C(m+1, j) N_j s^(m-j),
    a product of integers. Then (m+1) N_m joins the list. One running
    power carries s^m. No gcd is taken inside the recurrence; each
    returned Fraction is reduced once.
    """
    u = Fraction(u)
    if u < 1:
        raise ValueError("u must be >= 1")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    p, q = u.numerator, u.denominator
    s = p + q
    values: list[Fraction] = []
    terms: list[int] = []  # C(m, j) N_j s^(m-1-j) for j < m
    power = 1  # s^m
    for m in range(m_max + 1):
        scaled = q * (2 * power - sum(terms))  # N_m
        power *= s
        values.append(Fraction(scaled, power))
        scale = (m + 1) * s
        terms = [term * scale // (m + 1 - j) for j, term in enumerate(terms)]
        terms.append((m + 1) * scaled)
    return values


def phi_taylor_coeff(m: int, u) -> Fraction:
    """Exact phi_m(u) as a Taylor coefficient of 2e^t/(e^t + u).

    The entry m of ``phi_coefficients(u, m)``.
    """
    if m < 0:
        raise ValueError("coefficient extraction needs m >= 0")
    return phi_coefficients(u, m)[m]


def direct_zeta_partial(k: int, N: int) -> tuple[HighPrecisionReal, HighPrecisionReal]:
    """Partial sum of zeta(2k) with its integral-test tail bound.

    Returns ``(value, tail_high)``, and

        value < zeta(2k) < value + tail_high

    holds exactly. value floors each of the N terms at the working scale
    and is converted to a Decimal exactly, so it sits below the true
    partial sum S_N, and so below zeta(2k), by less than N ulps.
    tail_high is the integral of x^-2k over [N, oo), N^(1-2k)/(2k-1),
    rounded up. The terms are convex, so n^-2k is at most the integral
    over [n - 1/2, n + 1/2], the true tail is at most the integral over
    [N + 1/2, oo), and tail_high exceeds it by more than (N+1)^-2k / 2.
    The scale exceeds 4N(N+1)^2k, which keeps the floor loss below half
    of that slack; it is also at least 10^(60 + digits of N), so value
    carries its 50 digits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    e = 2 * k
    work = max(60 + _decimal_digits(N), _decimal_digits(4 * N * (N + 1) ** e))
    scale = 10**work
    total = 0
    for n in range(1, N + 1):
        total += scale // n**e
    tail = Fraction(1, (2 * k - 1) * N ** (2 * k - 1))
    return (
        HighPrecisionReal(_fixed_decimal(total, work), 50),
        HighPrecisionReal(_rational_decimal(tail, 50, ROUND_CEILING), 50),
    )


def _reciprocal_power_sum(k: int, u: Fraction, scale: int) -> tuple[int, int, int]:
    """Fixed-point f_k(u) = Li_2k(x), x = 1/u: ``(value, radius, terms)``.

    value and radius are in ulps of 1/scale, and f_k(u) lies within
    radius of value; terms counts the weighted terms summed.

    Plan. Raises SeriesBudgetError past MAX_SERIES_WORK before any level
    is summed. The work is estimated level by level, as the sum runs the
    levels: y = x^(2^i) is kept as a fraction until its denominator
    outgrows the scale, the kernel's terms floor to 0 once
    (k+1) 2^i ln u exceeds bits ln 2, and the levels end when x^(2^i)
    itself does. The estimate feeds only the budget and the guard bits.
    For u within a float's resolution of 1, 2 bits + 2 levels bound the
    count: 2^bits - z grows by at least half per squaring until
    z <= 2^bits/2, and then z squares away.

    Lewin's duplication formula (L. Lewin, "Polylogarithms and
    Associated Functions", 1981; DLMF 25.12),
    Li_s(x) = 2^(1-s) Li_s(x^2) - Li_s(-x), applied J times gives

        Li_s(x) = sum_{i<J} 2^(-i(s-1)) A(x^(2^i)) + 2^(-J(s-1)) Li_s(x^(2^J)),

    s = 2k, where A(y) = -Li_s(-y) is half the alternating sum of
    ``_cvz_sum``. Level i hands the kernel y = x^(2^i) as an exact
    fraction while its denominator fits the binary scale 2^bits; from
    there on y is z/2^bits, squared as an integer,
    z_(i+1) = floor(z_i^2/2^bits), until it floors to 0. Each level's
    kernel stops once its own terms floor to 0.

    Radius, per level: the kernel's radius, shifted down with the level
    weight, plus 1 for that shift's floor, plus the squaring error. z_i
    misses 2^bits x^(2^i) by e_i < 2^(i+1) ulps (e_(i+1) <= 2 e_i + 1;
    0 while y is exact, below 1 where it turns into z), and A is
    1-Lipschitz on [0, 1] (A'(y) is an alternating sum with decreasing
    terms and first term 1), so level i is off by at most
    2^(-i(s-1)) e_i < 2 ulps: the level weight cancels the doubling, and
    a few guard bits for the level count suffice. The remainder, at the
    level J where z_J = 0, is at most 2^(-J(s-1)) zeta(s) e_J < 4 ulps
    (Li_s(t) <= zeta(s) t <= 2t). Converting to the caller's scale adds 1.
    """
    s = 2 * k
    num, den = u.denominator, u.numerator
    ln_u = math.log(den) - math.log(num) if den >= 2 * num else math.log1p((den - num) / num)
    levels = 2 * scale.bit_length() + 2
    if ln_u > 0:
        levels = min(levels, max(1, math.ceil(math.log2(scale.bit_length() / ln_u)) + 2))
    # about 7 ulps of radius per level: enough guard bits to hide them
    bits = scale.bit_length() + (8 * levels + 8).bit_length()
    n = _cvz_terms(bits, -s)
    work = 0
    for level in range(levels):
        y_bits = min(2**level * den.bit_length(), bits + 1)
        work += _terms_before_floor(bits, 2**level * ln_u, n, -s) * _term_digits(bits, y_bits)
    _check_work(lambda: f"f_{k}({u}) needs", work)
    one = 1 << bits
    total = radius = terms = level = 0
    while num:
        estimate = _terms_before_floor(bits, math.log(den) - math.log(num), n, -s)
        value, r, used = _cvz_sum(-s, num, den, bits, n, estimate)
        shift = level * (s - 1) + 1
        total += value >> shift
        radius += _ceil_div(r, 1 << shift) + 3
        terms += used
        level += 1
        if den == one:
            num = num * num >> bits
        else:
            num, den = num * num, den * den
            if den > one:
                num, den = (num << bits) // den, one
    radius += 4
    return total * scale >> bits, _ceil_div(radius * scale, one) + 1, terms


def _polylog_gap(s: int, delta: Fraction) -> Fraction:
    """Proven upper bound, an exact rational, on zeta(s) - Li_s(x) =
    sum_n (1 - x^n)/n^s, s >= 2, x = 1/(1 + delta).

    The abel suite's gap zeta(2k) - f_k(1 + delta) is this at s = 2k; the
    phi suite's |2 eta(m) - phi_-m(1 + delta)| = 2 |sum_n (-1)^(n+1)
    (1 - x^n)/n^m| is at most twice this at s = m. With eps = 1 - x =
    delta/(1+delta):

    s = 2:  the integral form of the deficit, integral_x^1 ln(1/(1-t))/t dt,
            is at most (1/x) * eps * (1 + ln(1/eps)), which simplifies to
            delta * (1 + delta + ln(1/delta)) after ln(1+delta) <= delta;
            ln(1/delta) is taken from above, as the upper end of its ball
            at 40 decimals (``_ln_ball``).
    s >= 3: termwise 1 - x^n <= n*eps gives eps * zeta(s-1), and the
            integral bound zeta(s-1) <= 1 + 1/(s-2) finishes it off.
    """
    p, q = delta.numerator, delta.denominator
    if s == 2:
        value, radius = _ln_ball(Fraction(q, p), 40)
        return Fraction(p * ((q + p) * 10**40 + (value + radius) * q), q * q * 10**40)
    return Fraction(p * (s - 1), q * (s - 2))


def abel_limit_check(k: int, deltas: Sequence, precision: int = 50) -> VerificationReport:
    """Watch f_k(1 + delta) climb toward zeta(2k) as delta shrinks.

    Evaluates the series at u = 1 + delta for each delta, requires the
    residuals zeta(2k) - f_k(1 + delta) to be positive and strictly
    decreasing, and judges the final residual against the proven
    delta-dependent bound from ``_polylog_gap`` at s = 2k. Everything is
    an integer ball in ulps of 10^-(precision + 10): zeta(2k) is
    ``_zeta_even_ball`` at that scale, f_k(1 + delta) is
    ``_reciprocal_power_sum``, and each residual's radius is the sum of
    theirs. Positive means the whole ball lies above 0, and decreasing
    means each ball lies wholly below the one before. A broken residual
    ordering is reported with tolerance -1 (failed by construction). The
    tolerance is the gap bound rounded up to the scale plus the last
    ball's radius, an integer number of ulps; the rhs printed is the
    zeta ball's value to precision + 5 digits.

    The sums run smallest delta first, and the zeta target comes after
    them. The smallest delta needs the most terms, so past
    MAX_SERIES_WORK its sum is refused by its own budget check, before
    any other sum and before pi. The terms and residuals are reported in
    the order of ``deltas``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if precision < 10:
        raise ValueError("precision must be >= 10")
    deltas = [Fraction(d) for d in deltas]
    if not deltas:
        raise ValueError("at least one delta is required")
    if any(d <= 0 for d in deltas):
        raise ValueError("every delta must be positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must decrease strictly")
    from .reports import VerificationReport
    from .zeta_recurrence import _zeta_even_ball

    places = precision + 10
    scale = 10**places
    # smallest delta first: past the budget, the costliest sum is refused
    # before any other sum and before pi
    sums = [_reciprocal_power_sum(k, 1 + d, scale) for d in reversed(deltas)][::-1]
    target, target_radius = _zeta_even_ball(k, places, _bits_for(places))
    balls = [(target - total, radius + target_radius) for total, radius, _ in sums]
    total = sums[-1][0]

    from_below = all(r > rr for r, rr in balls)
    monotone = from_below and all(b + rb < a - ra for (a, ra), (b, rb) in zip(balls, balls[1:]))
    residuals = [_fixed_decimal(r, places) for r, _ in balls]
    gap = _ceil_ulps(_polylog_gap(2 * k, deltas[-1]), scale)
    tolerance = _fixed_decimal(gap + balls[-1][1], places) if monotone else Decimal(-1)
    return VerificationReport(
        identity_name="zeta_even_abel_limit",
        parameters={
            "k": k,
            "deltas": ",".join(str(d) for d in deltas),
            "precision": precision,
            "terms": ",".join(str(terms) for _, _, terms in sums),
            "residuals": ",".join(str(round_significant(r, 12)) for r in residuals),
            "monotone_from_below": monotone,
        },
        lhs=round_significant(_fixed_decimal(total, places), precision),
        rhs=round_significant(_fixed_decimal(target, places), precision + 5),
        residual=HighPrecisionReal(residuals[-1], precision),
        tolerance=HighPrecisionReal(tolerance, precision),
    )


def identity_check_expansion(
    k: int,
    u,
    J_max: int,
    precision: int = 50,
    tolerance: Decimal | str | None = None,
) -> VerificationReport:
    """Check f_k(u) against its rearrangement into pi-power phi terms.

    lhs: f_k(u) from ``_reciprocal_power_sum``, within its own radius.
    rhs: sum_{j=0}^{J_max} (-1)^(j+1) * (pi^(2j)/(2j)!) * phi_(2j-2k)(u)/2,
    with exact Taylor-route phi for 2j >= 2k and kernel-summed series phi
    below that.

    The j-terms do *not* decay factorially: phi_M(u) itself grows like
    M!/R^(M+1) with R^2 = ln(u)^2 + pi^2 (the generating function's
    nearest poles sit at ln(u) +/- i*pi), which cancels the 1/(2j)! and
    leaves geometric decay at rate (pi/R)^2 -- slow for u near 1. The
    default tolerance is therefore a certified envelope for the dropped
    tail: |phi_M(u)| <= C * M!/R^(M+1) for the M >= 2 reached here, with
    C proven from the pole expansion of phi (``_pole_constant``), summed
    geometrically and rounded up (``_expansion_tail_envelope``). Passing
    the check means the residual is inside what the truncation provably
    allows; pass an explicit ``tolerance`` (a Decimal or a decimal
    string) to demand more than the bound can promise.

    Both sides are integer balls in ulps of 10^-w, w = precision + 15.
    The rhs term j is c_j phi with c_j = pi^(2j)/(2 (2j)!): pi^(2j) is a
    ball at the binary scale 2^bits >= 10^(w+1) (``_bits_for``), stepped
    from pi^(2j-2) by one ``_ball_product`` with the pi^2 ball, and
    2 (2j)! an exact integer stepped by (2j-1) 2j. c_j itself is never
    rounded: at J_max = 200 it is about 10^-670 while phi_398(3/2) is
    about 10^652, so a fixed-point c_j would carry no digit of the term.
    An exact phi is floored once at 10^-w (radius 1); a series phi is the
    kernel's ball (``_cvz_decimal``). The term is one ``_ball_product`` of
    the pi-power ball with |phi|, then one ``_ball_quotient`` by
    2 (2j)!, so the residual lhs - rhs is one ball whose radius is an
    integer sum, and the default tolerance is the envelope plus that
    radius, in ulps.

    The first omitted term (exact phi route) is recorded in the report
    parameters so deliberate under-truncation can be judged against it.
    """
    u = Fraction(u)
    if k < 1:
        raise ValueError("k must be >= 1")
    if u <= 1:
        raise ValueError("the rearrangement is checked strictly above u = 1")
    if J_max < k:
        raise ValueError("J_max must be at least k so the tail envelope applies")
    if precision < 10:
        raise ValueError("precision must be >= 10")
    from .reports import VerificationReport
    from .zeta_recurrence import _pi_power_ball

    work = precision + 15
    scale = 10**work
    # the lhs first: past its work budget it refuses before pi is computed
    total, lhs_radius, lhs_terms = _reciprocal_power_sum(k, u, scale)
    bits = _bits_for(work)
    pi_square = _pi_power_ball(1, bits)
    # exact phi_0..phi_{m_next}; m_next indexes the first omitted term
    m_next = 2 * (J_max + 1) - 2 * k
    exact_phi = phi_coefficients(u, m_next)

    power, power_radius, factorial = 1 << bits, 0, 2  # pi^(2j) 2^bits and 2 (2j)!
    rhs, radius = 0, lhs_radius
    for j in range(J_max + 2):
        if j:
            power, power_radius = _ball_product(power, power_radius, *pi_square, bits)
            factorial *= (2 * j - 1) * 2 * j
        mi = 2 * j - 2 * k
        if mi < 0:
            what = lambda: f"phi_{mi}({u}) to {work} digits needs"
            phi, phi_radius, _ = _cvz_decimal(mi, u.denominator, u.numerator, work, what)
        else:
            a, b = exact_phi[mi].as_integer_ratio()
            phi, phi_radius = _ball_quotient(a * scale, 0, b)
        if j > J_max:
            break
        product = _ball_product(power, power_radius, abs(phi), phi_radius, bits)
        term, term_radius = _ball_quotient(*product, factorial)
        rhs += term if (j % 2 == 1) == (phi >= 0) else -term
        radius += term_radius

    if tolerance is None:
        envelope = _expansion_tail_envelope(k, u, J_max, work)
        tolerance = _fixed_decimal(envelope + radius, work) if envelope else Decimal("Infinity")
    # the actual first omitted term, j = J_max + 1, with its exact phi
    # (2(J+1) >= 2k) a/b, at the pi power's midpoint
    first_omitted = _rational_decimal(Fraction(power * abs(a), factorial * b << bits), 15)

    return VerificationReport(
        identity_name="cosine_series_rearrangement",
        parameters={
            "k": k,
            "u": u,
            "jmax": J_max,
            "precision": precision,
            "lhs_terms": lhs_terms,
            "first_omitted": first_omitted,
        },
        lhs=round_significant(_fixed_decimal(total, work), precision),
        rhs=round_significant(_fixed_decimal(rhs, work), precision),
        residual=HighPrecisionReal(_fixed_decimal(total - rhs, work), precision),
        tolerance=HighPrecisionReal(Decimal(tolerance), 15),
    )


def _pole_constant(b_up: Fraction, inv_b_up: Fraction, pi_up: Fraction, M: int) -> Fraction:
    """Upper bound on C_M = 4 sum_{n>=0} (R_0/R_n)^(M+1), M >= 2.

    2e^t/(e^t + u) has simple poles of residue 2 at
    z_n = ln u + (2n+1) i pi, n in Z, so for M >= 1
    phi_M(u) = -2 M! sum_n z_n^-(M+1). Poles n and -1-n are conjugate,
    |z_n| = R_n with R_n^2 = ln(u)^2 + (2n+1)^2 pi^2, so
    |phi_M(u)| <= C_M M!/R_0^(M+1). No ratio R_0/R_n exceeds 1, so C_M
    does not grow with M.

    An integral closes the n-sum. With b = ln(u)/pi the terms are
    h(2n+1) for the decreasing h(x) = ((b^2+1)/(b^2+x^2))^((M+1)/2), and
    h(2n+1) is at most the mean of h over [2n-1, 2n+1], so the sum is at
    most 1 + (1/2) int_1^oo h. Substituting x = b tan(t),
    t_1 = arctan(1/b), gives
    int_1^oo h = (b + 1/b) int_{t_1}^{pi/2} (cos t/cos t_1)^(M-1) dt.
    As cos t <= cos t_1 cos(t - t_1), that integral is at most its
    interval length arctan(b) <= min(b, pi/2), and at most the Wallis
    integral int_0^{pi/2} cos^(M-1) <= sqrt(pi/(2(M-1))). Hence

        C_M <= 4 + 2 (b + 1/b) min(b, pi/2, sqrt(pi/(2(M-1)))),

    evaluated exactly on the rationals b_up >= b, inv_b_up >= 1/b and
    pi_up >= pi. The square root is bounded on the denominator t of
    pi_up: sqrt(x) <= sqrt(ceil(x t^2))/t < (isqrt(ceil(x t^2)) + 1)/t.
    """
    t, x = pi_up.denominator, pi_up / (2 * (M - 1))
    wallis_up = Fraction(math.isqrt(_ceil_div(x.numerator * t * t, x.denominator)) + 1, t)
    return 4 + 2 * (b_up + inv_b_up) * min(b_up, pi_up / 2, wallis_up)


def _expansion_tail_envelope(k: int, u: Fraction, J_max: int, work: int) -> int | None:
    """Certified bound on the dropped j > J_max tail of the rearrangement,
    rounded up to ulps of 10^-work, or None where no finite bound is
    certified at that scale.

    The j-term is pi^(2j)/(2j)! * |phi_M(u)|/2 with M = 2j - 2k, and
    |phi_M(u)| <= C M!/R^(M+1), R = R_0, with C the bound of
    ``_pole_constant`` at the first omitted M (it covers every later M),
    or 8 wherever that bound is at most 8. The per-term envelope
    (C/2) * M! * pi^(2j) / (R^(M+1) * (2j)!) has a term ratio below
    q = (pi/R)^2 < 1; the tail is the first envelope term over (1 - q).
    With N = 2 (J_max + 1) and M = N - 2k, pi^N/R^(M+1) = q^(N/2) R^(2k-1),
    so the tail is (C/2) M!/N! q^(N/2) R^(2k-1)/(1 - q).

    Every input is an integer bound at the binary scale T = 2^bits of
    ``_bits_for(work)``, taken from the safe end of its ball: pi from
    the ``_pi`` ball (within _PI_RADIUS ulps), and ln u from ``_ln_ball``
    at work digits, floored for its lower end and ceiled for its upper
    end. So R^2 T^2 >= ln_low^2 + pi_low^2 =: S, 1 - q >= (S - pi_up^2)/S,
    which must be positive, R T < isqrt(ln_up^2 + pi_up^2) + 1, and
    q T^2 <= ceil(pi_up^2 T^2/S), whose power by ``_ball_power`` at the
    scale T^2, where its floors stay far below one ulp of the result, is
    at most its ball's upper end. One exact division, rounded up, ends it.
    """
    bits = _bits_for(work)
    pi = _pi(1 << bits)[0]
    pi_low, pi_up = pi - _PI_RADIUS, pi + _PI_RADIUS
    ln, ln_radius = _ln_ball(u, work)
    ln_low = (max(ln - ln_radius, 0) << bits) // 10**work
    ln_up = _ceil_div(ln + ln_radius << bits, 10**work)
    r2_low = ln_low * ln_low + pi_low * pi_low
    gap = r2_low - pi_up * pi_up
    if gap <= 0:
        # u so close to 1 that this scale cannot separate R from pi; a
        # report judged against no finite bound fails
        return None
    m_next = 2 * (J_max + 1) - 2 * k
    b_up, inv_b_up = Fraction(ln_up, pi_low), Fraction(pi_up, ln_low)
    c_up = _pole_constant(b_up, inv_b_up, Fraction(pi_up, 1 << bits), m_next)
    ratio = Fraction(math.factorial(m_next), math.factorial(2 * (J_max + 1)))
    a, b = ((4 if c_up <= 8 else c_up / 2) * ratio).as_integer_ratio()
    q_power = sum(_ball_power(_ceil_div(pi_up**2 << 2 * bits, r2_low), 0, J_max + 1, 2 * bits))
    r_up = math.isqrt(ln_up * ln_up + pi_up * pi_up) + 1
    tail = a * q_power * r_up ** (2 * k - 1) * r2_low * 10**work
    return _ceil_div(tail, b * gap << (2 * k + 1) * bits)


def recurrence_cross_check(k_max: int) -> VerificationReport:
    """Compare the recurrence against the classical formula for k <= k_max.

    Both routes are exact, so the comparison is exact rational equality;
    the report's residual is the number of mismatching indices and the
    tolerance is zero. Expected: zero mismatches for every k.

    With r_k = a/b and B_2k = p/q, b, q > 0, r_k equals the classical
    2^(2k-1) |B_2k|/(2k)! exactly when a q (2k)! = 2^(2k-1) |p| b: one
    cross-multiplication, with (2k)! stepped along, which holds whether
    or not the pairs are reduced. So it reads both tables' unreduced
    pairs (``_pair``), and only the entries the report prints become
    Fractions: r_k and 2^(2k-1) |B_2k|/(2k)! at the first mismatching k,
    or at k_max, whose r_k is the read that built the table.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    from .euler_bernoulli import _default_bernoulli, bernoulli, zeta_even_via_euler
    from .reports import VerificationReport
    from .zeta_recurrence import _shared_table, zeta_even_ratio

    # each table is built once, for k_max, not extended k by k
    last = zeta_even_ratio(k_max)
    bernoulli(2 * k_max)
    mismatches = []
    factorial = 1  # (2k)!
    for k in range(1, k_max + 1):
        factorial *= (2 * k - 1) * 2 * k
        (a, b), (p, q) = _shared_table._pair(k - 1), _default_bernoulli._pair(2 * k)
        if a * q * factorial != abs(p) * b << 2 * k - 1:
            mismatches.append(k)
    first_bad = mismatches[0] if mismatches else k_max
    return VerificationReport(
        identity_name="zeta_even_recurrence_vs_euler_formula",
        parameters={
            "k_max": k_max,
            "mismatch_indices": ",".join(map(str, mismatches)),
        },
        lhs=last if first_bad == k_max else zeta_even_ratio(first_bad),
        rhs=zeta_even_via_euler(first_bad),
        residual=HighPrecisionReal(Decimal(len(mismatches)), 50),
        tolerance=HighPrecisionReal(Decimal(0), 50),
    )


# The cases the verify suites check.
EXPANSION_CASES = ((1, Fraction(3, 2)), (2, Fraction(2)), (3, Fraction(3, 2)))
ABEL_DELTAS = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
PHI_SAMPLE_US = (Fraction(3, 2), Fraction(2), Fraction(3))
PHI_LIMIT_MS = (2, 3, 4, 6)

# The verify suites, in the order ``verify --suite all`` runs them: each
# takes run_suite's knobs kmax, digits, jmax and tolerance.
_SUITE_RUNS = {
    "recurrence": lambda kmax, digits, jmax, tolerance: [recurrence_cross_check(kmax)],
    "expansion": lambda kmax, digits, jmax, tolerance: [
        identity_check_expansion(k, u, jmax, digits, tolerance=tolerance)
        for k, u in EXPANSION_CASES
    ],
    "abel": lambda kmax, digits, jmax, tolerance: [
        abel_limit_check(k, ABEL_DELTAS, digits) for k in (1, 2)
    ],
    "phi": lambda kmax, digits, jmax, tolerance: _phi_suite(digits, tolerance),
}
SUITES = tuple(_SUITE_RUNS)


def run_suite(
    name: str,
    kmax: int = 50,
    digits: int = 50,
    jmax: int = 25,
    tolerance: Decimal | str | None = None,
) -> list[VerificationReport]:
    """The reports of one verify suite; ``name`` is one of SUITES.

    kmax is the depth of the recurrence cross-check, jmax the truncation
    of the expansion suite and digits the working precision of the
    others. tolerance (a Decimal, or anything ``Decimal()`` reads
    exactly, such as a decimal string) overrides the derived tolerances
    of the expansion and phi suites; recurrence and abel keep their own.

    Every knob is checked before any suite runs, whether or not this
    suite uses it, and a ValueError names the knob that is out of range.
    """
    for knob, value, low in (
        ("kmax", kmax, 1),
        ("digits", digits, 10),
        ("jmax", jmax, max(k for k, _ in EXPANSION_CASES)),
    ):
        if value < low:
            raise ValueError(f"{knob} must be >= {low}")
    if name not in _SUITE_RUNS:
        raise ValueError(f"unknown suite {name!r}, expected one of {', '.join(SUITES)}")
    if tolerance is not None:
        tolerance = Decimal(tolerance)
    return _SUITE_RUNS[name](kmax, digits, jmax, tolerance)


def _two_eta(m: int, digits: int) -> tuple[int, int]:
    """2 eta(m) = 2(1 - 2^(1-m)) zeta(m) = phi_-m(1) as a ball (value,
    radius) in ulps of 10^-(digits + 10).

    The phi suite's limit target at even m is the same number from the
    zeta ball; at odd m, where the recurrence gives no closed form, it is
    ``_cvz_sum`` at y = 1. Raises SeriesBudgetError, before summing, past
    MAX_SERIES_WORK.
    """
    if m < 1:
        raise ValueError("eta(m) needs m >= 1")
    if m % 2 == 0:
        from .zeta_recurrence import _zeta_even_ball

        # 2 (1 - 2^(1-m)) = (2^(m-1) - 1)/2^(m-2)
        value, radius = _zeta_even_ball(m // 2, digits + 10, _bits_for(digits + 10))
        return _ball_quotient(((1 << m - 1) - 1) * value, ((1 << m - 1) - 1) * radius, 1 << m - 2)
    what = lambda: f"2 eta({m}) to {digits} digits needs"
    return _cvz_decimal(-m, 1, 1, digits + 10, what)[:2]


def _phi_suite(digits: int, tolerance: Decimal | None) -> list[VerificationReport]:
    """phi_series against the exact coefficients at the sample u, then
    phi_-m(1 + delta) against its limit 2 eta(m) at u = 1.

    Each residual is lhs - rhs on exact operands: the evaluation's value,
    an exact fixed-point Decimal, minus the exact target, the
    ``phi_coefficients`` Fraction or, for a limit, the midpoint of the
    ``_two_eta`` ball. The exact values reach about 1e8, where even 55
    significant digits of the target would carry more absolute error
    than the series' own bound, so nothing is rounded before the
    subtraction. The finished residual is rounded once, to digits + 30
    significant digits and away from zero, which changes it only where it
    does not terminate within them; so its magnitude is never below the
    true one, and rounding can fail a report but never pass one. An
    exactly zero residual keeps the evaluation's scale.
    """
    from .reports import VerificationReport

    def compare(identity, m, u, evaluation, exact, rhs, bound):
        # judged against bound (a 15-digit HighPrecisionReal) or the override
        value = evaluation.value.value
        residual = Fraction(value) - exact
        residual = (_rational_decimal(residual, digits + 30, ROUND_UP) if residual
                    else _fixed_decimal(0, -value.as_tuple().exponent))
        return VerificationReport(
            identity_name=identity,
            parameters={"m": m, "u": u, "precision": digits, "terms": evaluation.terms_used},
            lhs=evaluation.value,
            rhs=rhs,
            residual=HighPrecisionReal(residual, digits),
            tolerance=bound if tolerance is None else HighPrecisionReal(tolerance, 15),
        )

    # summed m-major: the kernel's (n, m, bits) depends on m and the
    # digits, not on u, so the sample u share each m's scaled weights,
    # the longest sum (u = 3/2) first; reported u-major
    ms = range(21)
    evaluations = [[phi_series(m, u, digits) for u in PHI_SAMPLE_US] for m in ms]
    reports = [
        compare("phi_series_vs_coefficients", m, u, evaluations[m][i], exact, exact,
                evaluations[m][i].error_bound)
        for i, u in enumerate(PHI_SAMPLE_US)
        for m, exact in enumerate(phi_coefficients(u, ms[-1]))
    ]
    # the limits in ulps of 10^-places: the target's ball, and a tolerance
    # of twice the polylog gap, the series bound and the target's radius;
    # the gaps first, as their logarithms sum with other kernel weights
    places = digits + 10
    scale = 10**places
    for m in PHI_LIMIT_MS:
        value, target_radius = _two_eta(m, digits)
        target = round_significant(_fixed_decimal(value, places), digits)
        gaps = [_ceil_ulps(_polylog_gap(m, delta), scale) for delta in ABEL_DELTAS]
        for delta, gap in zip(ABEL_DELTAS, gaps):
            u = 1 + delta
            evaluation = phi_series(-m, u, digits)
            bound = 2 * gap + target_radius + _ceil_ulps(evaluation.error_bound.value, scale)
            reports.append(
                compare("phi_negative_index_limit", m, u, evaluation, Fraction(value, scale),
                        target, HighPrecisionReal(_fixed_decimal(bound, places), 15))
            )
    return reports
