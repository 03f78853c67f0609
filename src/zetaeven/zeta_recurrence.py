"""Even zeta values as exact rational multiples of pi powers.

Everything here revolves around the ratio r_k = zeta(2k)/pi^(2k), which
is a rational number for every k >= 1. The ratios satisfy a recurrence
that never touches Bernoulli numbers:

    (1 - 4^-k) * r_k
        = sum_{m=1}^{k-1} (-1)^(k-m+1) * (1/2 - 4^-m) * r_m / (2k-2m)!
          - (-1)^k / (4 * (2k)!)

with the empty sum at k = 1 giving r_1 = 1/6 directly. The recurrence
drops out of rearranging the cosine power series inside the alternating
double sum sum_n sum_j (-1)^(n+j) (n pi)^(2j) / ((2j)! n^(2k) u^n) and
letting u -> 1+; the series-identity checks that justify each of those
steps live in the verifier module. The classical Bernoulli-based formula
is checked against this route by the verify recurrence suite in
``series_verifier``; this module imports nothing from the package but
``numeric_core``, so nothing from the Bernoulli route reaches it.

All table arithmetic is exact (big integers and Fraction; see
``ZetaEvenTable`` for the integer form the recurrence runs in). Decimals
only appear in ``zeta_even_decimal``, which turns r_k pi^(2k) into a
certified decimal at the very end: it carries an integer ball -- a
value and a radius that bounds its error -- from pi through pi^(2k) to
r_k pi^(2k), and prints only when both ends of the ball round alike.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numeric_core import (
    _PI_RADIUS, _ExactTable, _ball_power, _ball_product, _bits_for, _fixed_decimal, _pi, _ziv,
    positional_str, round_significant,
)

__all__ = [
    "ZetaEvenTable",
    "zeta_even_ratio",
    "zeta_even_table",
    "zeta_even_decimal",
]


class ZetaEvenTable(_ExactTable):
    """Memoized ratios r_k = zeta(2k)/pi^(2k) for k = 1..max_k, entry
    k - 1 of an ``_ExactTable``.

    The recurrence runs on the signed s_m = (-1)^(m+1) (1/2 - 4^-m) (2m)! r_m,
    where dividing r_m by (2k-2m)! becomes multiplying s_m by C(2k, 2m)
    and no sign is left:

        B_k = 1 - 4 sum_{m<k} C(2k, 2m) s_m,
        s_k = (2 4^(k-1) - 1) B_k / (4 (4^k - 1)),
        r_k = (-1)^(k+1) 4^(k-1) B_k / ((4^k - 1) (2k)!).

    The s_m share one common denominator D (the lcm of their reduced
    denominators), and the table keeps each term with its weight: before
    step k it holds the integers C(2k, 2m) D s_m for m < k, so the
    bracket D B_k is D - 4 times their sum, and each k reduces one
    Fraction, s_k. r_k is appended as its unreduced pair: its gcd, of
    4^(k-1) D B_k against D (4^k - 1) (2k)!, is the costliest Fraction
    step, paid only by a read of r_k. Moving to k + 1, with D grown
    to D' = D grow, multiplies every term by grow (2k+1)(2k+2) and divides
    it by (2k+2-2m)(2k+1-2m), as in Brent and Harvey's tangent table;
    the division is exact because its quotient is C(2k+2, 2m) D' s_m,
    a binomial times an integer numerator. Nothing here uses Bernoulli
    or tangent numbers, which keeps the route independent of the
    classical formula it is checked against.
    """

    def __init__(self) -> None:
        super().__init__()
        self._terms: list[int] = []  # position m-1 holds C(2k, 2m) D s_m for k = max_k + 1
        self._s_denominator = 1  # D
        self._factorial = 1  # (2k)! for k = max_k

    @property
    def max_k(self) -> int:
        return len(self._entries)

    def ratio(self, k: int) -> Fraction:
        """Exact r_k, extending the table if needed."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._read(k - 1)

    def ratios(self) -> tuple[Fraction, ...]:
        """Snapshot of all computed ratios, r_1 first."""
        return tuple(map(self._read, range(len(self._entries))))

    def _extend_to(self, k_max: int) -> None:
        terms = self._terms
        while len(self._entries) < k_max:
            k = len(self._entries) + 1
            n = 2 * k
            # the bracket t = D B_k gives both r_k and s_k
            denominator = self._s_denominator
            t = denominator - 4 * sum(terms)
            quarter = 4 ** (k - 1)  # 4^k / 4
            base = denominator * (4 * quarter - 1)  # D (4^k - 1)
            self._factorial *= (n - 1) * n
            self._entries.append(((t if k % 2 else -t) * quarter, base * self._factorial))
            s_k = Fraction(t * (2 * quarter - 1), 4 * base)
            # grow D to a multiple of s_k's denominator and step every
            # term from C(2k, 2m) D s_m to C(2k+2, 2m) D' s_m
            grow = s_k.denominator // math.gcd(denominator, s_k.denominator)
            denominator *= grow
            self._s_denominator = denominator
            scale = grow * (n + 1) * (n + 2)
            # term m is divided by i (i - 1), i = 2k + 2 - 2m, and the
            # new term m = k has weight C(2k+2, 2k) = (k + 1)(2k + 1)
            terms[:] = [term * scale // (i * (i - 1)) for i, term in zip(range(n, 2, -2), terms)]
            terms.append((k + 1) * (n + 1) * s_k.numerator * (denominator // s_k.denominator))


_shared_table = ZetaEvenTable()


def zeta_even_ratio(k: int) -> Fraction:
    """Exact zeta(2k)/pi^(2k) by the recurrence.

    >>> zeta_even_ratio(1)
    Fraction(1, 6)
    >>> zeta_even_ratio(2)
    Fraction(1, 90)
    """
    return _shared_table.ratio(k)


def zeta_even_table(k_max: int) -> ZetaEvenTable:
    """A fresh table holding r_1..r_{k_max}."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = ZetaEvenTable()
    table.ratio(k_max)
    return table


def _pi_power_ball(k: int, bits: int) -> tuple[int, int]:
    """pi^(2k) at scale 2^bits as a ball (value, radius).

    pi is read once per scale, through the ``_pi`` memo: Chudnovsky's
    value, within _PI_RADIUS ulps of pi 2^bits. Its square is raised to
    the k-th power by square-and-multiply (``_ball_power``), so the
    radius follows every floor and both factors' radii exactly.
    """
    p = _pi(1 << bits)[0]
    return _ball_power(*_ball_product(p, _PI_RADIUS, p, _PI_RADIUS, bits), k, bits)


def _zeta_even_ball(k: int, places: int, bits: int) -> tuple[int, int]:
    """zeta(2k) 10^places as a ball (value, radius), from pi^(2k) at scale
    2^bits.

    With r_k = a/b and pi^(2k) 2^bits = v + d, |d| <= e,

        zeta(2k) 10^places = a 10^places (v + d) / (b 2^bits),

    so the floor of a 10^places v / (b 2^bits) is within
    a 10^places e / (b 2^bits) + 1 of it: the last floor costs one more.
    """
    a, b = zeta_even_ratio(k).as_integer_ratio()
    v, e = _pi_power_ball(k, bits)
    scaled = a * 10**places
    return scaled * v // b >> bits, -(-scaled * e // b >> bits) + 1


def zeta_even_decimal(k: int, digits: int) -> str:
    """zeta(2k) rendered to ``digits`` significant digits, correctly
    rounded (ties to even), every digit certified.

    The value is an integer ball at ``places = digits - 1 + guard``
    decimals (``_zeta_even_ball``): pi at a binary scale 2^bits >=
    10^(places + 1), chosen from digits and guard alone, so every k of a
    table reads the same pi; pi^(2k) by floored integer products, each
    with its exact radius; then the exact ratio r_k = a/b. zeta(2k) lies
    in (1, 2), so the ball holds digits + guard significant digits, and
    its radius grows like k: pi's 2 ulps are a relative 2/(pi 2^bits),
    pi^2's radius of at most 14 ulps a relative 1.42/2^bits, and pi^(2k)
    carries k times that plus under 0.03/2^bits per product, so the
    radius stays under k/4 + 2 ulps of 10^-places.

    The ball is printed only when both its ends round to the same
    ``digits`` digits: the true value lies between them, so it rounds
    alike too. The package's one Ziv loop (``_ziv``) doubles the guard
    while they differ, up to 8 times its start. zeta(2k) is irrational,
    so it is never a rounding tie and more guard digits decide it; a
    ball still undecided at the cap raises ValueError. Every step is on
    integers until the one decimal printed, so no int <-> str
    conversion limits the digits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if digits < 10:
        raise ValueError("digits must be >= 10")

    def ball(guard):
        places = digits - 1 + guard
        return (*_zeta_even_ball(k, places, _bits_for(places)), places)

    (value, _, places), _ = _ziv(ball, digits, lambda: f"zeta({2 * k}) to {digits} digits")
    return positional_str(round_significant(_fixed_decimal(value, places), digits))
