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
``ZetaEvenTable`` for the integer form the recurrence runs in); decimals
only appear in ``zeta_even_decimal``, which multiplies r_k by a guarded
high-precision pi power at the very end.
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

from .numeric_core import _pi, positional_str, round_significant

__all__ = [
    "ZetaEvenTable",
    "zeta_even_ratio",
    "zeta_even_table",
    "zeta_even_decimal",
]


class ZetaEvenTable:
    """Memoized ratios r_k = zeta(2k)/pi^(2k) for k = 1..max_k.

    Entries are exact Fractions. The recurrence runs on a_k = (2k)! r_k,
    where dividing r_m by (2k-2m)! becomes multiplying a_m by C(2k, 2m):

        (1 - 4^-k) a_k = sum_{m<k} (-1)^(k-m+1) C(2k, 2m) w_m - (-1)^k / 4
                       = (-1)^k (sum_{m<k} C(2k, 2m) s_m - 1/4),
        w_m = (1/2 - 4^-m) a_m,  s_m = (-1)^(m+1) w_m.

    The signed s_m are kept as integer numerators over one common
    denominator (the lcm of their reduced denominators, with the stored
    numerators rescaled whenever it grows), so the inner sum is one
    big-integer multiply-add per term, the sign (-1)^k is applied once
    per k, and each k costs one reduced Fraction for a_k. Nothing
    here uses Bernoulli or tangent numbers, which keeps the route
    independent of the classical formula it is checked against.

    Extension is serialized behind a lock; reads of completed entries
    are safe from any thread.
    """

    def __init__(self) -> None:
        self._ratios: list[Fraction] = []  # position k-1 holds r_k
        self._s_numerators: list[int] = []  # position m-1 holds s_m * _s_denominator
        self._s_denominator = 1
        self._factorial = 1  # (2k)! for k = max_k
        self._lock = allocate_lock()

    @property
    def max_k(self) -> int:
        return len(self._ratios)

    def ratio(self, k: int) -> Fraction:
        """Exact r_k, extending the table if needed."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > len(self._ratios):
            self._extend_to(k)
        return self._ratios[k - 1]

    def ratios(self) -> tuple[Fraction, ...]:
        """Snapshot of all computed ratios, r_1 first."""
        return tuple(self._ratios)

    def _extend_to(self, k_max: int) -> None:
        with self._lock:
            numerators = self._s_numerators
            while len(self._ratios) < k_max:
                k = len(self._ratios) + 1
                n = 2 * k
                # acc = D * sum_{m<k} C(2k, 2m) s_m, with the binomial
                # C(2k, j + 2) stepped up from C(2k, j)
                acc = 0
                binom = 1
                for j, numerator in zip(range(0, n, 2), numerators):
                    binom = binom * (n - j) * (n - j - 1) // ((j + 1) * (j + 2))
                    acc += binom * numerator
                # solve (1 - 4^-k) a_k = (-1)^k (acc/D - 1/4) for a_k
                denominator = self._s_denominator
                quarter = 4 ** (k - 1)  # 4^k / 4
                signed = quarter * (4 * acc - denominator)  # (-1)^k a_k over the denominator below
                a_k = Fraction(-signed if k % 2 else signed, denominator * (4 * quarter - 1))
                self._factorial *= (n - 1) * n
                self._ratios.append(a_k / self._factorial)

                # s_k = (-1)^(k+1) (1/2 - 4^-k) a_k, over the common denominator
                w_k = a_k * Fraction(2 * quarter - 1, 4 * quarter)
                grow = w_k.denominator // math.gcd(denominator, w_k.denominator)
                if grow > 1:
                    numerators[:] = [s * grow for s in numerators]
                    denominator *= grow
                    self._s_denominator = denominator
                s_k = w_k.numerator * (denominator // w_k.denominator)
                numerators.append(s_k if k % 2 else -s_k)


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


def zeta_even_decimal(k: int, digits: int) -> str:
    """zeta(2k) rendered to ``digits`` significant digits.

    The exact ratio is multiplied by pi^(2k) computed with enough guard
    digits that the error reaching the final rounding is a dozen orders
    of magnitude below the last kept digit; a wrong final digit would
    need the true value to sit within ~1e-12 ulp of a rounding tie.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if digits < 10:
        raise ValueError("digits must be >= 10")
    ratio = zeta_even_ratio(k)
    work = digits + 12 + len(str(2 * k))
    pi = _pi(work)
    with localcontext() as ctx:
        ctx.prec = work
        ctx.rounding = ROUND_HALF_EVEN
        value = Decimal(ratio.numerator) / Decimal(ratio.denominator)
        value *= pi ** (2 * k)
    return positional_str(round_significant(value, digits))
