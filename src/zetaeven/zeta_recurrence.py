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
steps live in the verifier module, and the classical Bernoulli-based
formula serves as a fully independent oracle in the test suite.

All table arithmetic is exact (big integers and Fraction; see
``ZetaEvenTable`` for the integer form the recurrence runs in); decimals
only appear in ``zeta_even_decimal``, which multiplies r_k by a guarded
high-precision pi power at the very end.
"""

from __future__ import annotations

import math
import threading
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .euler_bernoulli import zeta_even_via_euler
from .numeric_core import HighPrecisionReal, compute_pi, positional_str, round_significant
from .reports import VerificationReport

__all__ = [
    "ZetaEvenTable",
    "zeta_even_ratio",
    "zeta_even_table",
    "zeta_even_decimal",
    "recurrence_cross_check",
]


class ZetaEvenTable:
    """Memoized ratios r_k = zeta(2k)/pi^(2k) for k = 1..max_k.

    Entries are exact Fractions. The recurrence runs on a_k = (2k)! r_k,
    where dividing r_m by (2k-2m)! becomes multiplying a_m by C(2k, 2m):

        (1 - 4^-k) a_k = sum_{m<k} (-1)^(k-m+1) C(2k, 2m) w_m - (-1)^k / 4,
        w_m = (1/2 - 4^-m) a_m.

    The w_m are kept as integer numerators over one common denominator
    (the lcm of their reduced denominators, with the stored numerators
    rescaled whenever it grows), so the inner sum is pure big-integer
    arithmetic and each k costs one reduced Fraction for a_k. Nothing
    here uses Bernoulli or tangent numbers, which keeps the route
    independent of the classical formula it is checked against.

    Extension is serialized behind a lock; reads of completed entries
    are safe from any thread.
    """

    def __init__(self) -> None:
        self._ratios: list[Fraction] = []  # position k-1 holds r_k
        self._w_numerators: list[int] = []  # position m-1 holds w_m * _w_denominator
        self._w_denominator = 1
        self._factorial = 1  # (2k)! for k = max_k
        self._lock = threading.Lock()

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
            numerators = self._w_numerators
            while len(self._ratios) < k_max:
                k = len(self._ratios) + 1
                n = 2 * k
                # acc = D * sum_{m<k} (-1)^(k-m+1) C(2k, 2m) w_m, with the
                # binomial C(2k, j + 2) stepped up from C(2k, j)
                acc = 0
                binom = 1
                for j, numerator in zip(range(0, n, 2), numerators):
                    binom = binom * (n - j) * (n - j - 1) // ((j + 1) * (j + 2))
                    term = binom * numerator
                    if (k - j // 2) % 2:
                        acc -= term
                    else:
                        acc += term
                # solve (1 - 4^-k) a_k = acc/D - (-1)^k/4 for a_k
                denominator = self._w_denominator
                quarter = 4 ** (k - 1)  # 4^k / 4
                signed_d = denominator if k % 2 == 0 else -denominator  # (-1)^k D
                a_k = Fraction(quarter * (4 * acc - signed_d), denominator * (4 * quarter - 1))
                self._factorial *= (n - 1) * n
                self._ratios.append(a_k / self._factorial)

                # w_k = (1/2 - 4^-k) a_k, brought over the common denominator
                w_k = a_k * Fraction(2 * quarter - 1, 4 * quarter)
                grow = w_k.denominator // math.gcd(denominator, w_k.denominator)
                if grow > 1:
                    numerators[:] = [w * grow for w in numerators]
                    denominator *= grow
                    self._w_denominator = denominator
                numerators.append(w_k.numerator * (denominator // w_k.denominator))


_shared_table = ZetaEvenTable()


def zeta_even_ratio(k: int, table: Optional[ZetaEvenTable] = None) -> Fraction:
    """Exact zeta(2k)/pi^(2k) by the recurrence.

    >>> zeta_even_ratio(1)
    Fraction(1, 6)
    >>> zeta_even_ratio(2)
    Fraction(1, 90)
    """
    return (table or _shared_table).ratio(k)


def zeta_even_table(k_max: int) -> ZetaEvenTable:
    """A fresh table holding r_1..r_{k_max}."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = ZetaEvenTable()
    table.ratio(k_max)
    return table


@lru_cache(maxsize=4)
def _pi(digits: int) -> HighPrecisionReal:
    """compute_pi(digits), kept for the few precisions a k-loop asks for.

    A table of decimals at one ``digits`` needs only two working
    precisions (they differ by the digit count of 2k), so this saves
    recomputing the same pi for every k. The value is immutable.
    """
    return compute_pi(digits)


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
        value *= pi.value ** (2 * k)
    return positional_str(round_significant(value, digits))


def recurrence_cross_check(k_max: int) -> VerificationReport:
    """Compare the recurrence against the classical formula for k <= k_max.

    Both routes are exact, so the comparison is exact rational equality;
    the report's residual is the number of mismatching indices and the
    tolerance is zero. Expected: zero mismatches for every k.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    mismatches = []
    for k in range(1, k_max + 1):
        if zeta_even_ratio(k) != zeta_even_via_euler(k):
            mismatches.append(k)
    first_bad = mismatches[0] if mismatches else k_max
    return VerificationReport(
        identity_name="zeta_even_recurrence_vs_euler_formula",
        parameters={
            "k_max": k_max,
            "mismatch_indices": ",".join(map(str, mismatches)),
        },
        lhs=zeta_even_ratio(first_bad),
        rhs=zeta_even_via_euler(first_bad),
        residual=HighPrecisionReal.from_int(len(mismatches)),
        tolerance=HighPrecisionReal.from_int(0),
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
