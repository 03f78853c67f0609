"""Bernoulli numbers, Euler polynomials, and Euler's even-zeta formula.

Conventions. Bernoulli numbers are the coefficients of z^n/n! in
z/(e^z - 1), so B_1 = -1/2. The even-index values are built from integer
tangent numbers (see ``BernoulliTable``) and validated independently by
a truncated series-division oracle in the test suite. Euler polynomials
come from 2 e^(x t)/(e^t + 1) = sum E_m(x) t^m/m!. Setting x = 0 and
writing 2/(e^t + 1) = 2/(e^t - 1) - 4/(e^(2t) - 1) reads the values at
zero off the same Bernoulli table (DLMF 24.4),

    E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n+1),    n >= 0,

where n = 0 gives E_0(0) = 1 through B_1 = -1/2; the factor e^(x t)
makes the family an Appell sequence,

    E_m(x) = sum_{i=0}^{m} C(m, i) * E_{m-i}(0) * x^i,

again cross-checked against series division. Zeta values only ever
consume |B_2k|, so the B_1 sign convention never reaches them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numeric_core import FrozenRecord, _ExactTable

__all__ = [
    "BernoulliTable",
    "EulerPolynomial",
    "bernoulli",
    "euler_polynomial",
    "euler_polynomial_eval",
    "zeta_even_via_euler",
]


class BernoulliTable(_ExactTable):
    """Memoized Bernoulli numbers B_0..B_max_index, entry m of an
    ``_ExactTable``.

    Even-index values come from the integer tangent numbers T_h
    (tan z = sum T_h z^(2h-1)/(2h-1)!) through

        B_2h = (-1)^(h-1) * 2h * T_h / (4^h (4^h - 1)),

    with T_1..T_H built by Brent and Harvey's in-place O(H^2) table of
    small-integer multiply-adds ("Fast computation of Bernoulli, Tangent
    and Secant numbers", 2011). That table cannot be extended in place,
    so a request beyond it rebuilds it at least twice as long: a run of
    growing requests costs a constant times the last one. Each B_m is
    appended as the unreduced pair of that formula and stays so: each
    ``value(n)`` reduces B_n alone, and a reader of the pair
    (``euler_polynomial``, ``zeta_even_via_euler``) reduces only what it
    builds.
    """

    def __init__(self) -> None:
        super().__init__()
        self._tangents: list[int] = [0]  # position h holds T_h
        self._entries.append((1, 1))  # B_0

    @property
    def max_index(self) -> int:
        return len(self._entries) - 1

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli index must be >= 0")
        return Fraction(*self._pair(n))

    def _extend_to(self, size: int) -> None:
        h_max = (size - 1) // 2
        if h_max >= len(self._tangents):
            self._tangents = _tangent_numbers(max(h_max, 2 * (len(self._tangents) - 1)))
        for m in range(len(self._entries), size):
            h = m // 2  # an even m = 2h has B_m = (-1)^(h-1) m T_h / (2^m (2^m - 1))
            self._entries.append((-1, 2) if m == 1 else (0, 1) if m % 2 else
                                 ((m if h % 2 else -m) * self._tangents[h], ((1 << m) - 1) << m))


def _tangent_numbers(count: int) -> list[int]:
    """[0, T_1, ..., T_count]: tangent numbers 1, 2, 16, 272, 7936, ...

    Brent and Harvey's algorithm: start from T[h] = (h-1)!, then sweep
    the tail once per h; after the sweep for h, T[h] is final.
    """
    tangents = [0] * (count + 1)
    if count:
        tangents[1] = 1
    for h in range(2, count + 1):
        tangents[h] = (h - 1) * tangents[h - 1]
    for h in range(2, count + 1):
        for j in range(h, count + 1):
            tangents[j] = (j - h) * tangents[j - 1] + (j - h + 2) * tangents[j]
    return tangents


_default_bernoulli = BernoulliTable()


def bernoulli(n: int) -> Fraction:
    """Exact B_n in the z/(e^z - 1) convention (B_1 = -1/2)."""
    return _default_bernoulli.value(n)


class EulerPolynomial(FrozenRecord):
    """E_m(x) as exact monomial coefficients, coefficients[j] multiplying x^j."""

    __slots__ = ("degree", "coefficients")

    def __init__(self, degree: int, coefficients: tuple[Fraction, ...]):
        if len(coefficients) != degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        super().__init__(degree, coefficients)


def euler_polynomial(m: int) -> EulerPolynomial:
    """Exact E_m(x); E_0 = 1, E_1 = x - 1/2, E_2 = x^2 - x, ..."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    coefficients = []
    for n in range(m, -1, -1):  # E_n(0) x^(m-n), largest n first: the table grows once
        p, q = _default_bernoulli._pair(n + 1)
        coefficients.append(Fraction(-2 * math.comb(m, n) * (2 ** (n + 1) - 1) * p, (n + 1) * q))
    return EulerPolynomial(m, tuple(coefficients))


def euler_polynomial_eval(p: EulerPolynomial, x: Fraction) -> Fraction:
    """Exact Horner evaluation of E_m at a rational point."""
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def zeta_even_via_euler(k: int) -> Fraction:
    """zeta(2k)/pi^(2k) by the classical closed form 2^(2k-1) |B_2k| / (2k)!."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p, q = _default_bernoulli._pair(2 * k)
    return Fraction(2 ** (2 * k - 1) * abs(p), q * math.factorial(2 * k))
