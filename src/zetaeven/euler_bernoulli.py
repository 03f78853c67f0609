"""Bernoulli numbers, Euler polynomials, and Euler's even-zeta formula.

Conventions. Bernoulli numbers are the coefficients of z^n/n! in
z/(e^z - 1), so B_1 = -1/2. The even-index values are built from integer
tangent numbers (see ``BernoulliTable``) and validated independently by
a truncated series-division oracle in the test suite. Euler polynomials
come from 2 e^(x t)/(e^t + 1) = sum E_m(x) t^m/m!. Setting x = 0 and
matching coefficients of (e^t + 1) * (that series) = 2 gives

    E_n(0) = -(1/2) * sum_{j=0}^{n-1} C(n, j) * E_j(0),    E_0(0) = 1,

and the factor e^(x t) makes the family an Appell sequence,

    E_m(x) = sum_{i=0}^{m} C(m, i) * E_{m-i}(0) * x^i,

again cross-checked against series division. Zeta values only ever
consume |B_2k|, so the B_1 sign convention never reaches them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .numeric_core import binomial, factorial

__all__ = [
    "BernoulliTable",
    "EulerPolynomial",
    "bernoulli",
    "euler_polynomial",
    "euler_polynomial_eval",
    "zeta_even_via_euler",
]


class BernoulliTable:
    """Memoized Bernoulli numbers B_0..B_max_index.

    Even-index values come from the integer tangent numbers T_h
    (tan z = sum T_h z^(2h-1)/(2h-1)!) through

        B_2h = (-1)^(h-1) * 2h * T_h / (4^h (4^h - 1)),

    with T_1..T_H built by Brent and Harvey's in-place O(H^2) table of
    small-integer multiply-adds ("Fast computation of Bernoulli, Tangent
    and Secant numbers", 2011). That table cannot be extended in place,
    so a request beyond it rebuilds it at least twice as long: a run of
    growing requests costs a constant times the last one.

    Extension is serialized behind a lock; reads of already-computed
    prefixes are safe from any thread.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self._tangents: list[int] = [0]  # position h holds T_h
        self._lock = threading.Lock()

    @property
    def max_index(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(self._values)

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli index must be >= 0")
        if n > self.max_index:
            self._extend_to(n)
        return self._values[n]

    def _extend_to(self, n: int) -> None:
        with self._lock:
            values = self._values
            if n // 2 >= len(self._tangents):
                self._tangents = _tangent_numbers(max(n // 2, 2 * (len(self._tangents) - 1)))
            for m in range(len(values), n + 1):
                if m == 1:
                    values.append(Fraction(-1, 2))
                elif m % 2:
                    values.append(Fraction(0))
                else:
                    h = m // 2
                    power = 4**h
                    signed = m * self._tangents[h] if h % 2 else -m * self._tangents[h]
                    values.append(Fraction(signed, power * (power - 1)))


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


@dataclass(frozen=True)
class EulerPolynomial:
    """E_m(x) as exact monomial coefficients, coefficients[j] multiplying x^j."""

    degree: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")


_euler_lock = threading.Lock()
_euler_at_zero: list[Fraction] = [Fraction(1)]  # position n holds E_n(0)


def euler_polynomial(m: int) -> EulerPolynomial:
    """Exact E_m(x); E_0 = 1, E_1 = x - 1/2, E_2 = x^2 - x, ..."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m >= len(_euler_at_zero):
        with _euler_lock:
            while len(_euler_at_zero) <= m:
                n = len(_euler_at_zero)
                acc = sum(binomial(n, j) * e for j, e in enumerate(_euler_at_zero))
                _euler_at_zero.append(-acc / 2)
    return EulerPolynomial(
        m, tuple(binomial(m, i) * _euler_at_zero[m - i] for i in range(m + 1))
    )


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
    b = bernoulli(2 * k)
    return Fraction(2 ** (2 * k - 1) * abs(b.numerator), b.denominator * factorial(2 * k))
