"""The two exact recurrences against reference copies of older loops.

``ZetaEvenTable`` and ``phi_coefficients`` keep each term with its
binomial weight and step it by a small exact ratio. The loops they
replaced rebuilt every binomial inside the inner sum: the table stepped
C(2k, 2m) with a floor division and rescaled its numerators only when
the common denominator grew, and ``phi_coefficients`` took a
``math.comb`` and a power of s for every term. Both are kept here,
verbatim, as references. The values are exact, so the two must agree
exactly.
"""

import math
from fractions import Fraction

import pytest

from zetaeven.series_verifier import phi_coefficients
from zetaeven.zeta_recurrence import ZetaEvenTable

F = Fraction


class ReferenceTable(ZetaEvenTable):
    """The table with its stepped-binomial inner loop, which appends
    reduced Fractions; the base table calls it with its lock held."""

    def __init__(self) -> None:
        super().__init__()
        self._s_numerators: list[int] = []  # position m-1 holds s_m * _s_denominator

    def _extend_to(self, k_max: int) -> None:
        numerators = self._s_numerators
        while len(self._entries) < k_max:
            k = len(self._entries) + 1
            n = 2 * k
            # acc = D * sum_{m<k} C(2k, 2m) s_m, with the binomial
            # C(2k, j + 2) stepped up from C(2k, j)
            acc = 0
            binom = 1
            for j, numerator in zip(range(0, n, 2), numerators):
                binom = binom * (n - j) * (n - j - 1) // ((j + 1) * (j + 2))
                acc += binom * numerator
            # the bracket t = D B_k gives both r_k and s_k
            denominator = self._s_denominator
            t = denominator - 4 * acc
            quarter = 4 ** (k - 1)  # 4^k / 4
            base = denominator * (4 * quarter - 1)  # D (4^k - 1)
            self._factorial *= (n - 1) * n
            self._entries.append(Fraction((t if k % 2 else -t) * quarter, base * self._factorial))
            s_k = Fraction(t * (2 * quarter - 1), 4 * base)
            # put s_k on the common denominator, growing it if needed
            grow = s_k.denominator // math.gcd(denominator, s_k.denominator)
            if grow > 1:
                numerators[:] = [s * grow for s in numerators]
                denominator *= grow
                self._s_denominator = denominator
            numerators.append(s_k.numerator * (denominator // s_k.denominator))


def reference_phi_coefficients(u, m_max: int) -> list[Fraction]:
    """phi_coefficients with a ``math.comb`` and a power of s per term."""
    u = Fraction(u)
    if u < 1:
        raise ValueError("u must be >= 1")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    p, q = u.numerator, u.denominator
    s = p + q
    s_pow = [s**i for i in range(m_max + 2)]
    scaled: list[int] = []
    for m in range(m_max + 1):
        acc = 2 * s_pow[m]
        for j, n_j in enumerate(scaled):
            acc -= math.comb(m, j) * n_j * s_pow[m - j - 1]
        scaled.append(q * acc)
    return [Fraction(n, s_pow[m + 1]) for m, n in enumerate(scaled)]


def test_reference_table_gives_the_known_ratios():
    assert ReferenceTable().ratio(4) == F(1, 9450)
    assert reference_phi_coefficients(1, 3) == [1, F(1, 2), 0, F(-1, 4)]


@pytest.fixture(scope="module")
def reference_ratios():
    table = ReferenceTable()
    table.ratio(400)
    return table.ratios()


def test_table_matches_the_reference_loop_one_k_at_a_time(reference_ratios):
    # every extension starts from the terms the one before left behind
    table = ZetaEvenTable()
    for k in range(1, 401):
        assert table.ratio(k) == reference_ratios[k - 1], k
    assert table.ratios() == reference_ratios


def test_table_matches_the_reference_loop_in_jumps(reference_ratios):
    table = ZetaEvenTable()
    for k in (1, 2, 3, 7, 55, 110, 400):
        table.ratio(k)
        assert table.ratios() == reference_ratios[:k], k
    assert ZetaEvenTable().ratio(400) == reference_ratios[-1]


@pytest.mark.parametrize(
    "order",
    (range(400, 0, -1), (400, 1, 399, 2, 200, 55, 110, 3), (7, 300, 6, 301, 5)),
    ids=("descending", "high-first", "interleaved"),
)
def test_table_matches_the_reference_loop_in_any_read_order(reference_ratios, order):
    # r_k is reduced on its first read, whichever read extended the table
    table = ZetaEvenTable()
    for k in order:
        assert table.ratio(k) == reference_ratios[k - 1], k
    assert table.ratios() == reference_ratios[: table.max_k]


@pytest.mark.slow
def test_table_matches_the_reference_loop_to_1000():
    table, reference = ZetaEvenTable(), ReferenceTable()
    table.ratio(1000)
    reference.ratio(1000)
    assert table.ratios() == reference.ratios()


PHI_US = (1, F(9, 8), F(1001, 1000), F(3, 2), 2, 3, F(17, 5), F(7, 2), 10**40)


@pytest.mark.parametrize("u", PHI_US, ids=str)
def test_phi_coefficients_match_the_reference_loop(u):
    # the reference's phi_m does not depend on m_max, so each M is a prefix
    reference = reference_phi_coefficients(u, 120)
    for m_max in range(121):
        assert phi_coefficients(u, m_max) == reference[: m_max + 1], (u, m_max)
