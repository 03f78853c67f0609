from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from zetaeven import euler_bernoulli
from zetaeven.euler_bernoulli import (
    BernoulliTable,
    EulerPolynomial,
    bernoulli,
    euler_polynomial,
    euler_polynomial_eval,
    zeta_even_via_euler,
)
from zetaeven.powerseries import exp_series, scaled_exp_series, series_div

F = Fraction


def bernoulli_by_series_division(count):
    """Independent oracle: B_j/j! are the coefficients of z/(e^z - 1).

    (e^z - 1)/z has coefficients 1/(j+1)!, so the reciprocal series gives
    the Bernoulli numbers without ever using the summation recurrence.
    """
    denom = [F(1, factorial(j + 1)) for j in range(count + 1)]
    num = [F(1)] + [F(0)] * count
    series = series_div(num, denom)
    return [series[j] * factorial(j) for j in range(count + 1)]


def values(table):
    """The Bernoulli numbers a table holds, B_0 first, read without
    extending it."""
    return [table.value(n) for n in range(table.max_index + 1)]


def euler_values_by_series_division(x, count):
    """Independent oracle: E_m(x) from dividing 2e^(xz) by e^z + 1."""
    denom = exp_series(count)
    denom[0] += F(1)
    num = [2 * c for c in scaled_exp_series(x, count)]
    series = series_div(num, denom)
    return [series[m] * factorial(m) for m in range(count + 1)]


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(7) == 0
        assert bernoulli(8) == F(-1, 30)
        assert bernoulli(12) == F(-691, 2730)

    def test_matches_series_division_oracle(self):
        oracle = bernoulli_by_series_division(60)
        assert [bernoulli(n) for n in range(61)] == oracle

    def test_max_index_is_the_requested_index(self):
        # the tangent table may run ahead of the request; the values may not
        oracle = bernoulli_by_series_division(60)
        table = BernoulliTable()
        for n in (1, 2, 9, 8, 20, 21, 22, 60):
            top = max(n, table.max_index)
            assert table.value(n) == oracle[n]
            assert table.max_index == top
            assert values(table) == oracle[: top + 1]
        for n in (0, 1, 2, 3, 12, 44):
            fresh = BernoulliTable()
            fresh.value(n)
            assert fresh.max_index == n

    @pytest.mark.parametrize(
        "order",
        (range(60, -1, -1), (60, 0, 59, 1, 30, 2), (7, 40, 6, 41, 5)),
        ids=("descending", "high-first", "interleaved"),
    )
    def test_any_read_order_matches_the_oracle(self, order):
        # B_n is built on its first read, whichever read extended the table
        oracle = bernoulli_by_series_division(60)
        table = BernoulliTable()
        for n in order:
            assert table.value(n) == oracle[n], n
        assert values(table) == oracle[: table.max_index + 1]

    def test_growing_requests_rebuild_the_tangent_table_rarely(self, monkeypatch):
        # the cross-check asks for B_2, B_4, ..., B_2K in turn; rebuilding the
        # O(K^2) tangent table for each would make that loop O(K^3)
        builds = []
        build = euler_bernoulli._tangent_numbers

        def counting_build(count):
            builds.append(count)
            return build(count)

        monkeypatch.setattr(euler_bernoulli, "_tangent_numbers", counting_build)
        table = BernoulliTable()
        for k in range(1, 129):
            table.value(2 * k)
        assert builds == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_odd_values_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 202, 2))

    def test_even_signs_alternate(self):
        for k in range(1, 101):
            assert (-1) ** (k + 1) * bernoulli(2 * k) > 0

    def test_table_api(self):
        table = BernoulliTable()
        assert table.max_index == 0
        assert table.value(6) == F(1, 42)
        assert table.max_index == 6
        assert values(table)[:3] == [F(1), F(-1, 2), F(1, 6)]
        with pytest.raises(ValueError):
            table.value(-1)


class TestEulerPolynomials:
    def test_first_polynomials(self):
        assert euler_polynomial(0).coefficients == (F(1),)
        assert euler_polynomial(1).coefficients == (F(-1, 2), F(1))
        assert euler_polynomial(2).coefficients == (F(0), F(-1), F(1))
        assert euler_polynomial(3).coefficients == (F(1, 4), F(0), F(-3, 2), F(1))
        assert euler_polynomial(4).coefficients == (F(0), F(1), F(0), F(-2), F(1))

    def test_monic(self):
        for m in range(0, 60):
            assert euler_polynomial(m).coefficients[-1] == 1

    def test_matches_series_division_oracle(self):
        for x in (F(0), F(1, 2), F(1), F(2), F(-1)):
            oracle = euler_values_by_series_division(x, 30)
            for m in range(31):
                assert euler_polynomial_eval(euler_polynomial(m), x) == oracle[m]

    def test_matches_summation_recurrence(self):
        # reference: E_m(x) = x^m - (1/2) sum_{j<m} C(m, j) E_j(x) on whole
        # coefficient lists, independent of the Appell form the module uses
        polys = []
        for m in range(41):
            coeffs = [F(0)] * m + [F(1)]
            for j, prev in enumerate(polys):
                for i, c in enumerate(prev):
                    coeffs[i] -= F(comb(m, j), 2) * c
            polys.append(coeffs)
            assert euler_polynomial(m).coefficients == tuple(coeffs)

    def test_halfway_zero_of_degree_one(self):
        assert euler_polynomial_eval(euler_polynomial(1), F(1, 2)) == 0

    def test_value_at_one(self):
        # 2e^t/(e^t+1) = 1 + tanh(t/2): the even part is the constant 1,
        # so E_0(1) = 1 and E_m(1) = 0 for every even m > 0, while odd
        # indices carry the (nonzero) tanh coefficients.
        assert euler_polynomial_eval(euler_polynomial(0), F(1)) == 1
        for m in range(2, 101, 2):
            assert euler_polynomial_eval(euler_polynomial(m), F(1)) == 0
        assert euler_polynomial_eval(euler_polynomial(1), F(1)) == F(1, 2)
        assert euler_polynomial_eval(euler_polynomial(3), F(1)) == F(-1, 4)
        assert euler_polynomial_eval(euler_polynomial(5), F(1)) == F(1, 2)

    def test_reflection_symmetry_coefficient_level(self):
        # E_m(1-x) = (-1)^m E_m(x), expanded exactly via binomials
        for m in range(0, 51):
            coeffs = euler_polynomial(m).coefficients
            reflected = [F(0)] * (m + 1)
            for j, c in enumerate(coeffs):
                # c * (1-x)^j
                for i in range(j + 1):
                    reflected[i] += c * comb(j, i) * (-1) ** i
            expected = [(-1) ** m * c for c in coeffs]
            assert reflected == expected

    @given(st.integers(0, 40), st.fractions(max_denominator=50))
    def test_reflection_symmetry_pointwise(self, m, x):
        p = euler_polynomial(m)
        lhs = euler_polynomial_eval(p, 1 - x)
        rhs = (-1) ** m * euler_polynomial_eval(p, x)
        assert lhs == rhs

    def test_polynomial_type_validates_length(self):
        with pytest.raises(ValueError):
            EulerPolynomial(2, (F(1),))

    def test_polynomial_type_is_an_immutable_value(self):
        p = euler_polynomial(2)
        assert p == EulerPolynomial(degree=2, coefficients=(F(0), F(-1), F(1)))
        assert p != EulerPolynomial(1, (F(-1, 2), F(1)))
        assert p != (2, p.coefficients)
        with pytest.raises(TypeError):
            hash(p)
        assert repr(p) == (
            "EulerPolynomial(degree=2, coefficients="
            "(Fraction(0, 1), Fraction(-1, 1), Fraction(1, 1)))"
        )
        with pytest.raises(AttributeError):
            p.degree = 3
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p.degree == 2

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            euler_polynomial(-1)


class TestZetaEvenViaEuler:
    def test_first_ratios(self):
        assert zeta_even_via_euler(1) == F(1, 6)
        assert zeta_even_via_euler(2) == F(1, 90)
        assert zeta_even_via_euler(3) == F(1, 945)
        assert zeta_even_via_euler(4) == F(1, 9450)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            zeta_even_via_euler(0)

    def test_always_positive(self):
        for k in range(1, 40):
            assert zeta_even_via_euler(k) > 0
