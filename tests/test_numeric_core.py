from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zetaeven.numeric_core import (
    HighPrecisionReal,
    binomial,
    compute_pi,
    factorial,
    fraction_to_decimal,
    positional_str,
    round_significant,
)

# Reference digits of pi (oracle: widely published value, far more digits
# than any internal formula shares code with).
PI_50 = "3.1415926535897932384626433832795028841971693993751"


class TestCombinatorics:
    def test_factorial(self):
        assert factorial(0) == 1
        assert factorial(10) == 3628800
        with pytest.raises(ValueError):
            factorial(-1)

    def test_binomial_values(self):
        assert binomial(10, 3) == 120
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1

    def test_binomial_rejects_out_of_range(self):
        # deliberate: out-of-range j means a caller bug, not a zero
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -1)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_binomial_symmetry(self, n, j):
        if j > n:
            return
        assert binomial(n, j) == binomial(n, n - j)


class TestRounding:
    def test_round_significant_half_even(self):
        assert round_significant(Decimal("1.25"), 2) == Decimal("1.2")
        assert round_significant(Decimal("1.35"), 2) == Decimal("1.4")
        assert round_significant(Decimal("0.00012349"), 4) == Decimal("0.0001235")

    def test_round_significant_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            round_significant(Decimal(1), 0)

    def test_fraction_to_decimal(self):
        assert fraction_to_decimal(Fraction(1, 3), 10) == Decimal("0.3333333333")
        assert fraction_to_decimal(Fraction(-7, 4), 10) == Decimal("-1.75")

    def test_positional_str_never_uses_exponent(self):
        assert positional_str(Decimal("1.6449E+0")) == "1.6449"
        assert positional_str(Decimal("1.234E-4")) == "0.0001234"
        assert positional_str(Decimal("1E+3")) == "1000"


class TestHighPrecisionReal:
    def test_requires_decimal_and_min_precision(self):
        with pytest.raises(TypeError):
            HighPrecisionReal(1.5, 20)
        with pytest.raises(ValueError):
            HighPrecisionReal(Decimal(1), 9)

    def test_immutable_and_unhashable(self):
        x = HighPrecisionReal(Decimal(2), 12)
        with pytest.raises(AttributeError):
            x.value = Decimal(3)
        with pytest.raises(TypeError):
            hash(x)

    def test_arithmetic_at_min_precision(self):
        a = HighPrecisionReal(Decimal(1) / 3, 30)
        b = HighPrecisionReal(Decimal(2), 12)
        s = a + b
        assert s.precision_digits == 12
        assert s.rounded() == round_significant(a.value + 2, 12)
        assert (b - b).value == 0
        assert (a * b).precision_digits == 12
        assert abs(-a).rounded() == a.rounded()

    def test_comparisons_round_to_shared_precision(self):
        # differ only beyond 12 significant digits: equal at 12 digits,
        # distinguishable once both sides carry more
        lo = HighPrecisionReal(Decimal("1.00000000014999"), 12)
        hi = HighPrecisionReal(Decimal("1.00000000015001"), 12)
        assert lo == hi
        assert lo <= hi and lo >= hi
        lo50 = HighPrecisionReal(lo.value, 50)
        hi50 = HighPrecisionReal(hi.value, 50)
        assert lo50 < hi50
        # mixed precision compares at the smaller one
        assert lo50 == hi

    def test_comparison_rejects_raw_numbers(self):
        with pytest.raises(TypeError):
            HighPrecisionReal(Decimal(1), 12) < 2  # noqa: B015

    def test_from_fraction_and_from_int(self):
        x = HighPrecisionReal.from_fraction(Fraction(1, 6), 20)
        assert x.value == Decimal("0.16666666666666666667")
        assert HighPrecisionReal.from_int(-3).value == Decimal(-3)

    def test_repr_mentions_digits(self):
        assert "digits=12" in repr(HighPrecisionReal(Decimal(5), 12))

    @given(
        st.decimals(allow_nan=False, allow_infinity=False, places=8),
        st.decimals(allow_nan=False, allow_infinity=False, places=8),
    )
    def test_addition_commutes(self, x, y):
        a = HighPrecisionReal(x, 25)
        b = HighPrecisionReal(y, 25)
        assert (a + b).value == (b + a).value


class TestComputePi:
    def test_fifty_digits(self):
        assert str(compute_pi(50).rounded()) == PI_50

    def test_twelve_digits(self):
        assert str(compute_pi(12).rounded()) == "3.14159265359"

    def test_longer_run_consistent_with_reference(self):
        value = compute_pi(120)
        assert str(round_significant(value.value, 50)) == PI_50
        assert value.precision_digits == 120

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            compute_pi(9)
