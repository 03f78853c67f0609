from decimal import Decimal

import pytest

from zetaeven import numeric_core
from zetaeven.numeric_core import (
    HighPrecisionReal,
    PiAgreementError,
    compute_pi,
    positional_str,
    round_significant,
)

# Reference digits of pi (oracle: widely published value, far more digits
# than any internal formula shares code with).
PI_50 = "3.1415926535897932384626433832795028841971693993751"


class TestRounding:
    def test_round_significant_half_even(self):
        assert round_significant(Decimal("1.25"), 2) == Decimal("1.2")
        assert round_significant(Decimal("1.35"), 2) == Decimal("1.4")
        assert round_significant(Decimal("0.00012349"), 4) == Decimal("0.0001235")

    def test_round_significant_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            round_significant(Decimal(1), 0)

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

    def test_equality_is_exact_and_nothing_else_is_defined(self):
        # equal once rounded to 12 significant digits, different exactly
        lo = HighPrecisionReal(Decimal("1.00000000014999"), 12)
        hi = HighPrecisionReal(Decimal("1.00000000015001"), 12)
        assert lo.rounded() == hi.rounded()
        assert lo != hi
        with pytest.raises(TypeError):
            lo + hi  # noqa: B018
        with pytest.raises(TypeError):
            lo < hi  # noqa: B015

    def test_comparison_rejects_raw_numbers(self):
        with pytest.raises(TypeError):
            HighPrecisionReal(Decimal(1), 12) < 2  # noqa: B015

    def test_repr_mentions_digits(self):
        assert "digits=12" in repr(HighPrecisionReal(Decimal(5), 12))


class TestComputePi:
    def test_fifty_digits(self):
        assert isinstance(compute_pi(50), Decimal)
        assert str(compute_pi(50)) == PI_50

    def test_twelve_digits(self):
        assert str(compute_pi(12)) == "3.14159265359"

    def test_longer_run_consistent_with_reference(self):
        value = compute_pi(120)
        assert str(round_significant(value, 50)) == PI_50
        assert len(value.as_tuple().digits) == 120

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            compute_pi(9)

    @pytest.mark.parametrize(
        "digits_21, offsets, message",
        [
            # pi itself, and a second value 10^6 + 1 ulps away: past the raw bound
            (314159265358979323846, (0, 10**6 + 1), "disagree"),
            # one ulp either side of the tie between the 20-digit values
            # ...384 and ...385: within the raw bound, but rounded apart
            (314159265358979323845, (-1, 1), "round differently"),
        ],
    )
    def test_formulae_that_disagree_raise(self, monkeypatch, digits_21, offsets, message):
        scale = 10 ** (20 + numeric_core._PI_GUARD)  # the working scale of compute_pi(20)
        value = digits_21 * scale // 10**20
        monkeypatch.setattr(
            numeric_core, "_pi_fixed", lambda s: tuple(value + d for d in offsets)
        )
        with pytest.raises(PiAgreementError, match=message):
            compute_pi(20)
