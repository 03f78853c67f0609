import doctest
from decimal import Decimal
from fractions import Fraction

import pytest

import zetaeven.zeta_recurrence as zr
from zetaeven.euler_bernoulli import BernoulliTable, zeta_even_via_euler
from zetaeven.numeric_core import compute_pi
from zetaeven.reports import VerificationReport
from zetaeven.zeta_recurrence import (
    ZetaEvenTable,
    recurrence_cross_check,
    zeta_even_decimal,
    zeta_even_ratio,
    zeta_even_table,
)

F = Fraction


class TestRatios:
    def test_hand_checked_values(self):
        assert zeta_even_ratio(1) == F(1, 6)
        assert zeta_even_ratio(2) == F(1, 90)
        assert zeta_even_ratio(3) == F(1, 945)
        assert zeta_even_ratio(4) == F(1, 9450)
        assert zeta_even_ratio(5) == F(1, 93555)

    def test_agrees_with_bernoulli_route(self):
        table = zeta_even_table(400)
        for k in range(1, 401):
            assert table.ratio(k) == zeta_even_via_euler(k)

    @pytest.mark.slow
    def test_agrees_with_bernoulli_route_to_1000(self):
        table = zeta_even_table(1000)
        for k in range(1, 1001):
            assert table.ratio(k) == zeta_even_via_euler(k)

    def test_recurrence_uses_no_bernoulli_numbers(self, monkeypatch):
        # the cross-check compares two routes only if they are independent
        def refuse(*args):
            raise AssertionError("the recurrence reached the Bernoulli table")

        monkeypatch.setattr(BernoulliTable, "value", refuse)
        monkeypatch.setattr(BernoulliTable, "_extend_to", refuse)
        table = ZetaEvenTable()
        assert [table.ratio(k) for k in range(1, 6)] == [
            F(1, 6), F(1, 90), F(1, 945), F(1, 9450), F(1, 93555)
        ]

    def test_ratios_positive_and_decreasing(self):
        ratios = zeta_even_table(30).ratios()
        assert all(r > 0 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_doctests(self):
        failures, _ = doctest.testmod(zr)
        assert failures == 0


class TestTable:
    def test_max_k_tracks_extension(self):
        table = ZetaEvenTable()
        assert table.max_k == 0
        table.ratio(7)
        assert table.max_k == 7
        for k in (1, 2, 5, 37, 120):
            table = ZetaEvenTable()
            table.ratio(k)
            assert table.max_k == k
            assert len(table.ratios()) == k

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ZetaEvenTable().ratio(0)
        with pytest.raises(ValueError):
            zeta_even_table(0)

    def test_fresh_table_matches_shared_route(self):
        assert zeta_even_table(6).ratios() == tuple(
            zeta_even_ratio(k) for k in range(1, 7)
        )


class TestDecimal:
    def test_twelve_digit_values(self):
        assert zeta_even_decimal(1, 12) == "1.64493406685"
        assert zeta_even_decimal(2, 12) == "1.08232323371"

    def test_fifty_digit_zeta_two(self):
        # pi^2/6 to 50 digits (reference constant)
        assert (
            zeta_even_decimal(1, 50)
            == "1.6449340668482264364724151666460251892189499012068"
        )

    def test_large_k_close_to_one(self):
        value = Decimal(zeta_even_decimal(10, 12))
        assert Decimal("0.00000095") < value - 1 < Decimal("0.00000096")

    def test_deterministic(self):
        assert zeta_even_decimal(3, 40) == zeta_even_decimal(3, 40)

    def test_pi_computed_once_per_working_precision(self, monkeypatch):
        precisions = []

        def counting_pi(digits):
            precisions.append(digits)
            return compute_pi(digits)

        monkeypatch.setattr(zr, "compute_pi", counting_pi)
        zr._pi.cache_clear()
        try:
            first = [zeta_even_decimal(k, 30) for k in range(1, 9)]
            again = [zeta_even_decimal(k, 30) for k in range(1, 9)]
        finally:
            zr._pi.cache_clear()
        # working precision is digits + 12 + len(str(2k)): 43 for k < 5, 44 after
        assert precisions == [43, 44]
        assert first == again

    def test_validation(self):
        with pytest.raises(ValueError):
            zeta_even_decimal(0, 20)
        with pytest.raises(ValueError):
            zeta_even_decimal(1, 9)


class TestCrossCheck:
    def test_passes_and_records_depth(self):
        report = recurrence_cross_check(30)
        assert report.passed
        assert report.identity_name == "zeta_even_recurrence_vs_euler_formula"
        assert report.parameters["k_max"] == 30
        assert report.parameters["mismatch_indices"] == ""
        assert report.lhs == report.rhs

    def test_line_round_trip(self):
        report = recurrence_cross_check(12)
        back = VerificationReport.from_line(report.to_line())
        assert back.to_line() == report.to_line()
        assert back.passed
