import doctest
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest

import zetaeven.euler_bernoulli as eb
import zetaeven.numeric_core as nc
import zetaeven.zeta_recurrence as zr
from zetaeven import series_verifier
from zetaeven.euler_bernoulli import BernoulliTable, zeta_even_via_euler
from zetaeven.reports import VerificationReport
from zetaeven.series_verifier import (
    EXPANSION_CASES,
    identity_check_expansion,
    recurrence_cross_check,
)
from zetaeven.zeta_recurrence import (
    ZetaEvenTable,
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

    def test_table_solves_the_papers_recurrence(self):
        # the module docstring's recurrence as written, in plain Fractions:
        # (1 - 4^-k) r_k = sum_{m<k} (-1)^(k-m+1) (1/2 - 4^-m) r_m / (2k-2m)!
        #                  - (-1)^k / (4 (2k)!)
        r = []
        for k in range(1, 41):
            rhs = sum(
                (-1) ** (k - m + 1) * (F(1, 2) - F(1, 4**m)) * r[m - 1] / factorial(2 * k - 2 * m)
                for m in range(1, k)
            ) - F((-1) ** k, 4 * factorial(2 * k))
            r.append(rhs / (1 - F(1, 4**k)))
        assert tuple(r) == zeta_even_table(40).ratios()

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

    @pytest.fixture
    def pi_scales(self, monkeypatch):
        """Scales of the _agreed_pi calls behind a fresh _pi memo."""
        scales = []
        agreed = nc._agreed_pi

        def counting_pi(scale):
            scales.append(scale)
            return agreed(scale)

        monkeypatch.setattr(nc, "_agreed_pi", counting_pi)
        nc._pi.cache_clear()
        yield scales
        nc._pi.cache_clear()

    def test_pi_computed_once_per_working_precision(self, pi_scales):
        first = [zeta_even_decimal(k, 30) for k in range(1, 9)]
        again = [zeta_even_decimal(k, 30) for k in range(1, 9)]
        # one binary scale per working precision, whatever k: the least
        # 2^bits >= 10^(digits + guard) by 1701/512 > log2(10)
        assert pi_scales == [2**133]
        assert 10 ** (30 + nc._GUARD) <= 2**133 < 2 * 10 ** (30 + nc._GUARD)
        assert first == again

    def test_expansion_suite_computes_pi_once(self, pi_scales):
        for k, u in EXPANSION_CASES:
            identity_check_expansion(k, u, 4, 20)
        # one working precision, digits + 15, shared by the three cases,
        # the rhs and the tail envelope: one binary scale past 10^36
        assert pi_scales == [2**120]
        assert 10**36 <= 2**120 < 2 * 10**36

    @pytest.mark.parametrize("digits", [50, 80])
    def test_verify_all_computes_pi_at_most_twice(self, pi_scales, digits):
        # one binary scale for the expansion suite, past 10^(digits + 16),
        # and one shared by the abel targets and the phi suite's even
        # limits, past 10^(digits + 11)
        for name in series_verifier.SUITES:
            series_verifier.run_suite(name, digits=digits)
        assert pi_scales == [2 ** nc._bits_for(digits + 15), 2 ** nc._bits_for(digits + 10)]

    def test_validation(self):
        with pytest.raises(ValueError):
            zeta_even_decimal(0, 20)
        with pytest.raises(ValueError):
            zeta_even_decimal(1, 9)


def mpmath_zeta_digits(mpmath, k, digits):
    """zeta(2k) correctly rounded to ``digits`` significant digits by
    mpmath, in zeta_even_decimal's format. zeta(2k) lies in (1, 2) and is
    irrational, so 30 more digits leave no tie to break."""
    with mpmath.workdps(digits + 30):
        nearest = str(int(mpmath.nint(mpmath.zeta(2 * k) * mpmath.mpf(10) ** (digits - 1))))
    return nearest[0] + "." + nearest[1:]


class TestCertifiedDecimal:
    """zeta_even_decimal's integer ball (see its docstring): every digit
    is the correctly rounded one, the ball holds the true value, and an
    undecided rounding retries, then refuses."""

    @pytest.mark.parametrize("digits", [10, 45, 200, 1500])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 20, 44, 100])
    def test_correctly_rounded_against_mpmath(self, k, digits):
        mpmath = pytest.importorskip("mpmath")
        assert zeta_even_decimal(k, digits) == mpmath_zeta_digits(mpmath, k, digits)

    @pytest.mark.parametrize("digits", [10, 45, 200])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 20, 44, 100])
    def test_ball_contains_the_true_value(self, k, digits):
        # at the production scale, and at the coarser 2^bits ~ 10^places
        # where pi's radius counts most; mpmath at 60 more digits is the
        # true value to far below one ulp of the ball
        mpmath = pytest.importorskip("mpmath")
        places = digits - 1 + nc._GUARD
        with mpmath.workdps(places + 60):
            true = int(mpmath.nint(mpmath.zeta(2 * k) * mpmath.mpf(10) ** (places + 50)))
        for bits in (-(-(places + 1) * 1701 // 512), -(-places * 1701 // 512)):
            value, radius = zr._zeta_even_ball(k, places, bits)
            assert (value - radius) * 10**50 < true < (value + radius) * 10**50, (k, digits, bits)

    def test_last_floor_costs_an_ulp(self, monkeypatch):
        # an exact pi^(2k) (radius 0): the ball must still hold the exact
        # quotient r_k v 10^places / 2^bits, which the floor cuts
        bits, places = 80, 20
        for k, v in ((1, 3 * 2**80 + 12345), (2, 97 * 2**80 + 2**79 - 1), (5, 2**90 // 7)):
            monkeypatch.setattr(zr, "_pi_power_ball", lambda k, bits, v=v: (v, 0))
            value, radius = zr._zeta_even_ball(k, places, bits)
            exact = zeta_even_ratio(k) * v * 10**places / 2**bits
            assert exact.denominator > 1
            assert value - radius <= exact <= value + radius, k

    def test_undecided_rounding_retries_with_more_guard(self, monkeypatch):
        # at a start guard of 1 digit, zeta(2k) to 20 digits straddles a
        # rounding boundary for k = 1, 5 and 8; the retry at 2 digits
        # decides it, and alike
        expected = [zeta_even_decimal(k, 20) for k in (1, 5, 8)]
        decisions = []
        alike = nc._rounds_alike

        def recording(value, radius, precision):
            decisions.append(alike(value, radius, precision))
            return decisions[-1]

        monkeypatch.setattr(nc, "_GUARD", 1)
        monkeypatch.setattr(nc, "_rounds_alike", recording)
        for k, want in zip((1, 5, 8), expected):
            decisions.clear()
            assert zeta_even_decimal(k, 20) == want
            assert decisions == [False, True], k

    def test_a_ball_that_never_decides_exits_2(self, monkeypatch, capsys):
        from zetaeven import cli

        tries = []
        monkeypatch.setattr(nc, "_rounds_alike", lambda *args: tries.append(args) or False)
        with pytest.raises(ValueError, match="not decided at 80 guard digits"):
            zeta_even_decimal(3, 20)
        # guards 10, 20, 40 and 80: up to 8 times the start
        assert len(tries) == 4
        assert cli.main(["zeta", "--k", "3", "--digits", "20"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err and "zeta(6)" in err


class TestCrossCheck:
    def test_passes_and_records_depth(self):
        report = recurrence_cross_check(30)
        assert report.passed
        assert report.identity_name == "zeta_even_recurrence_vs_euler_formula"
        assert report.parameters["k_max"] == 30
        assert report.parameters["mismatch_indices"] == ""
        assert report.lhs == report.rhs

    def test_mismatch_names_its_index(self, monkeypatch):
        # a Bernoulli route wrong at k = 7 alone (B_14 off in the shared
        # table, in its values and in the pairs the check compares): the
        # report fails, names 7 and compares the two routes' values there
        table = eb._default_bernoulli
        value, pair = table.value, table._pair
        planted = value(14) + F(1, 10**40)
        monkeypatch.setattr(table, "value", lambda n: planted if n == 14 else value(n))
        planted_pair = planted.as_integer_ratio()
        monkeypatch.setattr(table, "_pair", lambda n: planted_pair if n == 14 else pair(n))
        wrong = zeta_even_via_euler(7)
        report = recurrence_cross_check(12)
        assert not report.passed
        assert report.parameters["mismatch_indices"] == "7"
        assert report.residual.value == 1
        assert (report.lhs, report.rhs) == (str(zeta_even_ratio(7)), str(wrong))

    def test_planted_ratio_fault_is_a_mismatch(self, monkeypatch):
        # a recurrence value wrong at k = 9 alone fails the cross-multiplied
        # comparison there and nowhere else
        wrong = zeta_even_ratio(9) * (1 + F(1, 10**30))
        # the check imports the recurrence's function when it runs, and
        # compares the shared table's pairs, at position k - 1
        table = zr._shared_table
        pair, wrong_pair = table._pair, wrong.as_integer_ratio()
        monkeypatch.setattr(zr, "zeta_even_ratio", lambda k: wrong if k == 9 else zeta_even_ratio(k))
        monkeypatch.setattr(table, "_pair", lambda i: wrong_pair if i == 8 else pair(i))
        report = recurrence_cross_check(12)
        assert not report.passed
        assert report.parameters["mismatch_indices"] == "9"
        assert report.residual.value == 1
        assert (report.lhs, report.rhs) == (str(wrong), str(zeta_even_via_euler(9)))

    def test_rejects_k_max_below_one(self):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            recurrence_cross_check(0)

    def test_builds_the_bernoulli_table_once(self, monkeypatch):
        # a fresh table, so the count does not depend on what ran before;
        # growing requests k = 1, 2, 3, ... would rebuild it by doubling
        monkeypatch.setattr(eb, "_default_bernoulli", BernoulliTable())
        builds = []
        tangents = eb._tangent_numbers
        monkeypatch.setattr(eb, "_tangent_numbers", lambda count: builds.append(count) or tangents(count))
        assert recurrence_cross_check(116).passed
        assert builds == [116]

    def test_reduces_only_the_entries_it_prints(self, monkeypatch):
        # fresh shared tables: the check compares unreduced pairs, and only
        # r_116 and B_232, which the passing report prints, become Fractions
        monkeypatch.setattr(zr, "_shared_table", ZetaEvenTable())
        monkeypatch.setattr(eb, "_default_bernoulli", BernoulliTable())
        assert recurrence_cross_check(116).passed
        for table, printed in ((zr._shared_table, 115), (eb._default_bernoulli, 232)):
            entries = table._entries
            assert len(entries) == printed + 1
            assert [i for i, entry in enumerate(entries) if type(entry) is F] == [printed]
            assert table._pair(printed) == table._read(printed).as_integer_ratio()
            # the pairs left unreduced hold their entry's value over a positive denominator
            for i in (1, 40, printed - 1):
                (a, b), (p, q) = table._pair(i), table._read(i).as_integer_ratio()
                assert b > 0 and a * q == p * b, i

    def test_line_round_trip(self):
        report = recurrence_cross_check(12)
        back = VerificationReport.from_line(report.to_line())
        assert back.to_line() == report.to_line()
        assert back.passed
