import ast
from decimal import (
    ROUND_CEILING, ROUND_DOWN, ROUND_HALF_EVEN, ROUND_UP, Context, Decimal, Inexact, Rounded,
    localcontext,
)
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zetaeven import numeric_core, series_verifier
from zetaeven.numeric_core import (
    HighPrecisionReal,
    PiAgreementError,
    compute_pi,
    positional_str,
    round_significant,
)
from zetaeven.series_verifier import SUITES, direct_zeta_partial, phi_series, run_suite
from zetaeven.zeta_recurrence import zeta_even_decimal

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


class TestDecimalDigits:
    def test_matches_str_around_every_power_of_ten(self):
        numbers = [0, 1, 9, 10, 11] + [10**j + d for j in range(2, 300) for d in (-1, 0, 1)]
        numbers += [7**j for j in range(1, 700, 7)]
        assert [n for n in numbers if numeric_core._decimal_digits(n) != len(str(n))] == []

    def test_past_the_int_str_digit_limit(self, default_int_str_limit):
        for j in (4300, 5000, 100_000):
            assert numeric_core._decimal_digits(10**j - 1) == j
            assert numeric_core._decimal_digits(10**j) == j + 1
        n = 3**50_000
        assert numeric_core._decimal_digits(n) == Decimal(n).adjusted() + 1


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
            # 5 ulps apart, one past the 2 _PI_RADIUS the two values may differ by
            (314159265358979323846, (0, 5), "disagree by more than 4 ulps"),
        ],
    )
    def test_formulae_that_disagree_raise(self, monkeypatch, digits_21, offsets, message):
        scale = 10 ** (19 + numeric_core._GUARD)  # the first working scale of compute_pi(20)
        value = digits_21 * scale // 10**20
        monkeypatch.setattr(
            numeric_core, "_pi_fixed", lambda s: tuple(value + d for d in offsets)
        )
        with pytest.raises(PiAgreementError, match=message):
            compute_pi(20)

    def test_a_ball_that_straddles_a_tie_is_retried(self, monkeypatch):
        # at the first scale both values sit 1 ulp past the tie between the
        # 20-digit ...384 and ...385, on the side away from pi: within the
        # raw bound and rounded alike, but their ball of _PI_RADIUS ulps
        # straddles the tie, so the retry at twice the guard digits, with
        # the true values, decides ...385
        pi_fixed = numeric_core._pi_fixed
        scales = []

        def planted(scale):
            scales.append(scale)
            if len(scales) > 1:
                return pi_fixed(scale)
            unit = scale // 10**19  # one unit in the 20th digit of pi * scale
            tie = pi_fixed(scale)[0] // unit * unit + unit // 2
            return tie - 1, tie - 1

        monkeypatch.setattr(numeric_core, "_pi_fixed", planted)
        assert compute_pi(20) == round_significant(Decimal(PI_50), 20)
        assert len(scales) == 2


class TestBalls:
    """The integer balls: each operation's result holds every value its
    operands' balls allow."""

    @given(
        x=st.integers(0, 2**200), y=st.integers(0, 2**200),
        ex=st.integers(0, 2**40), ey=st.integers(0, 2**40), bits=st.integers(1, 160),
    )
    @example(x=2**10 - 1, y=2**10 - 1, ex=0, ey=0, bits=10)
    @example(x=3, y=5, ex=1, ey=2, bits=1)
    def test_ball_product_holds_every_product_of_the_balls(self, x, y, ex, ey, bits):
        # |X Y 2^bits - w| <= e for X, Y anywhere in their balls; the
        # product is bilinear, so its extremes are at the corners
        ex, ey = min(ex, x), min(ey, y)
        w, e = numeric_core._ball_product(x, ex, y, ey, bits)
        for cx in (x - ex, x + ex):
            for cy in (y - ey, y + ey):
                assert abs(Fraction(cx * cy, 2**bits) - w) <= e

    @given(x=st.integers(-(2**200), 2**200), ex=st.integers(0, 2**60), n=st.integers(1, 2**70))
    @example(x=2**10 - 1, ex=2**10, n=2**10)  # the floor's ulp on top of ex/n
    @example(x=6, ex=0, n=7)
    def test_ball_quotient_holds_every_quotient_of_the_ball(self, x, ex, n):
        w, e = numeric_core._ball_quotient(x, ex, n)
        for end in (x - ex, x + ex):
            assert abs(Fraction(end, n) - w) <= e

    @given(
        num=st.integers(1, 10**60), den=st.integers(1, 10**60), digits=st.integers(1, 100)
    )
    @example(num=10**45 + 1, den=10**45, digits=50)  # x = 1 + 10^-45
    @example(num=10**45, den=10**45 + 1, digits=50)
    @example(num=1, den=1, digits=10)
    @example(num=2, den=1, digits=50)
    @example(num=10**60 - 1, den=1, digits=100)
    @example(num=1, den=10**60 - 1, digits=100)
    def test_ln_ball_holds_mpmaths_ln(self, num, den, digits):
        # rationals in (10^-60, 10^60), on both sides of 1; mpmath at 60
        # more digits is the true ln to far below one ulp of the ball
        mpmath = pytest.importorskip("mpmath")
        value, radius = series_verifier._ln_ball(Fraction(num, den), digits)
        with mpmath.workdps(digits + 60):
            true = mpmath.log(mpmath.mpf(num) / den) * mpmath.mpf(10) ** digits
        assert value - radius <= true <= value + radius
        # and tight: a few ulps, and a few more per power of 2 taken out
        assert radius <= 5 + 2 * abs(num.bit_length() - den.bit_length())


class TestRoundHalfEven:
    @pytest.mark.parametrize(
        "n, places, expected",
        [
            (125 * 10**12, 13, 12),  # a tie: the even quotient stays
            (135 * 10**12, 13, 14),  # a tie: the odd quotient goes up
            (125 * 10**12 - 1, 13, 12),  # one below a tie
            (125 * 10**12 + 1, 13, 13),  # one above a tie
            (9995, 1, 1000),  # the carry adds a digit
            (0, 1, 0),
        ],
    )
    def test_constructed_values(self, n, places, expected):
        assert numeric_core._round_half_even(n, places) == expected

    def test_matches_decimal_quantize(self):
        expected = [
            int(Decimal(n).scaleb(-places).quantize(Decimal(1), ROUND_HALF_EVEN))
            for places in (1, 2, 3) for n in range(3000)
        ]
        assert [
            numeric_core._round_half_even(n, places) for places in (1, 2, 3) for n in range(3000)
        ] == expected


def sample_results():
    """to_line or repr of 94 library results: every report of the four
    suites at 24 digits, phi_series, zeta_even_decimal, compute_pi and
    direct_zeta_partial values, and the two conversions from exact to
    decimal."""
    numeric_core._pi.cache_clear()  # pi computed afresh in the caller's context
    results = [report.to_line() for name in SUITES for report in run_suite(name, digits=24)]
    results += [
        repr(phi_series(m, Fraction(u), 30))
        for m, u in ((-3, "11/10"), (-2, "1001/1000"), (2, "3/2"), (7, "7/2"))
    ]
    results += [zeta_even_decimal(k, 40) for k in (1, 7, 30)]
    results += [repr(compute_pi(digits)) for digits in (10, 100)]
    results += [repr(direct_zeta_partial(1, 100))]
    results += [
        repr(numeric_core._rational_decimal(Fraction(2, 3), 30)),
        repr(numeric_core._rational_decimal(Fraction(2, 3), 30, ROUND_CEILING)),
        repr(numeric_core._fixed_decimal(31415926535897932384626433832795028841971, 40)),
    ]
    return results


@pytest.mark.parametrize(
    "caller",
    [
        Context(prec=3),
        Context(prec=200, rounding=ROUND_UP),
        Context(rounding=ROUND_DOWN),
        Context(Emin=-9, Emax=9),
        Context(traps=[Inexact, Rounded]),
    ],
    ids=["prec3", "prec200-up", "down", "exponents9", "inexact-trapped"],
)
def test_no_result_depends_on_the_callers_decimal_context(caller):
    expected = sample_results()
    assert len(expected) == 94
    with localcontext(caller):
        results = sample_results()
    assert [i for i, (a, b) in enumerate(zip(results, expected)) if a != b] == []


def test_only_numeric_core_calls_the_decimal_contexts():
    # the other modules convert and round through numeric_core's functions
    src = Path(numeric_core.__file__).resolve().parent
    callers = []
    for path in sorted(src.glob("*.py")):
        names = {
            getattr(node, field, None)
            for node in ast.walk(ast.parse(path.read_text()))
            for field in ("id", "name", "attr")
        }
        if "_context" in names:
            callers.append(path.name)
    assert callers == ["numeric_core.py"]
