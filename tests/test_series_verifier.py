import ast
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import zetaeven
from zetaeven import numeric_core, series_verifier
from zetaeven.euler_bernoulli import euler_polynomial, euler_polynomial_eval
from zetaeven.numeric_core import HighPrecisionReal, _bits_for, _pi
from zetaeven.powerseries import exp_series, series_div
from zetaeven.reports import VerificationReport, render_value
from zetaeven.series_verifier import (
    ABEL_DELTAS,
    EXPANSION_CASES,
    MAX_SERIES_WORK,
    PhiEvaluation,
    SeriesBudgetError,
    _cvz_sum,
    _cvz_terms,
    _cvz_weights,
    _expansion_tail_envelope,
    _ln_ball,
    _pole_constant,
    _polylog_gap,
    _ceil_ulps,
    _reciprocal_power_sum,
    _term_digits,
    _two_eta,
    abel_limit_check,
    direct_zeta_partial,
    identity_check_expansion,
    phi_coefficients,
    phi_series,
    phi_taylor_coeff,
    run_suite,
)
from zetaeven.zeta_recurrence import _zeta_even_ball, zeta_even_decimal

F = Fraction
# pi to 60 decimals, kept apart from numeric_core.compute_pi
PI_60 = Decimal("3.141592653589793238462643383279502884197169399375105820974945")


def kernel_sum(m, num, den, bits, n):
    """``_cvz_sum`` with the stop estimate that its callers pass in, read
    through the module, so that a test can plant a wrong one."""
    estimate = series_verifier._terms_before_floor(bits, math.log(den) - math.log(num), n, m)
    return _cvz_sum(m, num, den, bits, n, estimate)


def abs_error(evaluation, exact):
    """|value - exact| as a Decimal, computed without quantizing the exact side."""
    with localcontext() as ctx:
        ctx.prec = 90
        exact_dec = Decimal(exact.numerator) / Decimal(exact.denominator)
        return abs(evaluation.value.value - exact_dec)


class TestPhiEvaluationType:
    def test_validates_domain(self):
        bound = HighPrecisionReal(Decimal(0), 10)
        with pytest.raises(ValueError):
            PhiEvaluation(0, F(1, 2), F(1), 1, bound)
        with pytest.raises(ValueError):
            PhiEvaluation(0, F(2), F(1), 0, bound)
        with pytest.raises(ValueError):
            PhiEvaluation(0, F(2), F(1), 1, HighPrecisionReal(Decimal(-1), 10))

    def test_is_an_immutable_value(self):
        bound = HighPrecisionReal(Decimal(0), 10)
        evaluation = PhiEvaluation(2, F(2), F(4, 27), 1, bound)
        same = PhiEvaluation(m=2, u=F(2), value=F(4, 27), terms_used=1, error_bound=bound)
        assert evaluation == same
        assert evaluation != PhiEvaluation(2, F(2), F(4, 27), 2, bound)
        assert evaluation != PhiEvaluation(3, F(2), F(4, 27), 1, bound)
        assert repr(evaluation) == (
            "PhiEvaluation(m=2, u=Fraction(2, 1), value=Fraction(4, 27), terms_used=1, "
            "error_bound=HighPrecisionReal('0', digits=10))"
        )
        with pytest.raises(AttributeError):
            evaluation.terms_used = 5
        assert evaluation.terms_used == 1
        with pytest.raises(TypeError):
            hash(evaluation)


class TestPhiSeries:
    def test_closed_form_at_three(self):
        evaluation = phi_series(0, F(3), 30)
        assert abs_error(evaluation, F(1, 2)) <= evaluation.error_bound.value

    def test_closed_form_random_points(self):
        # phi_0(u) = 2/(u+1); twenty seeded-random rational u > 1
        rng = random.Random(8161971)
        for _ in range(20):
            u = 1 + F(rng.randint(1, 99), rng.randint(1, 99))
            evaluation = phi_series(0, u, 25)
            assert abs_error(evaluation, F(2, u + 1)) <= evaluation.error_bound.value

    def test_matches_taylor_coefficients(self):
        for u in (F(3, 2), F(2), F(3)):
            for m in range(0, 21):
                evaluation = phi_series(m, u, 40)
                exact = phi_taylor_coeff(m, u)
                assert abs_error(evaluation, exact) <= evaluation.error_bound.value

    def test_negative_index_approaches_zeta_two(self):
        target = Decimal(zeta_even_decimal(1, 25))
        residuals = []
        for exponent in (1, 2, 3):
            u = 1 + F(1, 10**exponent)
            evaluation = phi_series(-2, u, 15)
            residuals.append(abs(target - evaluation.value.value))
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < Decimal("0.002")

    def test_alternating_harmonic_case(self):
        # phi_{-1}(3/2) = 2 ln(5/3) = 1.0216512475319814...
        evaluation = phi_series(-1, F(3, 2), 20)
        assert str(evaluation.value.rounded()).startswith("1.02165124753198")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi_series(0, F(1), 20)
        with pytest.raises(ValueError):
            phi_series(2, F(1, 2), 20)
        with pytest.raises(ValueError):
            phi_series(0, F(2), 9)

    def test_work_budget(self, monkeypatch):
        # u = 1 + 1e-9 at 50 digits: the accelerated series needs under 150
        # terms for either sign of m (the plain m >= 0 loop needed ~1e11)
        u = F("1.000000001")
        exact = phi_coefficients(u, 3)
        for m in (0, 3):
            evaluation = phi_series(m, u, 50)
            assert evaluation.terms_used < 150, m
            assert abs_error(evaluation, exact[m]) <= evaluation.error_bound.value, m
        assert phi_series(-2, u, 50).terms_used < 100
        # the longest series the suites and benchmark ask for keeps a 10x margin
        works = []
        check = series_verifier._check_work
        monkeypatch.setattr(series_verifier, "_check_work", lambda what, work: works.append(work) or check(what, work))
        for m, v, digits in ((3, F(1201, 1200), 50), (28, F(9, 8), 30), (20, F(3, 2), 80), (13, F(3), 50)):
            phi_series(m, v, digits)
        assert 10 * max(works) <= MAX_SERIES_WORK
        # past the work budget, refused before any sum, for every sign of m
        # and for large m far from 1, where the weights grow with m

        def refuse(*args):
            raise AssertionError("summed before the budget check")

        monkeypatch.setattr(series_verifier, "_cvz_sum", refuse)
        for m, v, digits in ((-2, u, 10_000), (0, u, 10_000), (3, u, 10_000), (1000, F(3), 50)):
            with pytest.raises(SeriesBudgetError, match="over the budget"):
                phi_series(m, v, digits)

    def test_counts_digits_past_the_int_str_digit_limit(self, default_int_str_limit):
        # the lead of phi_2(101/100) ~ 2.4e-3 comes from a 4400-digit ball
        u = F(101, 100)
        evaluation = phi_series(2, u, 4400)
        exact = 2 * u * (u - 1) / (u + 1) ** 3
        assert abs(F(evaluation.value.value) - exact) <= F(evaluation.error_bound.value)
        assert len(evaluation.value.rounded().as_tuple().digits) == 4400

    def test_reports_terms_used(self):
        evaluation = phi_series(0, F(10), 20)
        assert evaluation.terms_used >= 1
        # farther from 1 converges faster
        assert evaluation.terms_used < phi_series(0, F(11, 10), 20).terms_used


class TestPhiTaylor:
    def test_small_closed_forms(self):
        # phi_0(u) = 2/(u+1), phi_1(u) = 2u/(u+1)^2, phi_2(u) = 2u(u-1)/(u+1)^3
        assert phi_taylor_coeff(0, F(3)) == F(1, 2)
        assert phi_taylor_coeff(1, F(2)) == F(4, 9)
        assert phi_taylor_coeff(2, F(2)) == F(4, 27)
        assert phi_taylor_coeff(2, F(1)) == 0

    def test_at_one_equals_euler_polynomial_values(self):
        for m in range(0, 13):
            expected = euler_polynomial_eval(euler_polynomial(m), F(1))
            assert phi_taylor_coeff(m, F(1)) == expected

    def test_rejects_negative_m_and_u_below_one(self):
        with pytest.raises(ValueError):
            phi_taylor_coeff(-1, F(2))
        with pytest.raises(ValueError):
            phi_taylor_coeff(1, F(1, 2))

    def test_recurrence_matches_series_division_oracle(self):
        order = 60
        e = exp_series(order)
        for u in (F(1), F(3, 2), F(2), F(7, 3), F(25, 8)):
            denom = list(e)
            denom[0] += u
            oracle = series_div([2 * c for c in e], denom)
            values = phi_coefficients(u, order)
            assert len(values) == order + 1
            for m, value in enumerate(values):
                assert value == oracle[m] * factorial(m), (u, m)
                assert phi_taylor_coeff(m, u) == value, (u, m)

    def test_recurrence_at_one_is_euler_polynomial_values(self):
        # the phi recurrence and the tangent-number route share no code
        for m, value in enumerate(phi_coefficients(1, 300)):
            assert value == euler_polynomial_eval(euler_polynomial(m), F(1)), m

    def test_coefficient_list_validation(self):
        assert phi_coefficients(F(3), 0) == [F(1, 2)]
        with pytest.raises(ValueError):
            phi_coefficients(F(2), -1)
        with pytest.raises(ValueError):
            phi_coefficients(F(1, 2), 3)


def test_cli_import_leaves_power_series_out_of_the_runtime():
    # a fresh interpreter, pointed at the same package these tests import;
    # -S keeps site hooks from preloading any of these and masking an import
    src = Path(zetaeven.__file__).resolve().parents[1]
    absent = (
        "zetaeven.powerseries", "dataclasses", "inspect", "csv", "typing", "json", "threading",
    )
    code = f"import sys, zetaeven.cli; print([m for m in {absent!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


def test_cli_call_leaves_argparse_and_json_out_of_the_runtime():
    # the argv parser is the CLI's own table and json-lines records are
    # written without the json package, so a whole json-lines call
    # imports neither, nor what argparse pulls in
    src = Path(zetaeven.__file__).resolve().parents[1]
    absent = ("argparse", "gettext", "locale", "json")
    code = (
        "import sys, zetaeven.cli\n"
        f"before = [m for m in {absent!r} if m in sys.modules]\n"
        "status = zetaeven.cli.main(['zeta', '--k', '5', '--exact', '--format', 'json-lines'])\n"
        f"print(status, before, [m for m in {absent!r} if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    record, modules = result.stdout.splitlines()
    assert record == '{"kind": "ratio", "k": 5, "numerator": "1", "denominator": "93555"}'
    assert modules == "0 [] []"


def count_scaled_weights(monkeypatch):
    """Empty the kernel's scaled-weight cache and count, from here on, its
    lookups and its builds (each build computes the raw weights once)."""
    counts = {"lookups": 0, "builds": 0}
    scaled, weights = series_verifier._cvz_scaled, series_verifier._cvz_weights

    def counting_scaled(*args):
        counts["lookups"] += 1
        return scaled(*args)

    def counting_weights(n):
        counts["builds"] += 1
        return weights(n)

    monkeypatch.setattr(series_verifier, "_cvz_cache", None)
    monkeypatch.setattr(series_verifier, "_cvz_scaled", counting_scaled)
    monkeypatch.setattr(series_verifier, "_cvz_weights", counting_weights)
    return counts


def test_phi_suite_shares_the_kernel_weights_across_its_sample_u(monkeypatch):
    # for one m the three sample u need the same kernel (n, m, bits), so
    # the suite sums m-major and most lookups hit the one scaled list
    counts = count_scaled_weights(monkeypatch)
    series_verifier.run_suite("phi", digits=50)
    assert 2 * counts["builds"] < counts["lookups"], counts


@pytest.mark.parametrize("k, u", ((1, 1 + ABEL_DELTAS[-1]), *EXPANSION_CASES), ids=str)
def test_one_f_k_builds_its_scaled_weights_once(monkeypatch, k, u):
    # every Lewin level sums at the same (n, -2k, bits), the first longest
    counts = count_scaled_weights(monkeypatch)
    _reciprocal_power_sum(k, u, 10**60)
    assert counts["builds"] == 1 and counts["lookups"] > 1, counts


def test_exact_routes_import_only_numeric_core_from_the_package():
    # the recurrence and the Bernoulli route are independent by their
    # import graphs: each may use numeric_core and no other package module
    src = Path(zetaeven.__file__).resolve().parent
    for name in ("zeta_recurrence.py", "euler_bernoulli.py"):
        imported = set()
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = ("zetaeven" if node.level else "", node.module)
                imported.update(
                    ".".join(filter(None, (*base, alias.name))) for alias in node.names
                )
        package = [n.split(".")[:2] for n in imported if n.split(".")[0] == "zetaeven"]
        assert package, name
        assert all(parts == ["zetaeven", "numeric_core"] for parts in package), (name, imported)


def test_package_exports_the_runtime_modules_all():
    from zetaeven import (
        cli, euler_bernoulli, numeric_core, powerseries, reports, zeta_recurrence,
    )

    runtime = (euler_bernoulli, numeric_core, reports, series_verifier, zeta_recurrence)
    declared = [name for module in runtime for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(zetaeven.__all__) == sorted(declared)
    for module in runtime:
        for name in module.__all__:
            assert getattr(zetaeven, name) is getattr(module, name)
    # the oracle-only power series and the command line stay out
    for module in (cli, powerseries):
        assert not set(module.__all__) & set(zetaeven.__all__)


class TestPhiAtOne:
    def test_known_values(self):
        # 2e^t/(e^t + 1) = 1 + tanh(t/2): odd values do not vanish
        assert phi_coefficients(1, 3) == [1, F(1, 2), 0, F(-1, 4)]


class TestTwoEta:
    """_two_eta: the alternating sums 2 sum (-1)^(n+1)/n^m = 2 eta(m), from the kernel at y = 1."""

    def test_single_term(self):
        # one weighted term: c_0 = 2 over d = T_1(3) = 3, so 2 * (2/3) * a_0
        assert _cvz_weights(1) == ([2], 3)
        value, radius, terms = kernel_sum(-2, 1, 1, 60, 1)
        assert terms == 1
        assert abs(value - F(4, 3) * 2**60) < 2
        # the truncation bound 2y/d = 2/3 covers 2 eta(2) = zeta(2) = 1.6449...
        assert abs(F(value, 2**60) - F(Decimal(zeta_even_decimal(1, 30)))) <= F(radius, 2**60)

    def test_converges_to_minus_half_zeta_two(self):
        # 2 eta(2) = zeta(2), the limit of -2 sum_{n<=N} (-1)^n/n^2: a
        # ball in ulps of 10^-60, from the zeta ball at even m
        value, radius = _two_eta(2, 50)
        target = Decimal(zeta_even_decimal(1, 80))
        assert abs(F(value, 10**60) - F(target)) <= F(radius, 10**60) + F(1, 10**79)
        assert radius < 100

    def test_m_four_against_zeta_four(self):
        value, radius = _two_eta(4, 50)
        target = F(Decimal(zeta_even_decimal(2, 80))) * 7 / 4
        assert abs(F(value, 10**60) - target) <= F(radius, 10**60) + F(1, 10**79)

    def test_domain_errors(self, monkeypatch):
        with pytest.raises(ValueError):
            _two_eta(0, 50)

        def refuse(*args):
            raise AssertionError("summed before the budget check")

        monkeypatch.setattr(series_verifier, "_cvz_sum", refuse)
        with pytest.raises(SeriesBudgetError, match="over the budget"):
            _two_eta(3, 10**5)


def exact_sum(a, b):
    """a + b as a Decimal, refusing to round."""
    with localcontext() as ctx:
        ctx.prec = 300
        ctx.traps[Inexact] = True
        return a + b


class TestDirectZetaPartial:
    def test_single_term(self):
        value, tail_high = direct_zeta_partial(1, 1)
        assert value == HighPrecisionReal(Decimal(1), 50)
        assert tail_high.value == 1

    def test_brackets_contain_decimal_values(self):
        # zeta(2k) to 120 digits is within 1e-119 of the true value, far
        # inside the narrowest margin of the grid (about 4.5e-81 at k = 10,
        # N = 10^4), so exact comparison against it decides each bracket
        for k in range(1, 11):
            target = Decimal(zeta_even_decimal(k, 120))
            for n in (100, 1000, 10000):
                value, tail_high = direct_zeta_partial(k, n)
                high = exact_sum(value.value, tail_high.value)
                assert value.value < target < high, (k, n)

    def test_counts_digits_past_the_int_str_digit_limit(self, default_int_str_limit):
        # zeta(4400) - 1 - 2^-4400 is 3^-4400 (1 + (3/4)^4400 + ...), and
        # the floors of 100 terms cost far less than 3^-4400
        value, tail_high = direct_zeta_partial(2200, 100)
        excess = F(value.value) - 1 - F(1, 2**4400)
        assert 0 < excess < F(2, 3**4400)
        assert tail_high.value > 0

    def test_rejects_k_or_n_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            direct_zeta_partial(0, 10)
        with pytest.raises(ValueError, match="N must be >= 1"):
            direct_zeta_partial(1, 0)

    def test_tail_formula(self):
        _, tail_high = direct_zeta_partial(2, 100)
        # 100^(1-4)/(4-1) = 1/3e6
        assert tail_high.value == Decimal(
            "3.3333333333333333333333333333333333333333333333334E-7"
        )


class TestAbelLimit:
    DELTAS = [F(1, 10), F(1, 100), F(1, 1000)]

    def test_monotone_convergence(self):
        report = abel_limit_check(1, self.DELTAS, 20)
        assert report.passed
        assert report.identity_name == "zeta_even_abel_limit"
        assert report.parameters["monotone_from_below"] is True
        residuals = [Decimal(r) for r in report.parameters["residuals"].split(",")]
        assert residuals[0] > residuals[1] > residuals[2] > 0

    def test_reproducible(self):
        first = abel_limit_check(2, self.DELTAS, 15)
        second = abel_limit_check(2, self.DELTAS, 15)
        assert first.to_line() == second.to_line()

    def test_validation(self):
        with pytest.raises(ValueError):
            abel_limit_check(1, [], 20)
        with pytest.raises(ValueError):
            abel_limit_check(1, [F(1, 10), F(1, 10)], 20)
        with pytest.raises(ValueError):
            abel_limit_check(1, [F(0)], 20)
        with pytest.raises(ValueError):
            abel_limit_check(0, self.DELTAS, 20)
        with pytest.raises(ValueError):
            abel_limit_check(1, self.DELTAS, 9)


    def test_past_the_budget_refused_before_any_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("f_k was summed before the budget check")

        # 5000 digits at delta = 1/1000: about 5e11 term-digits
        monkeypatch.setattr(series_verifier, "_cvz_sum", refuse)
        with pytest.raises(SeriesBudgetError, match="over the budget"):
            abel_limit_check(1, self.DELTAS, 5000)

    def test_plans_each_f_k_sum_once(self, monkeypatch):
        # one budget check per f_k(1 + delta), three deltas at each of the
        # suite's two k: the sum that plans it, and nothing before it
        check = series_verifier._check_work
        messages = []

        def counting(what, work):
            messages.append(what())
            check(what, work)

        monkeypatch.setattr(series_verifier, "_check_work", counting)
        run_suite("abel", digits=30)
        assert sum(message.startswith("f_") for message in messages) == 6, messages

    def test_budget_estimate_bounds_the_terms_summed(self, monkeypatch):
        # the work the kernel's pre-sum check estimates is at least the
        # work then done: terms summed times their digit size
        kernel, check = series_verifier._cvz_sum, series_verifier._check_work
        estimates, done = [], []

        def counting_kernel(m, num, den, bits, n, estimate):
            value, radius, terms = kernel(m, num, den, bits, n, estimate)
            done.append((terms, _term_digits(bits, den.bit_length())))
            return value, radius, terms

        def capture(what, work):
            estimates.append(work)
            check(what, work)

        monkeypatch.setattr(series_verifier, "_cvz_sum", counting_kernel)
        monkeypatch.setattr(series_verifier, "_check_work", capture)
        cases = ((1, F(1001, 1000), 30), (2, F(11, 10), 60), (3, F(3, 2), 65),
                 (1, 1 + F(1, 10**9), 40), (2, F(10**40), 300))
        for k, u, digits in cases:
            estimates.clear()
            done.clear()
            scale = 10**digits
            _, _, terms = _reciprocal_power_sum(k, u, scale)
            assert terms == sum(t for t, _ in done) and terms > 0
            work = sum(t * size for t, size in done)
            assert estimates == [estimates[0]] and work <= estimates[0], (k, u)

    def test_residual_balls_must_clear_zero_and_each_other(self, monkeypatch):
        # the check compares balls, not points: a residual moved to within
        # its radius of 0, or a middle one moved below the next ball, fails
        good = abel_limit_check(1, self.DELTAS, 20)
        assert good.parameters["monotone_from_below"] is True
        kernel_sum = series_verifier._reciprocal_power_sum
        scale = 10**30
        # the suite's own target ball at 10^-30, with its radius
        target, target_radius = _zeta_even_ball(1, 30, _bits_for(30))

        def planted(shift_for):
            def shifted(k, u, s):
                value, radius, terms = kernel_sum(k, u, s)
                return value + shift_for(u, value, radius), radius, terms
            return shifted

        # the last residual left half its ball's radius above 0
        def to_zero(u, value, radius):
            return target - value - (radius + target_radius) // 2 if u == 1 + self.DELTAS[-1] else 0

        # the middle residual shifted below the last one by more than its radius
        def past_next(u, value, radius):
            if u != 1 + self.DELTAS[1]:
                return 0
            last, last_radius, _ = kernel_sum(1, 1 + self.DELTAS[-1], scale)
            return last - value + 2 * radius

        for fault in (to_zero, past_next):
            monkeypatch.setattr(series_verifier, "_reciprocal_power_sum", planted(fault))
            report = abel_limit_check(1, self.DELTAS, 20)
            assert report.parameters["monotone_from_below"] is False, fault.__name__
            assert not report.passed


def phi_mpmath(mpmath, M, u):
    """phi_M(u) from mpmath alone, at its working precision.

    M <= 0: -2 Li_(-M)(-1/u) (DLMF 25.12). M >= 1: the pole expansion
    -2 M! sum_(n in Z) z_n^-(M+1), z_n = ln u + (2n+1) i pi. Poles n and
    -1-n are conjugate, and z_n = 2 pi i (n + a) with a = 1/2 - i ln(u)/(2 pi),
    so the sum is 2 Re((2 pi i)^-(M+1) zeta(M+1, a)), a Hurwitz zeta.
    """
    x = mpmath.mpf(u.denominator) / u.numerator
    if M <= 0:
        return -2 * mpmath.polylog(-M, -x)
    a = mpmath.mpf(1) / 2 + 1j * mpmath.log(x) / (2 * mpmath.pi)
    pairs = (2j * mpmath.pi) ** -(M + 1) * mpmath.zeta(M + 1, a)
    return -4 * mpmath.factorial(M) * mpmath.re(pairs)


class TestExpansionIdentity:
    def test_lhs_past_the_budget_refused(self, monkeypatch):
        # the accelerated f_k answers u = 1 + 1e-6 at 50 digits at once;
        # at 2000 digits it is past the kernel's work budget
        assert identity_check_expansion(1, 1 + F(1, 10**6), 3, 50).parameters["lhs_terms"] > 0

        def refuse(*args):
            raise AssertionError("f_k was summed before the budget check")

        monkeypatch.setattr(series_verifier, "_cvz_sum", refuse)
        with pytest.raises(SeriesBudgetError, match="over the budget"):
            identity_check_expansion(1, 1 + F(1, 10**6), 3, 2000)

    def test_passes_with_derived_tolerance(self):
        report = identity_check_expansion(1, F(3, 2), 12, 30)
        assert report.passed
        assert report.identity_name == "cosine_series_rearrangement"
        assert report.parameters["jmax"] == 12
        assert report.parameters["precision"] == 30
        assert int(report.parameters["lhs_terms"]) > 0
        assert Decimal(report.parameters["first_omitted"]) > 0

    def test_deeper_truncation_shrinks_residual(self):
        shallow = identity_check_expansion(1, F(3, 2), 6, 30)
        deep = identity_check_expansion(1, F(3, 2), 20, 30)
        assert abs(deep.residual.value) < abs(shallow.residual.value)

    def test_no_certified_tail_bound_fails(self):
        # at u = 1 + 1e-45 the envelope's 25 decimals (precision 10 plus
        # 15) cannot tell R from pi, so there is no finite bound, and the
        # report judged against it fails
        u = 1 + F(1, 10**45)
        assert _expansion_tail_envelope(1, u, 1, 25) is None
        report = identity_check_expansion(1, u, 1, 10)
        assert not report.passed
        assert report.tolerance.value == Decimal("Infinity")

    @pytest.mark.parametrize("u", (F(11, 10), F(3, 2)), ids=str)
    def test_envelope_holds_for_any_ball_of_ln_u(self, monkeypatch, u):
        # the envelope bounds its formula for every ball that holds ln u:
        # here one 10^-3 wide with ln u at its lower or its upper end, so
        # taking either end the wrong way shows
        mpmath = pytest.importorskip("mpmath")
        k, J, work = 1, 3, 30
        value, radius = _ln_ball(u, work)
        wide = 10 ** (work - 3)
        with mpmath.workdps(60):
            pi, ln = mpmath.pi, mpmath.log(mpmath.mpf(u.numerator) / u.denominator)
            M, r2, b = 2 * (J + 1) - 2 * k, ln**2 + mpmath.pi**2, ln / mpmath.pi
            c = 4 + 2 * (b + 1 / b) * min(b, pi / 2, mpmath.sqrt(pi / (2 * (M - 1))))
            ratio = mpmath.factorial(M) / mpmath.factorial(2 * J + 2)
            envelope = (4 if c <= 8 else c / 2) * ratio * pi ** (2 * J + 2) / r2 ** ((M + 1) / 2)
            envelope *= mpmath.mpf(10) ** work / (1 - pi**2 / r2)
        for shift in (wide - radius, radius - wide):
            monkeypatch.setattr(series_verifier, "_ln_ball", lambda x, digits: (value + shift, wide))
            assert _expansion_tail_envelope(k, u, J, work) >= envelope, shift

    def test_under_truncation_fails_near_first_omitted_term(self):
        report = identity_check_expansion(1, F(3, 2), 2, 50, tolerance="1e-30")
        assert not report.passed
        ratio = abs(report.residual.value) / Decimal(report.parameters["first_omitted"])
        assert Decimal("0.1") <= ratio <= Decimal("10")

    def test_explicit_rational_tolerance(self):
        report = identity_check_expansion(1, F(3, 2), 12, 30, tolerance="0.1")
        assert report.passed
        assert report.tolerance.value == Decimal("0.1")

    def test_reproducible(self):
        first = identity_check_expansion(2, F(2), 10, 25)
        second = identity_check_expansion(2, F(2), 10, 25)
        assert first.to_line() == second.to_line()

    @pytest.mark.parametrize("exponent, J_max", [(40, 46), (60, 66), (60, 68), (60, 70)])
    def test_far_from_one_passes_with_proven_constant(self, exponent, J_max):
        # the pole constant tops 8 at u = 10^exponent (8.08 at 10^40,
        # M = 92), so an envelope with the constant 8 failed these true
        # identities
        report = identity_check_expansion(1, 10**exponent, J_max, 300)
        assert report.passed
        assert report.tolerance.value < 2 * abs(report.residual.value)

    @pytest.mark.parametrize("u", (F(3, 2), F(2)), ids=str)
    def test_dust_bounds_the_arithmetic_at_j_max_200(self, u):
        # 201 pi powers and products at 95 decimals: the true lhs - rhs,
        # from mpmath alone, lies inside the report's residual ball, whose
        # radius is the tolerance less the tail envelope
        mpmath = pytest.importorskip("mpmath")
        k, J_max, precision = 1, 200, 80
        work = precision + 15
        report = identity_check_expansion(k, u, J_max, precision)
        radius = F(report.tolerance.value) * 10**work - _expansion_tail_envelope(k, u, J_max, work)
        assert radius.denominator == 1 and 0 < radius < 10**4
        radius, residual = int(radius), int(F(report.residual.value) * 10**work)
        with mpmath.workdps(work + 30):
            lhs = mpmath.polylog(2 * k, mpmath.mpf(u.denominator) / u.numerator)
            rhs = mpmath.mpf(0)
            for j in range(J_max + 1):
                coefficient = mpmath.pi ** (2 * j) / (2 * mpmath.factorial(2 * j))
                term = coefficient * phi_mpmath(mpmath, 2 * j - 2 * k, u)
                rhs += term if j % 2 else -term
            true = (lhs - rhs) * mpmath.mpf(10) ** work
            assert abs(true - residual) <= radius, (true - residual, radius)

    def test_validation(self):
        with pytest.raises(ValueError):
            identity_check_expansion(0, F(3, 2), 10, 30)
        with pytest.raises(ValueError):
            identity_check_expansion(1, F(1), 10, 30)
        with pytest.raises(ValueError):
            identity_check_expansion(3, F(3, 2), 2, 30)
        with pytest.raises(ValueError):
            identity_check_expansion(1, F(3, 2), 10, 9)


def pole_constant(u, m):
    """_pole_constant at u, from b = ln(u)/pi rounded up and down."""
    with localcontext() as ctx:
        ctx.prec = 60
        b = F((Decimal(u.numerator).ln() - Decimal(u.denominator).ln()) / PI_60)
    slop = F(1, 10**50)
    return _pole_constant(b * (1 + slop), (1 + slop) / b, F(PI_60) * (1 + slop), m)


class TestPoleConstant:
    def test_bounds_every_later_coefficient(self):
        # |phi_M| R_0^(M+1)/M! for M >= M0, from the exact coefficients,
        # never exceeds the constant proven at M0
        for u, m_max in ((F(3, 2), 60), (F(2), 60), (F(10**40), 100), (F(10**60), 140)):
            with localcontext() as ctx:
                ctx.prec = 60
                ln_u = Decimal(u.numerator).ln() - Decimal(u.denominator).ln()
                r0 = (ln_u * ln_u + PI_60 * PI_60).sqrt()
                sizes = [
                    abs(Decimal(p.numerator) / Decimal(p.denominator))
                    * r0 ** (m + 1) / factorial(m)
                    for m, p in enumerate(phi_coefficients(u, m_max))
                ]
            for m0 in range(2, m_max + 1):
                assert max(sizes[m0:]) <= pole_constant(u, m0), (u, m0)

    def test_cli_cases_keep_the_constant_eight(self):
        # the bound falls with M, so M = 2 covers every truncation
        for _, u in EXPANSION_CASES:
            assert pole_constant(u, 2) <= 8

    def test_exact_inputs_give_an_upper_bound(self):
        # b = 10, so the Wallis term is the least of the three: the bound
        # less 4, over 2 (b + 1/b), must square to at least pi/(2(M-1)),
        # with the square root taken on pi_up's own denominator
        b = F(10)
        for pi_up in (F(22, 7), F(355, 113), F(PI_60)):
            for M in (2, 3, 10, 92, 400):
                wallis = (_pole_constant(b, 1 / b, pi_up, M) - 4) / (2 * (b + 1 / b))
                assert wallis < pi_up / 2
                assert wallis**2 >= pi_up / (2 * (M - 1)), (pi_up, M)



def limit_bound_parts(m, u, digits):
    """The series bound and the target's radius in the phi suite's limit
    tolerance at m, u, in ulps of 10^-(digits + 10): what its tolerance
    adds to twice the gap bound."""
    series = phi_series(-m, u, digits).error_bound.value
    return _ceil_ulps(series, 10 ** (digits + 10)) + _two_eta(m, digits)[1]


def limit_reports(digits):
    """The phi suite's limit reports at ``digits``, keyed by (m, u)."""
    return {
        (report.parameters["m"], F(report.parameters["u"])): report
        for report in run_suite("phi", digits=digits)
        if report.identity_name == "phi_negative_index_limit"
    }


def expansion_tolerance_parts(k, u, J, precision):
    """The parts of identity_check_expansion's default tolerance, in ulps
    of 10^-w, w = precision + 15, recomputed from the derivation in its
    docstring: the tail envelope, the lhs radius and the radius of each
    rhs term c_j phi, the pi-power ball times the phi ball over 2 (2j)!."""
    work = precision + 15
    scale, bits = 10**work, _bits_for(work)
    _, lhs_radius, _ = _reciprocal_power_sum(k, u, scale)
    exact_phi = phi_coefficients(u, 2 * J - 2 * k)
    pi, pi_radius = _pi(1 << bits)[0], numeric_core._PI_RADIUS
    pi_square = numeric_core._ball_product(pi, pi_radius, pi, pi_radius, bits)
    power, factorial = (1 << bits, 0), 2
    parts = [_expansion_tail_envelope(k, u, J, work), lhs_radius]
    for j in range(J + 1):
        if j:
            power = numeric_core._ball_product(*power, *pi_square, bits)
            factorial *= (2 * j - 1) * 2 * j
        if 2 * j >= 2 * k:
            exact = exact_phi[2 * j - 2 * k]
            phi = (abs(exact.numerator) * scale // exact.denominator, 1)
        else:
            m = 2 * j - 2 * k
            value, radius, _ = series_verifier._cvz_decimal(m, u.denominator, u.numerator, work, str)
            phi = (abs(value), radius)
        _, product_radius = numeric_core._ball_product(*power, *phi, bits)
        parts.append(-(-product_radius // factorial) + 1)
    return parts


class TestAbelTypeTolerances:
    """The Abel-type bounds against mpmath's zeta and polylog at 40 digits.

    The s = 2 bound is the tightest: its excess over the gap is about
    delta/2 of the bound (5e-13 at delta = 1e-12), so halving it fails
    here; the phi suite's doubled bound fails here without the factor 2
    at every m >= 4.
    """

    DELTAS = [F(1, 10**e) for e in range(1, 13)]
    SS = (2, 3, 4, 6, 10)

    def test_gap_bound_is_at_least_its_formula(self):
        # s = 2: delta (1 + delta + ln(1/delta)) from mpmath at 100 digits
        # (a 40-digit ln rounded half-even fell short of it by 1e-41 at
        # delta = 1/10); s >= 3: delta (1 + 1/(s-2)), exactly or above
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(100):
            for delta in self.DELTAS:
                d = mpmath.mpf(delta.numerator) / delta.denominator
                gap = F(_polylog_gap(2, delta))
                formula = d * (1 + d + mpmath.log(1 / d))
                assert mpmath.mpf(gap.numerator) / gap.denominator >= formula, delta
        for s in self.SS[1:]:
            for delta in self.DELTAS:
                assert F(_polylog_gap(s, delta)) >= delta * (1 + F(1, s - 2)), (s, delta)

    def test_abel_tolerance_bounds_zeta_minus_polylog(self):
        # zeta(s) - Li_s(x), the abel suite's gap at s = 2k, within _polylog_gap
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for s in self.SS:
                for delta in self.DELTAS:
                    x = mpmath.mpf(delta.denominator) / (delta.numerator + delta.denominator)
                    gap = mpmath.zeta(s) - mpmath.polylog(s, x)
                    bound = F(_polylog_gap(s, delta))
                    assert gap <= mpmath.mpf(bound.numerator) / bound.denominator, (s, delta)

    def test_phi_limit_tolerance_bounds_eta_plus_polylog(self, monkeypatch):
        # |2 eta(s) - phi_-s(1 + delta)| = |2 eta(s) + 2 Li_s(-x)| within the
        # phi suite's limit tolerance at m = s, less its series and target
        # bounds, with the suite run at these m, delta
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(series_verifier, "PHI_LIMIT_MS", self.SS)
        monkeypatch.setattr(series_verifier, "ABEL_DELTAS", tuple(self.DELTAS))
        reports = limit_reports(15)
        with mpmath.workdps(40):
            for s in self.SS:
                eta2 = 2 * (1 - mpmath.mpf(2) ** (1 - s)) * mpmath.zeta(s)
                for delta in self.DELTAS:
                    x = mpmath.mpf(delta.denominator) / (delta.numerator + delta.denominator)
                    u = 1 + delta
                    parts = F(limit_bound_parts(s, u, 15), 10**25)
                    limit_gap = F(reports[s, u].tolerance.value) - parts
                    bound = mpmath.mpf(limit_gap.numerator) / limit_gap.denominator
                    assert abs(eta2 + 2 * mpmath.polylog(s, -x)) <= bound, (s, delta)


class TestToleranceSums:
    """Every composite tolerance is an integer number of ulps of its
    report's one scale, the sum of its proven parts, recomputed here."""

    def test_composite_tolerances_are_exact_sums(self):
        # abel, in ulps of 10^-20: the gap bound rounded up, plus the last
        # residual ball's radius, the f_k radius and the zeta ball's
        delta, scale = ABEL_DELTAS[-1], 10**20
        report = abel_limit_check(1, ABEL_DELTAS, 10)
        _, radius, _ = _reciprocal_power_sum(1, 1 + delta, scale)
        _, target_radius = _zeta_even_ball(1, 20, _bits_for(20))
        expected = _ceil_ulps(_polylog_gap(2, delta), scale) + radius + target_radius
        assert F(report.tolerance.value) * scale == expected
        # phi limit, in ulps of 10^-34: twice the gap bound, the series
        # bound and the target's radius
        report, scale = limit_reports(24)[2, F(101, 100)], 10**34
        gap = _ceil_ulps(_polylog_gap(2, F(1, 100)), scale)
        expected = 2 * gap + limit_bound_parts(2, F(101, 100), 24)
        assert F(report.tolerance.value) * scale == expected
        # expansion, in ulps of 10^-(precision + 15): the envelope, the lhs
        # radius and every rhs term's radius
        for precision in (30, 50):
            for k, u in EXPANSION_CASES:
                report = identity_check_expansion(k, u, 25, precision)
                parts = expansion_tolerance_parts(k, u, 25, precision)
                tolerance = F(report.tolerance.value) * 10 ** (precision + 15)
                assert tolerance == sum(parts), (k, u, precision)


def terminating_digits(x):
    """The significant digits of the Fraction x != 0 as a decimal, or None
    where it does not terminate."""
    b = x.denominator
    twos = fives = 0
    while b % 2 == 0:
        b, twos = b // 2, twos + 1
    while b % 5 == 0:
        b, fives = b // 5, fives + 1
    if b != 1:
        return None
    n = abs(x.numerator) * 10 ** max(twos, fives) // x.denominator
    while n % 10 == 0:
        n //= 10
    return len(str(n))


def half_even(x, digits):
    """The Fraction x != 0 rounded to ``digits`` significant digits, ties
    to even, as a Fraction."""
    e = len(str(abs(x.numerator) // x.denominator or 1)) - digits
    while abs(x) < F(10) ** (e + digits - 1):
        e -= 1
    return round(x / F(10) ** e) * F(10) ** e


class TestPhiSuiteResiduals:
    """Every phi-suite residual is the exact lhs - rhs, rounded once away
    from zero to digits + 30 significant digits, so rounding can fail a
    report but never pass one."""

    @pytest.mark.parametrize("digits", (10, 24, 50, 80))
    def test_each_residual_is_the_exact_one_rounded_away_from_zero(self, monkeypatch, digits):
        evaluations, targets = {}, {}

        def recording_phi(m, u, precision):
            evaluations[m, u] = series(m, u, precision)
            return evaluations[m, u]

        def recording_eta(m, digits):
            targets[m] = eta(m, digits)
            return targets[m]

        series, eta = series_verifier.phi_series, series_verifier._two_eta
        monkeypatch.setattr(series_verifier, "phi_series", recording_phi)
        monkeypatch.setattr(series_verifier, "_two_eta", recording_eta)
        reports = run_suite("phi", digits=digits)
        assert len(reports) == 75
        zeros = 0
        for report in reports:
            m, u = report.parameters["m"], F(report.parameters["u"])
            if report.identity_name == "phi_series_vs_coefficients":
                value = evaluations[m, u].value.value
                target = phi_coefficients(u, m)[m]
            else:
                value = evaluations[-m, u].value.value
                target = F(targets[m][0], 10 ** (digits + 10))
            exact = F(value) - target
            residual = report.residual
            where = (report.identity_name, m, u)
            if exact == 0:
                # an exact zero at the evaluation's scale
                zeros += 1
                assert residual.value == 0 and residual.value.as_tuple().exponent == (
                    value.as_tuple().exponent
                ), where
                continue
            size = F(residual.value.copy_abs())  # abs() would round
            assert size >= abs(exact) and (residual.value < 0) == (exact < 0), where
            assert F(residual.rounded()) == half_even(exact, digits), where
            places = terminating_digits(exact)
            if places is not None and places <= digits + 30:
                assert F(residual.value) == exact, where
            else:
                # ROUND_UP at digits + 30: the next smaller magnitude of
                # that many digits lies below |exact|
                assert len(residual.value.as_tuple().digits) == digits + 30, where
                ulp = F(10) ** residual.value.as_tuple().exponent
                assert size - ulp < abs(exact), where
                assert len(residual.rounded().as_tuple().digits) == digits, where
        assert zeros > 0


class TestReports:
    def test_passed_is_computed_not_supplied(self):
        report = VerificationReport(
            identity_name="example",
            parameters={"k": 1},
            lhs=F(1, 2),
            rhs=F(1, 2),
            residual=HighPrecisionReal(Decimal(2), 10),
            tolerance=HighPrecisionReal(Decimal(1), 10),
        )
        assert not report.passed

    def test_negative_tolerance_always_fails(self):
        report = VerificationReport(
            identity_name="example",
            parameters={},
            lhs="a",
            rhs="a",
            residual=HighPrecisionReal(Decimal(0), 10),
            tolerance=HighPrecisionReal(Decimal(-1), 10),
        )
        assert not report.passed

    def test_parameters_rendered(self):
        report = VerificationReport(
            identity_name="example",
            parameters={"u": F(3, 2), "k": 4},
            lhs=F(1, 3),
            rhs=Decimal("0.25"),
            residual=HighPrecisionReal(Decimal(0), 10),
            tolerance=HighPrecisionReal(Decimal(1), 10),
        )
        assert report.parameters == {"u": "3/2", "k": 4}
        assert report.lhs == "1/3"
        assert report.rhs == "0.25"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            VerificationReport(
                identity_name="example",
                parameters={},
                lhs=0.5,
                rhs="x",
                residual=HighPrecisionReal(Decimal(0), 10),
                tolerance=HighPrecisionReal(Decimal(1), 10),
            )

    @staticmethod
    def verdict(residual, tolerance, digits=30):
        return VerificationReport(
            identity_name="example",
            parameters={},
            lhs="a",
            rhs="a",
            residual=HighPrecisionReal(Decimal(residual), digits),
            tolerance=HighPrecisionReal(Decimal(tolerance), 15),
        ).passed

    def test_verdict_is_exact_not_rounded(self):
        # rounded to 15 digits the residual would equal the tolerance
        verdict = self.verdict
        assert not verdict("1.0000000000000001e-5", "1e-5")
        assert not verdict("-1.0000000000000001e-5", "1e-5")
        assert verdict("1e-5", "1e-5")
        assert verdict("-0.99999999999999999e-5", "1e-5")
        assert not verdict("1.00000000000000000000000000000000001e-5", "1e-5", 50)

    def test_nan_and_infinite_values_fail(self):
        for residual, tolerance in (
            ("NaN", "1"),
            ("sNaN", "1"),
            ("0", "NaN"),
            ("0", "-sNaN"),
            ("NaN", "NaN"),
            ("Infinity", "Infinity"),
            ("-Infinity", "1"),
            ("0", "Infinity"),
        ):
            assert not self.verdict(residual, tolerance), (residual, tolerance)

    def test_post_init_runs_once_per_report(self, monkeypatch):
        calls = []
        post_init = VerificationReport.__post_init__

        def counting(self):
            calls.append(self.identity_name)
            post_init(self)

        monkeypatch.setattr(VerificationReport, "__post_init__", counting)
        report = VerificationReport(
            "example", {"k": 1}, F(1, 2), "x",
            HighPrecisionReal(Decimal(0), 10), HighPrecisionReal(Decimal(1), 10),
        )
        assert calls == ["example"] and report.passed
        VerificationReport.from_line(report.to_line())
        abel_limit_check(2, [F(1, 10)], 20)
        assert calls == ["example", "example", "zeta_even_abel_limit"]

    def test_is_an_immutable_value(self):
        def report(residual="0.5"):
            return VerificationReport(
                "example", {"u": F(3, 2)}, F(1, 3), "x",
                HighPrecisionReal(Decimal(residual), 10),
                HighPrecisionReal(Decimal(1), 10),
            )

        first = report()
        assert first == report()
        assert first == VerificationReport.from_line(first.to_line())
        assert first != report("2")
        nan = report("NaN")  # fields compare identity first, as tuples do
        assert nan == nan and nan != report("NaN")
        assert repr(first) == (
            "VerificationReport(identity_name='example', parameters={'u': '3/2'}, "
            "lhs='1/3', rhs='x', residual=HighPrecisionReal('0.5', digits=10), "
            "tolerance=HighPrecisionReal('1', digits=10), passed=True)"
        )
        for name, value in (("passed", False), ("residual", None), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(first, name, value)
        assert first.passed
        with pytest.raises(TypeError):
            hash(first)

    def test_fractions_render_as_str_does(self):
        values = [F(0), F(7), F(-7), F(1, 3), F(-22, 7), F(10**60 + 1, 3**50), F(-(7**5000), 11**7)]
        assert [render_value(v) for v in values] == [str(v) for v in values]

    def test_fraction_past_the_int_str_digit_limit(self, default_int_str_limit):
        # a numerator of 4395 digits: str() of it raises under the limit
        big = F(-(7**5200), 2 * 3**4000)
        report = VerificationReport(
            "example", {"k": 1}, big, "x",
            HighPrecisionReal(Decimal(0), 10), HighPrecisionReal(Decimal(1), 10),
        )
        numerator, denominator = report.lhs.split("/")
        assert (int(Decimal(numerator)), int(Decimal(denominator))) == (
            big.numerator, big.denominator,
        )
        assert VerificationReport.from_line(report.to_line()) == report

    def test_tampered_line_rejected(self):
        line = identity_check_expansion(1, F(3, 2), 8, 25).to_line()
        tampered = line.replace('"passed": true', '"passed": false')
        with pytest.raises(ValueError):
            VerificationReport.from_line(tampered)


def chebyshev_shifted(n, x):
    """T_n(1 - 2x) at an integer x, by the three-term recurrence."""
    previous, current = 1, 1 - 2 * x
    if n == 0:
        return previous
    for _ in range(n - 1):
        previous, current = current, 2 * (1 - 2 * x) * current - previous
    return current


def weights_fit_the_polynomial(c, d, n):
    """d - T_n(1 - 2x) == (1 + x) sum_k c_k (-x)^k at several integers x.

    Both sides are polynomials of degree n in x, so agreement at n + 1
    points is the identity the kernel's truncation bound rests on.
    """
    return len(c) == n and all(
        d - chebyshev_shifted(n, x) == (1 + x) * sum(ck * (-x) ** k for k, ck in enumerate(c))
        for x in range(1, n + 2)
    )


class TestCvzKernel:
    """The accelerated alternating sum ``_cvz_sum`` and the f_k built on it."""

    US = (F(1), 1 + F(1, 10**9), F(1001, 1000), F(3, 2), F(7))

    def test_weights_are_the_chebyshev_coefficients(self):
        for n in (1, 2, 3, 10, 37, 90):
            c, d = _cvz_weights(n)
            assert d == chebyshev_shifted(n, -1)  # T_n(3)
            assert all(0 < ck < d for ck in c)
            assert weights_fit_the_polynomial(c, d, n), n

    def test_planted_weight_faults_fail(self):
        n = 40
        c, d = _cvz_weights(n)
        for k in (0, 17, n - 1):
            off_by_one = c[:k] + [c[k] + 1] + c[k + 1:]
            assert not weights_fit_the_polynomial(off_by_one, d, n), k
        previous_d = _cvz_weights(n - 1)[1]
        assert not weights_fit_the_polynomial(c, previous_d, n)

    def test_planted_denominator_fault_fails_against_mpmath(self, monkeypatch):
        # d_(n-1) in place of d_n inflates every sum by d_n/d_(n-1) ~ 5.8
        mpmath = pytest.importorskip("mpmath")
        weights = series_verifier._cvz_weights

        def faulty(n):
            c, _ = weights(n)
            return c, weights(n - 1)[1]

        monkeypatch.setattr(series_verifier, "_cvz_weights", faulty)
        # an emptied cache, so the kernel builds its weights with the planted d
        monkeypatch.setattr(series_verifier, "_cvz_cache", None)
        evaluation = phi_series(-2, F(3, 2), 30)
        with mpmath.workdps(60):
            error = abs(mpmath.mpf(str(evaluation.value.value)) - phi_mpmath(mpmath, -2, F(3, 2)))
        assert error > mpmath.mpf(str(evaluation.error_bound.value))

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        bits = 200
        for u in self.US:
            for e in range(1, 9):
                value, radius, terms = kernel_sum(-e, u.denominator, u.numerator, bits, _cvz_terms(bits, -e))
                with mpmath.workdps(90):
                    true = -2 * mpmath.polylog(e, -mpmath.mpf(u.denominator) / u.numerator)
                    error = abs(mpmath.mpf(value) / 2**bits - true) * 2**bits
                assert error <= radius, (u, e)
                assert radius <= 8 and terms <= _cvz_terms(bits, -e), (u, e, radius)

    GRID_US = (F(11, 10), F(3, 2), F(2), F(3), F(17, 5), F(1001, 1000), F(7))

    def positive_m_errors(self):
        """(error, radius) of the kernel for m >= 1 against the exact phi_m(u):
        m = 1..11 on the rounding grid, and m = 20 and 40 at u = 1001/1000,
        each at the binary scale phi_series uses for 10, 20 and 50 digits."""
        cases = [(m, u) for u in self.GRID_US for m in range(1, 12)]
        cases += [(20, F(1001, 1000)), (40, F(1001, 1000))]
        exact = {u: phi_coefficients(u, 40) for u in self.GRID_US}
        for m, u in cases:
            for digits in (10, 20, 50):
                bits = math.ceil((digits + 11) / math.log10(2)) + 1
                n = series_verifier._cvz_terms(bits, m)
                value, radius, _ = kernel_sum(m, u.denominator, u.numerator, bits, n)
                yield abs(value - exact[u][m] * 2**bits), radius

    def test_positive_m_error_within_radius(self):
        assert all(error <= radius for error, radius in self.positive_m_errors())

    def test_ball_holds_at_ulp_resolution(self):
        # exact |phi_m(u) 2^bits - value| <= radius, at scales small enough
        # that the two ulps of floor dust in the radius are most of it
        us = (F(3, 2), F(2), F(3), F(7, 2), F(11, 10), F(9), F(101, 100))
        exact = {u: phi_coefficients(u, 12) for u in us}
        for bits in (20, 33, 40, 64, 100):
            for u in us:
                for m in range(13):
                    value, radius, _ = kernel_sum(m, u.denominator, u.numerator, bits, _cvz_terms(bits, m))
                    assert abs(exact[u][m] * 2**bits - value) <= radius, (bits, u, m)

    def test_early_stop_is_checked_exactly(self, monkeypatch):
        # the float estimate of where the terms floor only proposes a stop,
        # which the kernel tests exactly: an estimate that leaves out the
        # factor (k+1)^m, or one before the peak of the terms, must cost
        # terms, never accuracy
        estimate = series_verifier._terms_before_floor
        monkeypatch.setattr(
            series_verifier, "_terms_before_floor", lambda bits, ln_y, n, m: estimate(bits, ln_y, n, 0)
        )
        assert all(error <= radius for error, radius in self.positive_m_errors())
        monkeypatch.setattr(series_verifier, "_terms_before_floor", lambda bits, ln_y, n, m: 1)
        # y = 2^-41: the first term is below one ulp of 2^-40, the third is 2^75 ulps
        bits, m = 40, 100
        value, radius, _ = kernel_sum(m, 1, 2**41, bits, _cvz_terms(bits, m))
        assert abs(value - phi_coefficients(F(2**41), m)[m] * 2**bits) <= radius

    def test_planted_growth_fault_fails(self, monkeypatch):
        # without the (2n^2 + 2m)^m factor, n and the radius are those of
        # m <= 0: too few terms, and a radius the error outgrows
        terms = series_verifier._cvz_terms
        monkeypatch.setattr(series_verifier, "_cvz_terms", lambda bits, m: terms(bits, 0))
        monkeypatch.setattr(series_verifier, "_cvz_growth", lambda m, n: 1)
        assert any(error > radius for error, radius in self.positive_m_errors())

    def test_reciprocal_sums_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        scale = 10**70
        for k in (1, 2):
            for delta in ABEL_DELTAS:
                value, radius, _ = _reciprocal_power_sum(k, 1 + delta, scale)
                with mpmath.workdps(100):
                    true = mpmath.polylog(2 * k, 1 / (1 + mpmath.mpf(delta.numerator) / delta.denominator))
                    error = abs(mpmath.mpf(value) / scale - true) * scale
                assert error <= radius, (k, delta)
                assert radius <= 4, (k, delta, radius)
