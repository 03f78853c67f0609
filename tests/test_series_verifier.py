import ast
import os
import random
import subprocess
import sys
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction
from math import factorial, log
from pathlib import Path

import pytest

import zetaeven
from zetaeven import series_verifier
from zetaeven.euler_bernoulli import euler_polynomial, euler_polynomial_eval
from zetaeven.numeric_core import HighPrecisionReal
from zetaeven.powerseries import exp_series, series_div
from zetaeven.reports import VerificationReport
from zetaeven.series_verifier import (
    EXPANSION_CASES,
    MAX_SERIES_TERMS,
    PhiEvaluation,
    SeriesBudgetError,
    _abel_tolerance,
    _phi_limit_tolerance,
    _pole_constant,
    _reciprocal_power_sum,
    abel_limit_check,
    direct_zeta_partial,
    eta_partial,
    identity_check_expansion,
    phi_coefficients,
    phi_series,
    phi_taylor_coeff,
)
from zetaeven.zeta_recurrence import zeta_even_decimal

F = Fraction
# pi to 60 decimals, kept apart from numeric_core.compute_pi
PI_60 = Decimal("3.141592653589793238462643383279502884197169399375105820974945")


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

    def test_work_budget(self):
        # u = 1 + 1e-9 at 50 digits needs ~1e11 terms: refused before summing
        for m in (-2, 0, 3):
            with pytest.raises(SeriesBudgetError, match="over the budget"):
                phi_series(m, F("1.000000001"), 50)
        # the longest series the suites and benchmark ask for keeps a 10x margin
        evaluation = phi_series(3, F(1201, 1200), 50)
        assert 10 * evaluation.terms_used <= MAX_SERIES_TERMS

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
    absent = ("zetaeven.powerseries", "dataclasses", "inspect", "csv", "typing", "json")
    code = f"import sys, zetaeven.cli; print([m for m in {absent!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


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


class TestEtaPartial:
    def test_single_term(self):
        value, bound = eta_partial(2, 1)
        assert value == HighPrecisionReal.from_int(-1)
        assert bound.value == Decimal("0.25")

    def test_converges_to_minus_half_zeta_two(self):
        value, bound = eta_partial(2, 2000)
        target = -Decimal(zeta_even_decimal(1, 30)) / 2
        assert abs(value.value - target) <= bound.value + Decimal("1e-25")

    def test_m_four_against_zeta_four(self):
        value, bound = eta_partial(4, 10**4)
        target = -Decimal(zeta_even_decimal(2, 30)) * 7 / 8
        assert abs(value.value - target) <= bound.value + Decimal("1e-20")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eta_partial(1, 10)
        with pytest.raises(ValueError):
            eta_partial(2, 0)
        with pytest.raises(SeriesBudgetError):
            eta_partial(3, MAX_SERIES_TERMS + 1)


def exact_sum(a, b):
    """a + b as a Decimal, refusing to round."""
    with localcontext() as ctx:
        ctx.prec = 300
        ctx.traps[Inexact] = True
        return a + b


class TestDirectZetaPartial:
    def test_single_term(self):
        value, tail_high = direct_zeta_partial(1, 1)
        assert value == HighPrecisionReal.from_int(1)
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

        # 5000 digits at delta = 1/1000 need about 1.15e7 terms
        monkeypatch.setattr(series_verifier, "_reciprocal_power_sum", refuse)
        with pytest.raises(SeriesBudgetError, match="over the budget"):
            abel_limit_check(1, self.DELTAS, 5000)

    def test_budget_estimate_bounds_the_terms_summed(self):
        for k, u, digits in ((1, F(1001, 1000), 30), (2, F(11, 10), 60), (3, F(3, 2), 65)):
            scale = 10**digits
            _, terms = _reciprocal_power_sum(k, u, scale)
            assert terms <= log(scale) / log(u) + 2


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
    def test_lhs_past_the_budget_refused(self):
        with pytest.raises(SeriesBudgetError, match="over the budget"):
            identity_check_expansion(1, 1 + F(1, 10**6), 3, 50)

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
        # 201 rounded pi powers and products at 80 digits; the actual
        # Decimal error of the rhs is below 2e-12 of rhs_dust here
        mpmath = pytest.importorskip("mpmath")
        k, J_max, precision = 1, 200, 80
        work = precision + 15
        report = identity_check_expansion(k, u, J_max, precision)
        c_u = -(-u.numerator // (u.numerator - u.denominator))
        with mpmath.workdps(work + 15):
            lhs = mpmath.polylog(2 * k, mpmath.mpf(u.denominator) / u.numerator)
            rhs = abs_terms = mpmath.mpf(0)
            for j in range(J_max + 1):
                if j < k:
                    # the check takes phi_(2j-2k) from phi_series, whose
                    # own bound covers its error: the true sum uses it as is
                    phi = mpmath.mpf(str(phi_series(2 * j - 2 * k, u, precision + 5).value.value))
                else:
                    phi = phi_mpmath(mpmath, 2 * j - 2 * k, u)
                term = mpmath.pi ** (2 * j) / (2 * mpmath.factorial(2 * j)) * phi
                rhs += term if j % 2 else -term
                abs_terms += abs(term)
            ten = mpmath.mpf(10)
            lhs_dust = (c_u + 1) * (int(report.parameters["lhs_terms"]) + c_u + 2) * ten ** (1 - work)
            rhs_dust = (abs_terms + 1) * ten ** (8 - work)
            error = abs(mpmath.mpf(str(report.residual.value)) - (lhs - rhs))
            assert error <= lhs_dust + rhs_dust

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
        b = (Decimal(u.numerator).ln() - Decimal(u.denominator).ln()) / PI_60
        slop = Decimal("1e-50")
        return _pole_constant(b * (1 + slop), (1 + slop) / b, PI_60 * (1 + slop), m)


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



class TestAbelTypeTolerances:
    """The Abel-type bounds against mpmath's zeta and polylog at 40 digits.

    The k = 1 bound is the tightest: its excess over the gap is about
    delta/2 of the bound (5e-13 at delta = 1e-12), so halving either
    bound fails here.
    """

    DELTAS = [F(1, 10**e) for e in range(1, 13)]

    def test_abel_tolerance_bounds_zeta_minus_polylog(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in (1, 2, 3, 5):
                for delta in self.DELTAS:
                    x = mpmath.mpf(delta.denominator) / (delta.numerator + delta.denominator)
                    gap = mpmath.zeta(2 * k) - mpmath.polylog(2 * k, x)
                    assert gap <= mpmath.mpf(str(_abel_tolerance(k, delta))), (k, delta)

    def test_phi_limit_tolerance_bounds_eta_plus_polylog(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for m in (2, 3, 4, 6, 10):
                eta2 = 2 * (1 - mpmath.mpf(2) ** (1 - m)) * mpmath.zeta(m)
                for delta in self.DELTAS:
                    x = mpmath.mpf(delta.denominator) / (delta.numerator + delta.denominator)
                    gap = abs(eta2 + 2 * mpmath.polylog(m, -x))
                    bound = mpmath.mpf(str(_phi_limit_tolerance(m, delta)))
                    assert gap <= bound, (m, delta)


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

    def test_tampered_line_rejected(self):
        line = identity_check_expansion(1, F(3, 2), 8, 25).to_line()
        tampered = line.replace('"passed": true', '"passed": false')
        with pytest.raises(ValueError):
            VerificationReport.from_line(tampered)
