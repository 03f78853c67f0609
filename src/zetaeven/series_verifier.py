"""Numerical verification of the series identities behind the recurrence.

The recurrence for r_k = zeta(2k)/pi^(2k) rests on a small stack of
analytic facts about the coefficient family phi_m(u) generated by
2e^t/(e^t + u):

* for u > 1 the generating function's coefficients are also given by
  the convergent series phi_m(u) = -2 sum_{n>=1} n^m/(-u)^n, which makes
  sense for negative m too and is taken as the definition there;
* at u = 1 the limiting values 2(1 - 2^(1-m)) zeta(m) appear (m > 1);
* the weighted sum f_k(u) = sum_{n>=1} u^(-n)/n^(2k) can be rearranged,
  via the cosine power series for cos(n pi) = (-1)^n, into
  f_k(u) = sum_{j>=0} (-1)^j (pi^(2j)/(2j)!) * phi_(2j-2k)(u)/(-2);
* letting u -> 1+ (an Abel limit) turns f_k into zeta(2k).

Nothing here is a proof; each check evaluates both sides of one of
those statements at explicit parameters with explicit, derived error
bounds, and reports the residual against a tolerance that the bounds
justify. Internals use fixed-point integer arithmetic (floor divisions
whose loss is tracked in ulps) so every bound is a statement about
integers, not about rounded floats.

Every verify suite is built here (``run_suite``), the recurrence suite
included: the one place in the library that compares the recurrence
route with the classical Bernoulli formula.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import Decimal, ROUND_CEILING, ROUND_FLOOR, localcontext
from fractions import Fraction
from itertools import takewhile

from .euler_bernoulli import zeta_even_via_euler
from .numeric_core import FrozenRecord, HighPrecisionReal, round_significant
from .reports import VerificationReport
from .zeta_recurrence import _pi, zeta_even_decimal, zeta_even_ratio

__all__ = [
    "MAX_SERIES_TERMS",
    "PhiEvaluation",
    "SeriesBudgetError",
    "SUITES",
    "EXPANSION_CASES",
    "ABEL_DELTAS",
    "PHI_SAMPLE_US",
    "PHI_LIMIT_MS",
    "phi_series",
    "phi_coefficients",
    "phi_taylor_coeff",
    "eta_partial",
    "direct_zeta_partial",
    "abel_limit_check",
    "identity_check_expansion",
    "recurrence_cross_check",
    "run_suite",
]


class PhiEvaluation(FrozenRecord):
    """One evaluation of phi_m(u): value, terms used, proven error bound."""

    __slots__ = ("m", "u", "value", "terms_used", "error_bound")

    def __init__(
        self,
        m: int,
        u: Fraction,
        value: HighPrecisionReal | Fraction,
        terms_used: int,
        error_bound: HighPrecisionReal,
    ):
        if u < 1:
            raise ValueError("u must be >= 1")
        if terms_used < 1:
            raise ValueError("terms_used must be positive")
        if error_bound.value < 0:
            raise ValueError("error_bound must be nonnegative")
        super().__init__(m, u, value, terms_used, error_bound)


# Work budget of one series evaluation, in terms. The verify suites and
# the benchmark workloads ask for at most about 1.8e5 terms (phi_3 at
# u = 1 + 1/1200, 50 digits); u = 1 + 1e-9 at 50 digits would need ~1e11.
MAX_SERIES_TERMS = 3_000_000


class SeriesBudgetError(ValueError):
    """A series would need more than MAX_SERIES_TERMS terms."""


def _check_budget(what: str, terms: int) -> None:
    if terms > MAX_SERIES_TERMS:
        raise SeriesBudgetError(
            f"{what} {terms} terms, over the budget of "
            f"{MAX_SERIES_TERMS} terms"
        )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _dec_ceiling(x: Fraction, digits: int) -> Decimal:
    """Decimal upper bound on a nonnegative rational."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_CEILING
        return Decimal(x.numerator) / Decimal(x.denominator)


def phi_series(m: int, u, precision: int = 50) -> PhiEvaluation:
    """phi_m(u) = 2 sum_{n>=1} (-1)^(n+1) n^m / u^n for u > 1.

    Fixed-point evaluation: u^-n is maintained incrementally at a scale
    with enough guard digits that every floor division is accounted for.
    Summation stops once the term magnitude 2 n^m/u^n is below
    10^-precision *and* the terms are provably inside their final
    geometric decay (past n = m/ln u, checked exactly via the term
    ratio). For m = -e < 0 the terms 2 pow // n^e never increase (pow,
    the floored u^-n, never grows; n^e always does), so the first term
    below 10^-precision is the last one summed.

    The error bound covers the geometric tail from that point plus every
    ulp the integer arithmetic could have dropped, so |true - value| <=
    error_bound unconditionally. Term n drops at most 2 c_u n^m + 1 ulps
    (m >= 0) or 2 + 2 c_u // n^e (m = -e), where c_u bounds the ulps by
    which pow misses u^-n. The loop does not add these up: they are
    summed after it in closed form, 2 c_u sum n^m + n, or 2n plus the
    floors 2 c_u // i^e up to the first zero (i^e > 2 c_u).

    Raises SeriesBudgetError, before summing, when the estimated term
    count exceeds MAX_SERIES_TERMS (u too close to 1 for the precision).
    """
    u = Fraction(u)
    if u <= 1:
        raise ValueError("series needs u > 1")
    if precision < 10:
        raise ValueError("precision must be >= 10")
    p, q = u.numerator, u.denominator
    c_u = _ceil_div(p, p - q)  # stationary bound, in ulps, on the u^-n error

    # Heuristic size estimates feed only the work budget and the
    # guard-digit choice; the bound below is computed from what actually
    # happened, so a bad estimate can waste digits but never soundness.
    ln_u = math.log(p) - math.log(q)
    n_min = 1 if m <= 0 else math.floor(m / ln_u) + 1
    target = precision * math.log(10) + math.log(2.0)
    n_est = max(n_min, int(target / ln_u) + 2)
    for _ in range(4):
        n_est = max(n_min, int((target + max(m, 0) * math.log(n_est)) / ln_u) + 2)
    _check_budget(f"phi_{m}({u}) to {precision} digits needs about", n_est)
    guard = 18 + math.ceil(max(m, 0) * math.log10(n_est + 1)) + len(str(c_u * (n_est + 1)))

    scale = 10 ** (precision + guard)
    threshold = 10**guard  # 10^-precision in ulps
    # total = term - total: the alternating sum, signed as the last term
    pow_ = scale * q // p
    total = 0
    n = 1
    if m < 0:
        e = -m
        while True:
            term = 2 * pow_ // n**e
            total = term - total
            if term < threshold:
                break
            n += 1
            pow_ = pow_ * q // p
        term_err = 2 * c_u // n**e + 2
        err_ulps = 2 * n + sum(takewhile(bool, (2 * c_u // i**e for i in range(1, n + 1))))
    else:
        weights = 0
        while True:
            weight = n**m
            weights += weight
            term = 2 * weight * pow_
            total = term - total
            if term < threshold and n >= n_min and Fraction(n + 1, n) ** m < u:
                break
            n += 1
            pow_ = pow_ * q // p
        term_err = 2 * weight * c_u + 1
        err_ulps = 2 * c_u * weights + n
    if n % 2 == 0:
        total = -total

    # Past n the term ratio never exceeds rho < 1, so the dropped tail
    # is below (last true term) * rho/(1 - rho).
    rho = Fraction(n + 1, n) ** m / u if m >= 0 else 1 / u
    tail_ulps = Fraction(term + term_err) * rho / (1 - rho)
    bound = (tail_ulps + err_ulps + 1) / scale
    with localcontext() as ctx:
        # Dividing by a power of ten is exact once the context holds
        # every digit of the numerator, so this step adds no error.
        ctx.prec = max(len(str(abs(total))) + 2, 10)
        value = Decimal(total) / scale
    return PhiEvaluation(
        m=m,
        u=u,
        value=HighPrecisionReal(value, precision),
        terms_used=n,
        error_bound=HighPrecisionReal(_dec_ceiling(bound, 15), 15),
    )


def phi_coefficients(u, m_max: int) -> list[Fraction]:
    """Exact phi_0(u), ..., phi_m_max(u): Taylor coefficients of 2e^t/(e^t + u).

    Matching coefficients of t^m/m! in (e^t + u) * F(t) = 2e^t gives

        (1 + u) phi_m = 2 - sum_{j<m} C(m, j) phi_j,

    O(m_max^2) multiplications in all. At u = 1 this is the Euler
    polynomial recurrence for E_m(1). The recurrence runs on integers:
    with u = p/q and s = p + q, N_m = phi_m * s^(m+1) satisfies

        N_m = q * (2 s^m - sum_{j<m} C(m, j) N_j s^(m-j-1)),

    so no gcd is taken inside the recurrence; each returned Fraction is
    reduced once.
    """
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


def phi_taylor_coeff(m: int, u) -> Fraction:
    """Exact phi_m(u) as a Taylor coefficient of 2e^t/(e^t + u).

    The entry m of ``phi_coefficients(u, m)``.
    """
    if m < 0:
        raise ValueError("coefficient extraction needs m >= 0")
    return phi_coefficients(u, m)[m]


def eta_partial(m: int, N: int) -> tuple[HighPrecisionReal, HighPrecisionReal]:
    """Partial alternating sum sum_{n=1}^{N} (-1)^n / n^m, m >= 2.

    Returns ``(value, error_bound)``. Terms alternate and decrease in
    magnitude, so the truncation error is below the first omitted term:
    error_bound is exactly 1/(N+1)^m (rounded up only when it does not
    fit 15 significant digits). The returned value additionally carries
    summation/representation dust below 10^{-52}, invisible at its
    50-digit precision and negligible against any truncation bound. N
    above MAX_SERIES_TERMS raises SeriesBudgetError.
    """
    if m < 2:
        raise ValueError("alternating zeta sum needs m >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_budget(f"the alternating sum of 1/n^{m} asks for", N)
    scale = 10 ** (60 + len(str(N)))
    total = 0
    for n in range(1, N + 1):
        total = scale // n**m - total
    if N % 2:
        total = -total
    with localcontext() as ctx:
        ctx.prec = 70
        value = Decimal(total) / scale
    bound = Fraction(1, (N + 1) ** m)
    return (
        HighPrecisionReal(value, 50),
        HighPrecisionReal(_dec_ceiling(bound, 15), 15),
    )


def direct_zeta_partial(k: int, N: int) -> tuple[HighPrecisionReal, HighPrecisionReal]:
    """Partial sum of zeta(2k) with its integral-test tail bound.

    Returns ``(value, tail_high)``, and

        value < zeta(2k) < value + tail_high

    holds exactly. value floors each of the N terms at the working scale
    and is converted to a Decimal exactly, so it sits below the true
    partial sum S_N, and so below zeta(2k), by less than N ulps.
    tail_high is the integral of x^-2k over [N, oo), N^(1-2k)/(2k-1),
    rounded up. The terms are convex, so n^-2k is at most the integral
    over [n - 1/2, n + 1/2], the true tail is at most the integral over
    [N + 1/2, oo), and tail_high exceeds it by more than (N+1)^-2k / 2.
    The scale exceeds 4N(N+1)^2k, which keeps the floor loss below half
    of that slack; it is also at least 10^(60 + digits of N), so value
    carries its 50 digits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    e = 2 * k
    scale = 10 ** max(60 + len(str(N)), len(str(4 * N * (N + 1) ** e)))
    total = 0
    for n in range(1, N + 1):
        total += scale // n**e
    with localcontext() as ctx:
        ctx.prec = len(str(total)) + 2
        value = Decimal(total) / scale
    tail = Fraction(1, (2 * k - 1) * N ** (2 * k - 1))
    return (
        HighPrecisionReal(value, 50),
        HighPrecisionReal(_dec_ceiling(tail, 50), 50),
    )


def _check_reciprocal_budget(k: int, u: Fraction, scale: int) -> None:
    """SeriesBudgetError if f_k(u) at ``scale`` could need too many terms.

    The scaled power scale * u^-n floors to 0, and with it every later
    term, once n exceeds ln(scale)/ln(u); that count, plus 2 for the
    float logarithms, bounds the terms ``_reciprocal_power_sum`` sums.
    """
    ln_u = math.log(u.numerator) - math.log(u.denominator)
    _check_budget(f"f_{k}({u}) needs up to", int(math.log(scale) / ln_u) + 2)


def _reciprocal_power_sum(k: int, u: Fraction, scale: int) -> tuple[int, int]:
    """Fixed-point f_k(u) = sum_{n>=1} u^(-n)/n^(2k), in ulps of 1/scale.

    Floor divisions only lose mass: at most u/(u-1)+1 ulps per retained
    term, plus a sub-ulp-per-term geometric tail once terms hit zero.
    Callers receive a lower bound and budget the dust themselves.
    Raises SeriesBudgetError, before summing, past the work budget.
    """
    _check_reciprocal_budget(k, u, scale)
    p, q = u.numerator, u.denominator
    e = 2 * k
    total = 0
    pow_ = scale * q // p
    n = 1
    while True:
        term = pow_ // n**e
        if term == 0:
            return total, n - 1
        total += term
        n += 1
        pow_ = pow_ * q // p


def _abel_tolerance(k: int, delta: Fraction) -> Decimal:
    """Proven bound on zeta(2k) - f_k(1 + delta).

    With x = 1/(1+delta) and eps = 1 - x = delta/(1+delta):

    k = 1:  the integral form of the deficit, integral_x^1 ln(1/(1-t))/t dt,
            is at most (1/x) * eps * (1 + ln(1/eps)), which simplifies to
            delta * (1 + delta + ln(1/delta)) after ln(1+delta) <= delta.
    k >= 2: termwise 1 - x^n <= n*eps gives eps * zeta(2k-1), and the
            integral bound zeta(s) <= 1 + 1/(s-1) finishes it off.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(delta.numerator) / Decimal(delta.denominator)
        if k == 1:
            return d * (1 + d + (1 / d).ln())
        return d * (1 + Decimal(1) / (2 * k - 2))


def abel_limit_check(k: int, deltas: Sequence, precision: int = 50) -> VerificationReport:
    """Watch f_k(1 + delta) climb toward zeta(2k) as delta shrinks.

    Evaluates the series at u = 1 + delta for each delta, requires the
    residuals against the decimal zeta value to be positive and strictly
    decreasing, and judges the final residual against the proven
    delta-dependent bound from ``_abel_tolerance``. A broken residual
    ordering is reported with tolerance -1 (failed by construction).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if precision < 10:
        raise ValueError("precision must be >= 10")
    deltas = [Fraction(d) for d in deltas]
    if not deltas:
        raise ValueError("at least one delta is required")
    if any(d <= 0 for d in deltas):
        raise ValueError("every delta must be positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must decrease strictly")

    scale = 10 ** (precision + 10)
    # the smallest delta costs the most terms: refuse it before any sum
    _check_reciprocal_budget(k, 1 + deltas[-1], scale)
    target = Decimal(zeta_even_decimal(k, precision + 5))
    residuals: list[Decimal] = []
    term_counts: list[int] = []
    value = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = precision + 12
        for d in deltas:
            total, terms = _reciprocal_power_sum(k, 1 + d, scale)
            value = Decimal(total) / scale
            residuals.append(target - value)
            term_counts.append(terms)

    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    from_below = all(r > 0 for r in residuals)
    monotone = decreasing and from_below
    tolerance = _abel_tolerance(k, deltas[-1]) if monotone else Decimal(-1)
    return VerificationReport(
        identity_name="zeta_even_abel_limit",
        parameters={
            "k": k,
            "deltas": ",".join(str(d) for d in deltas),
            "precision": precision,
            "terms": ",".join(str(t) for t in term_counts),
            "residuals": ",".join(str(round_significant(r, 12)) for r in residuals),
            "monotone_from_below": monotone,
        },
        lhs=round_significant(value, precision),
        rhs=target,
        residual=HighPrecisionReal(residuals[-1], precision),
        tolerance=HighPrecisionReal(tolerance, precision),
    )


def identity_check_expansion(
    k: int,
    u,
    J_max: int,
    precision: int = 50,
    tolerance: Decimal | str | None = None,
) -> VerificationReport:
    """Check f_k(u) against its rearrangement into pi-power phi terms.

    lhs: f_k(u) summed directly in fixed point (own truncation dust).
    rhs: sum_{j=0}^{J_max} (-1)^(j+1) * (pi^(2j)/(2j)!) * phi_(2j-2k)(u)/2,
    with exact Taylor-route phi for 2j >= 2k and bounded series phi
    below that.

    The j-terms do *not* decay factorially: phi_M(u) itself grows like
    M!/R^(M+1) with R^2 = ln(u)^2 + pi^2 (the generating function's
    nearest poles sit at ln(u) +/- i*pi), which cancels the 1/(2j)! and
    leaves geometric decay at rate (pi/R)^2 -- slow for u near 1. The
    default tolerance is therefore a certified envelope for the dropped
    tail: |phi_M(u)| <= C * M!/R^(M+1) for the M >= 2 reached here, with
    C proven from the pole expansion of phi (``_pole_constant``), summed
    geometrically with directed rounding. Passing the check means the
    residual is inside what the truncation provably allows; pass an
    explicit ``tolerance`` (a Decimal or a decimal string) to demand
    more than the bound can promise.

    The first omitted term (exact phi route) is recorded in the report
    parameters so deliberate under-truncation can be judged against it.

    The rhs dust (A + 1) 10^(8-w), w = precision + 15, A = sum_j |term_j|,
    bounds the Decimal arithmetic at w + 5 digits, where one rounding
    costs a relative eps = 5 10^-(w+5). pi, rounded to w digits, is off
    by a relative d < 5 10^-w/pi < 1.6 10^-w, and pi^(2j) by 2j d. Each
    term adds at most 5 eps: the power (one ulp), the division by
    2 (2j)!, an exact phi's conversion and the product; a series phi's
    error is in phi_bound. The J_max + 1 additions and lhs - rhs each
    round by eps times at most A or |lhs| < 2. In all, the residual
    loses under A (2 J_max d + (J_max + 8) eps) + 2 eps
    < (A + 1) 4 J_max 10^-w: inside the dust while J_max < 2.5e7.
    """
    u = Fraction(u)
    if k < 1:
        raise ValueError("k must be >= 1")
    if u <= 1:
        raise ValueError("the rearrangement is checked strictly above u = 1")
    if J_max < k:
        raise ValueError("J_max must be at least k so the tail envelope applies")
    if precision < 10:
        raise ValueError("precision must be >= 10")

    work = precision + 15
    scale = 10**work
    pi = _pi(work)

    total, lhs_terms = _reciprocal_power_sum(k, u, scale)
    # exact phi_0..phi_{m_next}; m_next indexes the first omitted term
    m_next = 2 * (J_max + 1) - 2 * k
    exact_phi = phi_coefficients(u, m_next)
    c_u = _ceil_div(u.numerator, u.numerator - u.denominator)
    lhs_dust_ulps = (c_u + 1) * (lhs_terms + c_u + 2)

    with localcontext() as ctx:
        ctx.prec = work + 5
        lhs = Decimal(total) / scale
        rhs = Decimal(0)
        abs_acc = Decimal(0)
        phi_bound = Decimal(0)
        for j in range(J_max + 1):
            mi = 2 * j - 2 * k
            coeff = pi.value ** (2 * j) / (2 * math.factorial(2 * j))
            if mi >= 0:
                exact = exact_phi[mi]
                phi_dec = Decimal(exact.numerator) / Decimal(exact.denominator)
            else:
                pe = phi_series(mi, u, precision + 5)
                phi_dec = pe.value.value
                phi_bound += coeff * pe.error_bound.value
            term = coeff * phi_dec
            rhs += term if j % 2 else -term
            abs_acc += abs(term)
        residual = lhs - rhs
        # machine dust of the Decimal accumulation (derived in the docstring)
        rhs_dust = (abs_acc + 1) * Decimal(10) ** (8 - work)

    default_tol = _expansion_tail_envelope(k, u, J_max, pi.value)
    default_tol += rhs_dust + phi_bound
    default_tol += Decimal(lhs_dust_ulps) * Decimal(10) ** (-work) * 10

    tol = HighPrecisionReal(default_tol if tolerance is None else Decimal(tolerance), 15)

    # actual first omitted term, from the exact phi route (2(J+1) >= 2k)
    exact_next = exact_phi[m_next]
    with localcontext() as ctx:
        ctx.prec = 30
        first_omitted = (
            pi.value ** (2 * (J_max + 1))
            / (2 * math.factorial(2 * (J_max + 1)))
            * abs(Decimal(exact_next.numerator) / Decimal(exact_next.denominator))
        )

    return VerificationReport(
        identity_name="cosine_series_rearrangement",
        parameters={
            "k": k,
            "u": u,
            "jmax": J_max,
            "precision": precision,
            "lhs_terms": lhs_terms,
            "first_omitted": round_significant(first_omitted, 15),
        },
        lhs=round_significant(lhs, precision),
        rhs=round_significant(rhs, precision),
        residual=HighPrecisionReal(residual, precision),
        tolerance=tol,
    )


def _pole_constant(b_up: Decimal, inv_b_up: Decimal, pi_up: Decimal, M: int) -> Decimal:
    """Upper bound on C_M = 4 sum_{n>=0} (R_0/R_n)^(M+1), M >= 2.

    2e^t/(e^t + u) has simple poles of residue 2 at
    z_n = ln u + (2n+1) i pi, n in Z, so for M >= 1
    phi_M(u) = -2 M! sum_n z_n^-(M+1). Poles n and -1-n are conjugate,
    |z_n| = R_n with R_n^2 = ln(u)^2 + (2n+1)^2 pi^2, so
    |phi_M(u)| <= C_M M!/R_0^(M+1). No ratio R_0/R_n exceeds 1, so C_M
    does not grow with M.

    An integral closes the n-sum. With b = ln(u)/pi the terms are
    h(2n+1) for the decreasing h(x) = ((b^2+1)/(b^2+x^2))^((M+1)/2), and
    h(2n+1) is at most the mean of h over [2n-1, 2n+1], so the sum is at
    most 1 + (1/2) int_1^oo h. Substituting x = b tan(t),
    t_1 = arctan(1/b), gives
    int_1^oo h = (b + 1/b) int_{t_1}^{pi/2} (cos t/cos t_1)^(M-1) dt.
    As cos t <= cos t_1 cos(t - t_1), that integral is at most its
    interval length arctan(b) <= min(b, pi/2), and at most the Wallis
    integral int_0^{pi/2} cos^(M-1) <= sqrt(pi/(2(M-1))). Hence

        C_M <= 4 + 2 (b + 1/b) min(b, pi/2, sqrt(pi/(2(M-1)))),

    rounded up here from upper bounds on b, 1/b and pi; the 1e-20 slop
    covers the half-even sqrt.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_CEILING
        wallis_up = (pi_up / (2 * (M - 1))).sqrt() * (1 + Decimal("1e-20"))
        return 4 + 2 * (b_up + inv_b_up) * min(b_up, pi_up / 2, wallis_up)


def _expansion_tail_envelope(k: int, u: Fraction, J_max: int, pi_value: Decimal) -> Decimal:
    """Certified bound on the dropped j > J_max tail of the rearrangement.

    The j-term is pi^(2j)/(2j)! * |phi_M(u)|/2 with M = 2j - 2k, and
    |phi_M(u)| <= C M!/R^(M+1), R = R_0, with C the bound of
    ``_pole_constant`` at the first omitted M (it covers every later M),
    or 8 wherever that bound is at most 8. The per-term envelope
    (C/2) * M! * pi^(2j) / (R^(M+1) * (2j)!) has a term ratio below
    q = (pi/R)^2 < 1; the tail is the first envelope term over (1 - q).
    Directed rounding keeps every intermediate on the safe side; the
    1e-20 slop absorbs the rounding of the supplied pi (correct to at
    least 24 digits) and the half-even ln/sqrt results, which ignore
    the context rounding mode.
    """
    slop = Decimal("1e-20")
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_FLOOR
        pi_low = round_significant(pi_value, 35) * (1 - slop)
        ln_low = (Decimal(u.numerator) / Decimal(u.denominator)).ln() * (1 - slop)
        r2_low = ln_low * ln_low + pi_low * pi_low
        r_low = r2_low.sqrt()
        ctx.rounding = ROUND_CEILING
        pi_up = round_significant(pi_value, 35) * (1 + slop)
        ln_up = (Decimal(u.numerator) / Decimal(u.denominator)).ln() * (1 + slop)
        q_up = pi_up * pi_up / r2_low
        ctx.rounding = ROUND_FLOOR
        one_minus_q = 1 - q_up
        if one_minus_q <= 0:
            # u so close to 1 that 40 digits cannot separate R from pi;
            # no finite certified bound is available at this working
            # precision, and a report judged against it fails.
            return Decimal("Infinity")
        ctx.rounding = ROUND_CEILING
        m_next = 2 * (J_max + 1) - 2 * k
        c_up = _pole_constant(ln_up / pi_low, pi_up / ln_low, pi_up, m_next)
        half_c = 4 if c_up <= 8 else Fraction(c_up) / 2
        ratio = Fraction(math.factorial(m_next), math.factorial(2 * (J_max + 1))) * half_c
        envelope = (
            _dec_ceiling(ratio, 40)
            * pi_up ** (2 * (J_max + 1))
            / r_low ** (m_next + 1)
        )
        return envelope / one_minus_q


def recurrence_cross_check(k_max: int) -> VerificationReport:
    """Compare the recurrence against the classical formula for k <= k_max.

    Both routes are exact, so the comparison is exact rational equality;
    the report's residual is the number of mismatching indices and the
    tolerance is zero. Expected: zero mismatches for every k.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    mismatches = []
    for k in range(1, k_max + 1):
        if zeta_even_ratio(k) != zeta_even_via_euler(k):
            mismatches.append(k)
    first_bad = mismatches[0] if mismatches else k_max
    return VerificationReport(
        identity_name="zeta_even_recurrence_vs_euler_formula",
        parameters={
            "k_max": k_max,
            "mismatch_indices": ",".join(map(str, mismatches)),
        },
        lhs=zeta_even_ratio(first_bad),
        rhs=zeta_even_via_euler(first_bad),
        residual=HighPrecisionReal.from_int(len(mismatches)),
        tolerance=HighPrecisionReal.from_int(0),
    )


# The verify suites, in the order ``verify --suite all`` runs them, and
# the cases they check.
SUITES = ("recurrence", "expansion", "abel", "phi")
EXPANSION_CASES = ((1, Fraction(3, 2)), (2, Fraction(2)), (3, Fraction(3, 2)))
ABEL_DELTAS = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
PHI_SAMPLE_US = (Fraction(3, 2), Fraction(2), Fraction(3))
PHI_LIMIT_MS = (2, 3, 4, 6)


def run_suite(
    name: str,
    kmax: int = 50,
    digits: int = 50,
    jmax: int = 25,
    terms: int = 100_000,
    tolerance: Decimal | None = None,
) -> list[VerificationReport]:
    """The reports of one verify suite; ``name`` is one of SUITES.

    kmax is the depth of the recurrence cross-check, jmax the truncation
    of the expansion suite, digits the working precision of the others,
    and terms the length of the alternating sums behind the phi suite's
    odd-m limits. tolerance overrides the derived tolerances of the
    expansion and phi suites; recurrence and abel keep their own.

    Every knob is checked before any suite runs, whether or not this
    suite uses it, and a ValueError names the knob that is out of range.
    """
    for knob, value, low in (
        ("kmax", kmax, 1),
        ("digits", digits, 10),
        ("jmax", jmax, max(k for k, _ in EXPANSION_CASES)),
        ("terms", terms, 1),
    ):
        if value < low:
            raise ValueError(f"{knob} must be >= {low}")
    if terms > MAX_SERIES_TERMS:
        raise ValueError(f"terms must be <= {MAX_SERIES_TERMS}, the series work budget")
    if name == "recurrence":
        return [recurrence_cross_check(kmax)]
    if name == "expansion":
        return [
            identity_check_expansion(k, u, jmax, digits, tolerance=tolerance)
            for k, u in EXPANSION_CASES
        ]
    if name == "abel":
        return [abel_limit_check(k, ABEL_DELTAS, digits) for k in (1, 2)]
    if name == "phi":
        return _phi_suite(digits, terms, tolerance)
    raise ValueError(f"unknown suite {name!r}, expected one of {', '.join(SUITES)}")


def _phi_limit_tolerance(m: int, delta: Fraction) -> Decimal:
    """Proven bound on |2(1-2^(1-m)) zeta(m) - phi_{-m}(1+delta)|.

    The difference is 2 sum (1-x^n)/n^m with x = 1/(1+delta); splitting
    at n ~ 1/eps gives 2*delta*(2 + delta + ln(1/delta)) for m = 2, and
    termwise 1-x^n <= n*eps gives 2*delta*(1 + 1/(m-2)) for m >= 3.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(delta.numerator) / Decimal(delta.denominator)
        if m == 2:
            return 2 * d * (2 + d + (1 / d).ln())
        return 2 * d * (1 + Decimal(1) / (m - 2))


def _phi_suite(
    digits: int, eta_terms: int, tolerance: Decimal | None
) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for u in PHI_SAMPLE_US:
        for m, exact in enumerate(phi_coefficients(u, 20)):
            evaluation = phi_series(m, u, digits)
            # the exact side must not be quantized: these values reach
            # ~1e8, where even 55 significant digits would inject more
            # absolute error than the series' own bound
            with localcontext() as ctx:
                ctx.prec = digits + 30
                exact_dec = Decimal(exact.numerator) / Decimal(exact.denominator)
                residual_dec = evaluation.value.value - exact_dec
            residual = HighPrecisionReal(residual_dec, digits)
            tol = (
                HighPrecisionReal(tolerance, 15)
                if tolerance is not None
                else evaluation.error_bound
            )
            reports.append(
                VerificationReport(
                    identity_name="phi_series_vs_coefficients",
                    parameters={
                        "m": m,
                        "u": u,
                        "precision": digits,
                        "terms": evaluation.terms_used,
                    },
                    lhs=evaluation.value,
                    rhs=exact,
                    residual=residual,
                    tolerance=tol,
                )
            )
    for m in PHI_LIMIT_MS:
        factor = Fraction(2) * (1 - Fraction(1, 2 ** (m - 1)))
        if m % 2 == 0:
            zeta_m = Decimal(zeta_even_decimal(m // 2, digits + 5))
            with localcontext() as ctx:
                ctx.prec = digits + 5
                target_dec = (
                    Decimal(factor.numerator) / Decimal(factor.denominator) * zeta_m
                )
            target = HighPrecisionReal(target_dec, digits)
            target_bound = Decimal(10) ** (-digits)
        else:
            eta_value, eta_bound = eta_partial(m, eta_terms)
            with localcontext() as ctx:
                ctx.prec = eta_value.precision_digits
                target = HighPrecisionReal(-2 * eta_value.value, ctx.prec)
            target_bound = 2 * eta_bound.value
        # the residual keeps only the digits both of its sides carry
        residual_digits = min(digits, target.precision_digits)
        for delta in ABEL_DELTAS:
            evaluation = phi_series(-m, 1 + delta, digits)
            with localcontext() as ctx:
                ctx.prec = residual_digits
                residual_dec = evaluation.value.value - target.value
            residual = HighPrecisionReal(residual_dec, residual_digits)
            tol_dec = (
                tolerance
                if tolerance is not None
                else _phi_limit_tolerance(m, delta)
                + evaluation.error_bound.value
                + target_bound
            )
            reports.append(
                VerificationReport(
                    identity_name="phi_negative_index_limit",
                    parameters={
                        "m": m,
                        "u": 1 + delta,
                        "precision": digits,
                        "terms": evaluation.terms_used,
                    },
                    lhs=evaluation.value,
                    rhs=target,
                    residual=residual,
                    tolerance=HighPrecisionReal(tol_dec, 15),
                )
            )
    return reports
