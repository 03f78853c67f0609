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
"""

from __future__ import annotations

import math
from decimal import Decimal, ROUND_CEILING, ROUND_FLOOR, localcontext
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .numeric_core import (
    FrozenRecord,
    HighPrecisionReal,
    factorial,
    round_significant,
)
from .reports import VerificationReport
from .zeta_recurrence import _pi, zeta_even_decimal

__all__ = [
    "MAX_SERIES_TERMS",
    "PhiEvaluation",
    "SeriesBudgetError",
    "EtaPartial",
    "ZetaPartial",
    "phi_series",
    "phi_coefficients",
    "phi_taylor_coeff",
    "phi_at_one",
    "eta_partial",
    "direct_zeta_partial",
    "abel_limit_check",
    "identity_check_expansion",
]


class PhiEvaluation(FrozenRecord):
    """One evaluation of phi_m(u): value, terms used, proven error bound."""

    __slots__ = ("m", "u", "value", "terms_used", "error_bound")

    def __init__(
        self,
        m: int,
        u: Fraction,
        value: Union[HighPrecisionReal, Fraction],
        terms_used: int,
        error_bound: HighPrecisionReal,
    ):
        if u < 1:
            raise ValueError("u must be >= 1")
        if terms_used < 1:
            raise ValueError("terms_used must be positive")
        if error_bound.value < 0:
            raise ValueError("error_bound must be nonnegative")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "terms_used", terms_used)
        object.__setattr__(self, "error_bound", error_bound)


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


class EtaPartial(NamedTuple):
    value: HighPrecisionReal
    error_bound: HighPrecisionReal


class ZetaPartial(NamedTuple):
    value: HighPrecisionReal
    tail_low: int  # the partial sum never overshoots, so 0
    tail_high: HighPrecisionReal


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
    ratio). The error bound covers the geometric tail from that point
    plus every ulp the integer arithmetic could have dropped, so
    |true - value| <= error_bound unconditionally.

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
    pow_ = scale * q // p
    total = 0
    err_ulps = 0
    n = 1
    while True:
        if m >= 0:
            weight = n**m
            term = 2 * weight * pow_
            term_err = 2 * weight * c_u + 1
        else:
            weight = n**-m
            term = 2 * pow_ // weight
            term_err = 2 * c_u // weight + 2
        total += term if n % 2 else -term
        err_ulps += term_err
        if n >= n_min and term < threshold and (m < 0 or Fraction(n + 1, n) ** m < u):
            break
        n += 1
        pow_ = pow_ * q // p

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


def phi_taylor_coeff(m: int, u, order: int = 0) -> Fraction:
    """Exact phi_m(u) as a Taylor coefficient of 2e^t/(e^t + u).

    The entry m of ``phi_coefficients(u, m)``. ``order`` has no effect;
    it is accepted for compatibility with callers that pass a
    truncation length.
    """
    if m < 0:
        raise ValueError("coefficient extraction needs m >= 0")
    return phi_coefficients(u, m)[m]


def phi_at_one(m: int) -> PhiEvaluation:
    """The exact boundary value phi_m(1).

    At u = 1 the generating function is the Euler-polynomial one at
    x = 1, so phi_m(1) = E_m(1): 1 for m = 0 and 0 for even m > 0. Odd m
    give the coefficients of 1 + tanh(t/2) = 2e^t/(e^t + 1), which do
    not vanish: E_1(1) = 1/2, E_3(1) = -1/4.
    """
    if m < 0:
        raise ValueError("boundary values need m >= 0")
    return PhiEvaluation(
        m=m,
        u=Fraction(1),
        value=phi_coefficients(1, m)[m],
        terms_used=m + 1,
        error_bound=HighPrecisionReal(Decimal(0), 10),
    )


def eta_partial(m: int, N: int) -> EtaPartial:
    """Partial alternating sum sum_{n=1}^{N} (-1)^n / n^m, m >= 2.

    Terms alternate and decrease in magnitude, so the truncation error
    is below the first omitted term: error_bound is exactly 1/(N+1)^m
    (rounded up only when it does not fit 15 significant digits). The
    returned value additionally carries summation/representation dust
    below 10^{-52}, invisible at its 50-digit precision and negligible
    against any truncation bound. N above MAX_SERIES_TERMS raises
    SeriesBudgetError.
    """
    if m < 2:
        raise ValueError("alternating zeta sum needs m >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_budget(f"the alternating sum of 1/n^{m} asks for", N)
    scale = 10 ** (60 + len(str(N)))
    total = 0
    for n in range(1, N + 1):
        term = scale // n**m
        total += term if n % 2 == 0 else -term
    with localcontext() as ctx:
        ctx.prec = 70
        value = Decimal(total) / scale
    bound = Fraction(1, (N + 1) ** m)
    return EtaPartial(
        HighPrecisionReal(value, 50),
        HighPrecisionReal(_dec_ceiling(bound, 15), 15),
    )


def direct_zeta_partial(k: int, N: int) -> ZetaPartial:
    """Partial sum of zeta(2k) with its integral-test tail bracket.

    value underestimates the true partial sum by floor dust only, and
    the integral comparison gives a strict tail bound, so

        value < zeta(2k) < value + tail_high

    holds with room to spare: the bound N^(1-2k)/(2k-1) exceeds the true
    tail by about N^(-2k)/2, which dwarfs the dust at every scale used
    here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    scale = 10 ** (60 + len(str(N)))
    e = 2 * k
    total = 0
    for n in range(1, N + 1):
        npow = n**e
        if npow > scale:
            break  # every further term floors to zero
        total += scale // npow
    with localcontext() as ctx:
        ctx.prec = 70
        value = Decimal(total) / scale
    tail = Fraction(1, (2 * k - 1) * N ** (2 * k - 1))
    return ZetaPartial(
        HighPrecisionReal(value, 50),
        0,
        HighPrecisionReal(_dec_ceiling(tail, 50), 50),
    )


def _reciprocal_power_sum(k: int, u: Fraction, scale: int) -> tuple[int, int]:
    """Fixed-point f_k(u) = sum_{n>=1} u^(-n)/n^(2k), in ulps of 1/scale.

    Floor divisions only lose mass: at most u/(u-1)+1 ulps per retained
    term, plus a sub-ulp-per-term geometric tail once terms hit zero.
    Callers receive a lower bound and budget the dust themselves.
    """
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

    target = Decimal(zeta_even_decimal(k, precision + 5))
    scale = 10 ** (precision + 10)
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
    tolerance: Optional[Union[Decimal, str, Fraction, HighPrecisionReal]] = None,
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
    tail: |phi_M(u)| <= 8 * M!/R^(M+1) for the M >= 2 reached here
    (desk-measured envelope constant under 5; 8 leaves margin), summed
    geometrically with directed rounding. Passing the check means the
    residual is inside what the truncation provably allows; pass an
    explicit ``tolerance`` to demand more than the bound can promise.

    The first omitted term (exact phi route) is recorded in the report
    parameters so deliberate under-truncation can be judged against it.
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
            coeff = pi.value ** (2 * j) / (2 * factorial(2 * j))
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
        # machine dust of the Decimal accumulation, generously rounded up
        rhs_dust = (abs_acc + 1) * Decimal(10) ** (8 - work)

    default_tol = _expansion_tail_envelope(k, u, J_max, pi.value)
    default_tol += rhs_dust + phi_bound
    default_tol += Decimal(lhs_dust_ulps) * Decimal(10) ** (-work) * 10

    if tolerance is None:
        tol = HighPrecisionReal(default_tol, 15)
    elif isinstance(tolerance, HighPrecisionReal):
        tol = tolerance
    elif isinstance(tolerance, Fraction):
        tol = HighPrecisionReal(_dec_ceiling(tolerance, 15), 15)
    else:
        tol = HighPrecisionReal(Decimal(tolerance), 15)

    # actual first omitted term, from the exact phi route (2(J+1) >= 2k)
    exact_next = exact_phi[m_next]
    with localcontext() as ctx:
        ctx.prec = 30
        first_omitted = (
            pi.value ** (2 * (J_max + 1))
            / (2 * factorial(2 * (J_max + 1)))
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


def _expansion_tail_envelope(k: int, u: Fraction, J_max: int, pi_value: Decimal) -> Decimal:
    """Certified bound on the dropped j > J_max tail of the rearrangement.

    Per-term envelope 4 * (2j-2k)! * pi^(2j) / (R^(2j-2k+1) * (2j)!)
    (the 8/2 constant folded in), whose term ratio is below
    q = (pi/R)^2 < 1; the tail is the first envelope term over (1 - q).
    Directed rounding keeps every intermediate on the safe side; the
    1e-20 slop absorbs the rounding of the supplied pi (correct to at
    least 24 digits) and the half-even ln/sqrt results, which ignore
    the context rounding mode.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_FLOOR
        slop = Decimal("1e-20")
        pi_low = round_significant(pi_value, 35) * (1 - slop)
        ln_low = (Decimal(u.numerator) / Decimal(u.denominator)).ln() * (1 - slop)
        r2_low = ln_low * ln_low + pi_low * pi_low
        r_low = r2_low.sqrt()
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_CEILING
        pi_up = round_significant(pi_value, 35) * (1 + slop)
        q_up = pi_up * pi_up / r2_low
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_FLOOR
        one_minus_q = 1 - q_up
    if one_minus_q <= 0:
        # u so close to 1 that 40 digits cannot separate R from pi; no
        # finite certified bound is available at this working precision,
        # and a report judged against it fails.
        return Decimal("Infinity")
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_CEILING
        m_next = 2 * (J_max + 1) - 2 * k
        ratio = Fraction(4 * factorial(m_next), factorial(2 * (J_max + 1)))
        envelope = (
            _dec_ceiling(ratio, 40)
            * pi_up ** (2 * (J_max + 1))
            / r_low ** (m_next + 1)
        )
        return envelope / one_minus_q
