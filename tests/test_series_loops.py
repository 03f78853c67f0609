"""The series of the library against reference copies of older loops.

``phi_series``, the alternating eta sums and f_k(u) now sum an
accelerated series (``series_verifier._cvz_sum``) for every m, so they
cannot reproduce the integers of the plain loops they replaced. Those
loops are kept here as references, and the two must agree within the
sum of their error bounds.

The kernel itself keeps the parent's integers: its Horner scheme now
reads weights scaled once per (n, m, bits) from a cache, and the inline
loop it replaced is kept here, with the uncached weights it read, and
must return the identical ``(value, radius, terms)``.

phi_series decides Ziv's rounding test on the integers; the Decimal
decision it replaced is kept here, and the two must agree on every ball.

The verifier's bounds are integer balls and exact rationals now. The
Decimal expressions they replaced (the polylog gap, the pole constant,
the tail envelope and the rearrangement's rhs loop, with their slops
and their rhs dust) are kept here, and over a grid each new upper bound
must lie at least at the old value less the old slop and at most a
relative 10^-15 above it, and the rhs ball must agree with the old loop
within the old dust.

For m >= 0, ``phi_coefficients`` is an exact oracle that needs no
mpmath and reaches every u: phi_series must lie within its bound of it
and print its correctly rounded decimal, near u = 1 too. For m < 0,
agreement with mpmath, where it is installed, covers u the old loops
cannot reach.
"""

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from zetaeven import series_verifier
from zetaeven.numeric_core import (
    HighPrecisionReal, _context, _fixed_decimal, _rational_decimal, _round_significant_int,
    _rounds_alike, compute_pi, round_significant,
)
from zetaeven.series_verifier import (
    ABEL_DELTAS,
    EXPANSION_CASES,
    PHI_LIMIT_MS,
    PhiEvaluation,
    _ceil_div,
    _cvz_growth,
    _cvz_sum,
    _cvz_terms,
    _cvz_weights,
    _expansion_tail_envelope,
    _pole_constant,
    _polylog_gap,
    _terms_before_floor,
    _reciprocal_power_sum,
    _two_eta,
    identity_check_expansion,
    phi_coefficients,
    phi_series,
)

try:
    import mpmath
except ImportError:  # the comparisons with the old loops still run
    mpmath = None

F = Fraction


def reference_cvz_weights(n):
    """The kernel weights c_0..c_(n-1) and d, as the uncached loop built them."""
    q, qs = 1, []
    for j in range(n):
        q = q * 2 * (n + j) * (n - j) // ((j + 1) * (2 * j + 1))
        qs.append(q)
    c = tuple(accumulate(reversed(qs)))[::-1]
    return c, c[0] + 1


def estimate(m, num, den, bits, n):
    """The stop estimate the kernel's callers pass in."""
    return _terms_before_floor(bits, math.log(den) - math.log(num), n, m)


def reference_cvz_sum(m, num, den, bits, n):
    """``_cvz_sum`` with each Horner step scaling its own weight."""
    c, d = reference_cvz_weights(n)
    w = max(m, 0)
    terms = n
    estimate = _terms_before_floor(bits, math.log(den) - math.log(num), n, m)
    if estimate < n:
        # the K past which the terms floor to 0, checked exactly
        for k in (estimate - 1, estimate):
            rise, fall = (k + 2) ** w * num, (k + 1) ** w * den
            if rise < fall and (k + 1) ** w * num ** (k + 1) << bits < den ** (k + 1):
                terms = k
                break
    h = 0
    if m >= 0:
        for k in range(terms - 1, -1, -1):
            h = (c[k] << bits) * (k + 1) ** m - h * num // den
    else:
        for k in range(terms - 1, -1, -1):
            h = (c[k] << bits) // (k + 1) ** -m - h * num // den
    value = 2 * num * h // (den * d)
    if m > 0:
        radius = 2 + _ceil_div(2 * _cvz_growth(m, n) << bits, d)
    else:
        radius = 2 + _ceil_div(2 * num << bits, den * d)
    if terms < n:
        radius += _ceil_div(2 * fall, fall - rise)
    return value, radius, terms


def reference_phi_series(m, u, precision, max_terms=None):
    """phi_series summed one term per step, each term's dust added as it goes.

    Returns the evaluation and its exact rational error bound, or None,
    before summing, when phi_series estimates more than ``max_terms`` terms.
    """
    u = Fraction(u)
    p, q = u.numerator, u.denominator
    c_u = _ceil_div(p, p - q)
    ln_u = math.log(p) - math.log(q)
    n_min = 1 if m <= 0 else math.floor(m / ln_u) + 1
    target = precision * math.log(10) + math.log(2.0)
    n_est = max(n_min, int(target / ln_u) + 2)
    for _ in range(4):
        n_est = max(n_min, int((target + max(m, 0) * math.log(n_est)) / ln_u) + 2)
    if max_terms is not None and n_est > max_terms:
        return None
    guard = 18 + math.ceil(max(m, 0) * math.log10(n_est + 1)) + len(str(c_u * (n_est + 1)))

    scale = 10 ** (precision + guard)
    threshold = 10**guard
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

    rho = Fraction(n + 1, n) ** m / u if m >= 0 else 1 / u
    tail_ulps = Fraction(term + term_err) * rho / (1 - rho)
    bound = (tail_ulps + err_ulps + 1) / scale
    with localcontext() as ctx:
        ctx.prec = max(len(str(abs(total))) + 2, 10)
        value = Decimal(total) / scale
    return PhiEvaluation(
        m=m,
        u=u,
        value=HighPrecisionReal(value, precision),
        terms_used=n,
        error_bound=HighPrecisionReal(_rational_decimal(bound, 15, ROUND_CEILING), 15),
    ), bound


def reference_eta_partial(m, N):
    scale = 10 ** (60 + len(str(N)))
    total = 0
    for n in range(1, N + 1):
        term = scale // n**m
        total += term if n % 2 == 0 else -term
    with localcontext() as ctx:
        ctx.prec = 70
        value = Decimal(total) / scale
    bound = Fraction(1, (N + 1) ** m)
    return (
        HighPrecisionReal(value, 50),
        HighPrecisionReal(_rational_decimal(bound, 15, ROUND_CEILING), 15),
    )


def reference_reciprocal_power_sum(k, u, scale):
    """f_k(u) summed term by term, in ulps of 1/scale, as the library once did.

    Returns ``(total, terms)``: total is a lower bound, below f_k(u) by
    at most (c_u + 1)(terms + c_u + 2) ulps, c_u = ceil(u/(u-1)).
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


def assert_same(m, u, precision, max_terms=None):
    """phi_series against the reference loop: agreement within both error
    bounds. Skipped when the loop would sum more than ``max_terms``."""
    expected = reference_phi_series(m, u, precision, max_terms)
    if expected is None:
        return
    expected, expected_bound = expected
    actual = phi_series(m, u, precision)
    gap = abs(F(actual.value.value) - F(expected.value.value))
    assert gap <= F(actual.error_bound.value) + expected_bound, (m, u, precision)


def round_exact(x, digits):
    """The rational x rounded to ``digits`` significant digits, ties to even."""
    if x == 0:
        return Decimal(0)
    e = len(str(abs(x.numerator))) - len(str(x.denominator))
    while F(10) ** e > abs(x):
        e -= 1
    while F(10) ** (e + 1) <= abs(x):
        e += 1
    shift = e - digits + 1
    return Decimal(f"{round(x / F(10) ** shift)}E{shift}")


def assert_exact(m, u, precision, exact):
    """phi_series(m >= 0) within its bound of the exact phi_m(u), and
    rounded correctly."""
    evaluation = phi_series(m, u, precision)
    error = abs(F(evaluation.value.value) - exact)
    assert error <= F(evaluation.error_bound.value), (m, u, precision)
    assert evaluation.value.rounded() == round_exact(exact, precision), (m, u, precision)


def phi_reference(m, u):
    """phi_m(u) = -2 Li_(-m)(-1/u), at mpmath's working precision."""
    return -2 * mpmath.polylog(-m, -mpmath.mpf(u.denominator) / u.numerator)


def assert_near_mpmath(m, u, precision):
    """phi_series(m < 0) within its bound of mpmath, and rounded correctly."""
    evaluation = phi_series(m, u, precision)
    with mpmath.workdps(precision + 40):
        true = phi_reference(m, u)
        error = abs(mpmath.mpf(str(evaluation.value.value)) - true)
        assert error <= mpmath.mpf(str(evaluation.error_bound.value)), (m, u, precision)
        closer = Decimal(mpmath.nstr(true, precision + 30, min_fixed=-mpmath.inf, max_fixed=mpmath.inf))
    assert evaluation.value.rounded() == round_significant(closer, precision), (m, u, precision)


PRECISIONS = (10, 24, 50, 80)
FAR_US = (F(11, 10), F(3, 2), F(2), F(3), F(17, 5))
NEAR_US = (F(1001, 1000), F(806, 805), F(1196, 1195))


def check_grid(u):
    exact = phi_coefficients(u, 24)
    for m in range(-7, 25):
        for precision in PRECISIONS:
            assert_same(m, u, precision)
            if m >= 0:
                assert_exact(m, u, precision, exact[m])


@pytest.mark.parametrize("u", FAR_US, ids=str)
def test_phi_grid_away_from_one(u):
    check_grid(u)


@pytest.mark.slow
@pytest.mark.parametrize("u", NEAR_US, ids=str)
def test_phi_grid_near_one(u):
    # 1e5 to 3e5 terms per reference series: 20 to 30 s per u
    check_grid(u)


@pytest.mark.parametrize("u", NEAR_US, ids=str)
def test_phi_near_one_against_the_exact_coefficients(u):
    # the exact oracle alone, without the long reference loops
    exact = phi_coefficients(u, 24)
    for m in range(25):
        for precision in PRECISIONS:
            assert_exact(m, u, precision, exact[m])


def test_phi_values_below_the_first_pass():
    # the even phi_m(u) are O(u - 1) near u = 1: at u = 1 + 10^-80 the
    # first pass's ball holds 0, and the lead it then sets must still give
    # every significant digit
    for m in (2, 4, 6):
        for exponent in (80, 300):
            u = 1 + F(1, 10**exponent)
            exact = phi_coefficients(u, m)[m]
            for precision in (10, 50):
                assert_exact(m, u, precision, exact)


def test_phi_near_one_cases_of_the_suite_and_benchmark():
    # the limit series of the phi suite, and the near-1 phi commands
    for m in PHI_LIMIT_MS:
        for delta in ABEL_DELTAS:
            assert_same(-m, 1 + delta, 50)
    for m, u, precision in ((3, F(1196, 1195), 50), (0, F(1001, 1000), 24), (-1, F(806, 805), 10)):
        assert_same(m, u, precision)
        if m >= 0:
            assert_exact(m, u, precision, phi_coefficients(u, m)[m])


NEAR_ONE = st.builds(
    lambda exponent, a: 1 + F(a, 10**exponent), st.integers(3, 12), st.integers(1, 999)
)


@settings(max_examples=300)
@given(
    st.one_of(st.fractions(min_value=F(1001, 1000), max_value=60, max_denominator=1000), NEAR_ONE),
    st.integers(-9, 30),
    st.integers(10, 80),
)
def test_phi_property(u, m, precision):
    # the cap keeps each example near 20 ms; the near-1 grid covers longer
    # sums, the exact coefficients every m >= 0, and mpmath the m < 0 sums
    # no plain loop can reach
    assert_same(m, u, precision, max_terms=20_000)
    if m >= 0:
        assert_exact(m, u, precision, phi_coefficients(u, m)[m])
    elif mpmath is not None:
        assert_near_mpmath(m, u, precision)


@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_eta_partial(m):
    # 2 eta(m) from the kernel against the alternating partial sums of
    # the old target: within the partial sum's truncation 2/(N+1)^m, its
    # floor dust (N ulps at its scale, doubled) and the kernel's radius
    target, radius = _two_eta(m, 50)
    for N in (1, 2, 999, 10**5):
        value, _ = reference_eta_partial(m, N)
        dust = Fraction(2 * N, 10 ** (60 + len(str(N))))
        gap = abs(F(target, 10**60) + 2 * F(value.value))
        assert gap <= Fraction(2, (N + 1) ** m) + F(radius, 10**60) + dust, (m, N)


REFERENCE_F_CASES = (
    *((k, 1 + delta, 60) for k in (1, 2) for delta in ABEL_DELTAS),
    *((k, u, 65) for k, u in EXPANSION_CASES),
)


@pytest.mark.parametrize("k, u, digits", REFERENCE_F_CASES, ids=str)
def test_reciprocal_power_sum_against_the_plain_loop(k, u, digits):
    scale = 10**digits
    value, radius, _ = _reciprocal_power_sum(k, u, scale)
    low, terms = reference_reciprocal_power_sum(k, u, scale)
    c_u = _ceil_div(u.numerator, u.numerator - u.denominator)
    high = low + (c_u + 1) * (terms + c_u + 2)
    # both balls hold f_k(u): they must overlap
    assert value - radius <= high and low <= value + radius, (k, u)


def test_weights_are_the_reference_loop_weights():
    # built from the back in one pass, against the forward q's and their sums
    for n in (*range(1, 130), 1001):
        c, d = _cvz_weights(n)
        assert (tuple(c), d) == reference_cvz_weights(n), n


def kernel_ys(bits):
    """The grid's y = num/den: exact fractions near 1, at 1/2 and far from
    1, where the sums stop early, and two z/2^bits, the form of the Lewin
    levels past their exact ones."""
    one = 1 << bits
    return (
        (1, 1), (1000, 1001), (2, 3), (1, 2), (1, 3), (5, 17), (1, 1000), (3, 2**20),
        (one * 5 // 7, one), (one - 3, one),
    )


@pytest.mark.parametrize("bits", (40, 133, 400))
def test_kernel_returns_the_reference_loop_integers(monkeypatch, bits):
    # y varies fastest, so each (n, m, bits) is looked up with sums of
    # every length: cache hits, longer sums that rebuild it, new keys
    monkeypatch.setattr(series_verifier, "_cvz_cache", None)
    stopped = 0
    for m in range(-6, 26):
        full = _cvz_terms(bits, m)
        for n in (full, full // 3 + 1):
            for num, den in kernel_ys(bits):
                if m >= 0 and num == den:
                    continue  # y = 1 is for m < 0 only
                expected = reference_cvz_sum(m, num, den, bits, n)
                actual = _cvz_sum(m, num, den, bits, n, estimate(m, num, den, bits, n))
                assert actual == expected, (m, num, den, bits, n)
                stopped += expected[2] < n
    assert stopped > 100, stopped  # early stops are on the grid


def test_short_sum_before_a_longer_one_on_the_same_key(monkeypatch):
    monkeypatch.setattr(series_verifier, "_cvz_cache", None)
    bits = 200
    for m in (-4, 0, 7):
        n = _cvz_terms(bits, m)
        # y = 1/9 stops early, y = 999/1000 sums all n terms, then 1/9 again
        for num, den in ((1, 9), (999, 1000), (1, 9), (2, 3)):
            expected = reference_cvz_sum(m, num, den, bits, n)
            assert _cvz_sum(m, num, den, bits, n, estimate(m, num, den, bits, n)) == expected, (
                m, num, den,
            )
        assert series_verifier._cvz_cache[0] == (n, m, bits)
        assert len(series_verifier._cvz_cache[1]) == n


def reference_rounds_alike(value, radius, digits, precision):
    """Ziv's test as phi_series made it with Decimals: both ends of the
    ball, value +- radius ulps of 10^-digits, rounded to ``precision``
    significant digits."""
    low, high = (
        round_significant(_fixed_decimal(v, digits), precision)
        for v in (value - radius, value + radius)
    )
    return low == high


# integers with an edge in their last digits: a run of 9s that carries
# into a new digit, an exact tie (a 5 followed by zeros) over an odd or
# an even digit, and a power of ten
EDGY = st.builds(
    lambda head, tail, zeros, sign: sign * (head * 10 + tail) * 10**zeros,
    st.integers(0, 10**25),
    st.sampled_from((5, 9, 0)),
    st.integers(0, 30),
    st.sampled_from((1, -1)),
) | st.builds(
    lambda nines, sign, less: sign * (10**nines - less), st.integers(1, 50),
    st.sampled_from((1, -1)), st.integers(0, 3),
)


@settings(max_examples=600)
@given(
    EDGY | st.integers(-(10**60), 10**60),
    st.sampled_from((0, 1, 5, 50)) | st.integers(0, 10**30),
    st.integers(0, 80),
    st.integers(1, 70),
)
@example(value=12345, radius=0, digits=4, precision=4)  # a tie at 4 digits, radius 0
@example(value=12355, radius=0, digits=4, precision=4)  # a tie over an odd digit
@example(value=99995, radius=1, digits=4, precision=4)  # the upper end carries to 10.00
@example(value=-99996, radius=2, digits=3, precision=4)
@example(value=123, radius=7, digits=20, precision=5)  # precision past the digits of value
def test_integer_ziv_test_matches_the_decimal_one(value, radius, digits, precision):
    assert _rounds_alike(value, radius, precision) == reference_rounds_alike(
        value, radius, digits, precision
    )
    # each end rounds to the value the Decimal route gives, carries and ties included
    for end in (value - radius, value + radius):
        rounded = round_significant(_fixed_decimal(end, digits), precision)
        assert _fixed_decimal(_round_significant_int(end, precision), digits) == rounded, end


def decimal_context(prec, rounding=ROUND_HALF_EVEN):
    """A private copy of the package's decimal context, entered, as the
    verifier once wrote its bounds."""
    return localcontext(_context(prec, rounding))


def reference_polylog_gap(s, delta):
    """_polylog_gap as a 40-digit Decimal expression, rounded half-even."""
    d = _rational_decimal(delta, 40)
    with decimal_context(40):
        if s == 2:
            return d * (1 + d + (1 / d).ln())
        return d * (1 + Decimal(1) / (s - 2))


def reference_pole_constant(b_up, inv_b_up, pi_up, M):
    """_pole_constant at 40 digits rounded up; the 1e-20 slop covers the
    half-even sqrt."""
    with decimal_context(40, ROUND_CEILING):
        wallis_up = (pi_up / (2 * (M - 1))).sqrt() * (1 + Decimal("1e-20"))
        return 4 + 2 * (b_up + inv_b_up) * min(b_up, pi_up / 2, wallis_up)


def reference_tail_envelope(k, u, J_max, pi_value):
    """_expansion_tail_envelope at 40 digits with directed rounding, its
    1e-20 slop absorbing the supplied pi and the half-even ln and sqrt."""
    slop = Decimal("1e-20")
    with decimal_context(40, ROUND_FLOOR) as ctx:
        pi_low = round_significant(pi_value, 35) * (1 - slop)
        ln_low = _rational_decimal(u, 40, ROUND_FLOOR).ln() * (1 - slop)
        r2_low = ln_low * ln_low + pi_low * pi_low
        r_low = r2_low.sqrt()
        ctx.rounding = ROUND_CEILING
        pi_up = round_significant(pi_value, 35) * (1 + slop)
        ln_up = _rational_decimal(u, 40, ROUND_CEILING).ln() * (1 + slop)
        q_up = pi_up * pi_up / r2_low
        ctx.rounding = ROUND_FLOOR
        one_minus_q = 1 - q_up
        if one_minus_q <= 0:
            return Decimal("Infinity")
        ctx.rounding = ROUND_CEILING
        m_next = 2 * (J_max + 1) - 2 * k
        c_up = reference_pole_constant(ln_up / pi_low, pi_up / ln_low, pi_up, m_next)
        half_c = 4 if c_up <= 8 else Fraction(c_up) / 2
        ratio = Fraction(math.factorial(m_next), math.factorial(2 * (J_max + 1))) * half_c
        envelope = (
            _rational_decimal(ratio, 40, ROUND_CEILING)
            * pi_up ** (2 * (J_max + 1))
            / r_low ** (m_next + 1)
        )
        return envelope / one_minus_q


def reference_expansion_residual(k, u, J_max, precision):
    """lhs - rhs of identity_check_expansion with the rhs summed as Decimal
    expressions at w + 5 digits, w = precision + 15, and what bounded its
    arithmetic: the rhs dust (A + 1) 10^(8-w), A = sum_j |term_j|, plus
    the series-phi bounds."""
    work = precision + 15
    total, _, _ = _reciprocal_power_sum(k, u, 10**work)
    pi = compute_pi(work)
    exact_phi = phi_coefficients(u, 2 * (J_max + 1) - 2 * k)
    lhs = _fixed_decimal(total, work)
    with decimal_context(work + 5):
        rhs = abs_acc = phi_bound = Decimal(0)
        for j in range(J_max + 1):
            mi = 2 * j - 2 * k
            coeff = pi ** (2 * j) / (2 * math.factorial(2 * j))
            if mi >= 0:
                phi_dec = _rational_decimal(exact_phi[mi], work + 5)
            else:
                pe = phi_series(mi, u, precision + 5)
                phi_dec = pe.value.value
                phi_bound += coeff * pe.error_bound.value
            term = coeff * phi_dec
            rhs += term if j % 2 else -term
            abs_acc += abs(term)
        residual = lhs - rhs
        rhs_dust = (abs_acc + 1) * Decimal(10) ** (8 - work)
    return residual, rhs_dust + phi_bound


# the grid of the old-against-new bound comparisons
BOUND_US = (F(1001, 1000), F(11, 10), F(3, 2), F(2), F(3), F(7), F(10**40))
GAP_DELTAS = tuple(F(1, 10**e) for e in range(1, 13))


def assert_tight_upper_bound(new, old, slop, ulp=0):
    """new (an exact rational) at least the old bound less its slop, and
    at most a relative 10^-15 (plus one ulp of a final rounding up) above it."""
    old = F(old)
    assert old - slop <= new <= old * (1 + F(1, 10**15)) + ulp, (float(new), float(old))


def test_polylog_gap_against_the_decimal_expression():
    # the old value rounded each of its few operations at 40 digits
    for s in (2, 3, 4, 6, 10):
        for delta in GAP_DELTAS:
            old = reference_polylog_gap(s, delta)
            assert_tight_upper_bound(_polylog_gap(s, delta), old, F(old) / 10**38)


def test_pole_constant_against_the_decimal_expression():
    # the same b, 1/b and pi bounds into both; the old slop is 1e-20 relative
    for u in BOUND_US:
        with decimal_context(60):
            pi = compute_pi(60)
            b = (Decimal(u.numerator).ln() - Decimal(u.denominator).ln()) / pi
            inputs = (b, 1 / b, pi)
        for M in (2, 3, 4, 10, 50, 92, 400):
            old = reference_pole_constant(*inputs, M)
            new = _pole_constant(*map(F, inputs), M)
            assert_tight_upper_bound(new, old, F(old) / 10**19)


@pytest.mark.parametrize("u", BOUND_US, ids=str)
def test_tail_envelope_against_the_decimal_expression(u):
    # at the default report's 65 decimals, for every J from k to 200; the
    # old slop of 1e-20 on pi and ln u enters pi^(2J+2), R^(M+1) and
    # 1/(1 - q), q = (pi/R)^2, and the new bound's last ceiling adds an ulp
    work = 65
    pi = compute_pi(work)
    ln_u = math.log(u.numerator) - math.log(u.denominator)
    one_minus_q = ln_u * ln_u / (ln_u * ln_u + math.pi * math.pi)
    for k in (1, 2, 3):
        for J in range(k, 201):
            old = reference_tail_envelope(k, u, J, pi)
            slop = F(old) * F(5 / one_minus_q + 4 * J + 10) / 10**20
            new = F(_expansion_tail_envelope(k, u, J, work), 10**work)
            assert_tight_upper_bound(new, old, slop, F(1, 10**work))


@pytest.mark.parametrize("k, u", EXPANSION_CASES, ids=str)
def test_rhs_ball_against_the_decimal_loop(k, u):
    # the residual of the rhs ball against the Decimal loop's: they differ
    # by less than the old dust and series bounds plus the ball's radius
    for J, precision in ((k, 15), (6, 15), (25, 20), (25, 50), (40, 30), (200, 80)):
        work = precision + 15
        report = identity_check_expansion(k, u, J, precision)
        radius = F(report.tolerance.value) - F(_expansion_tail_envelope(k, u, J, work), 10**work)
        old, old_bound = reference_expansion_residual(k, u, J, precision)
        assert abs(F(report.residual.value) - F(old)) <= F(old_bound) + radius, (J, precision)
