"""The summation loops of phi_series and eta_partial against reference copies.

The references below are the straightforward one-term-per-step loops the
library used before its loops were tightened. The phi-suite residuals
print the last ulps of these sums, so the library must reproduce their
integers exactly: same value, same term count, same error bound. The
printed bound keeps 15 digits, which for m < 0 round the arithmetic dust
away under the tail term, so the exact rational bound is compared too.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zetaeven import series_verifier
from zetaeven.numeric_core import HighPrecisionReal
from zetaeven.series_verifier import (
    ABEL_DELTAS,
    PHI_LIMIT_MS,
    PhiEvaluation,
    _ceil_div,
    _dec_ceiling,
    eta_partial,
    phi_series,
)

F = Fraction


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
        error_bound=HighPrecisionReal(_dec_ceiling(bound, 15), 15),
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
        HighPrecisionReal(_dec_ceiling(bound, 15), 15),
    )


def assert_same(m, u, precision, max_terms=None):
    expected = reference_phi_series(m, u, precision, max_terms)
    if expected is None:
        return
    expected, expected_bound = expected
    bounds = []

    def capture(x, digits):
        bounds.append(x)
        return _dec_ceiling(x, digits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_verifier, "_dec_ceiling", capture)
        actual = phi_series(m, u, precision)
    assert actual == expected, (m, u, precision)
    # equal Decimals may still differ in their digits; the printed ones may not
    assert str(actual.value.value) == str(expected.value.value), (m, u, precision)
    assert bounds == [expected_bound], (m, u, precision)


PRECISIONS = (10, 24, 50, 80)
FAR_US = (F(11, 10), F(3, 2), F(2), F(3), F(17, 5))
NEAR_US = (F(1001, 1000), F(806, 805), F(1196, 1195))


@pytest.mark.parametrize("u", FAR_US, ids=str)
def test_phi_grid_away_from_one(u):
    for m in range(-7, 25):
        for precision in PRECISIONS:
            assert_same(m, u, precision)


@pytest.mark.slow
@pytest.mark.parametrize("u", NEAR_US, ids=str)
def test_phi_grid_near_one(u):
    # 1e5 to 3e5 terms per series: 20 to 30 s per u for both loops
    for m in range(-7, 25):
        for precision in PRECISIONS:
            assert_same(m, u, precision)


def test_phi_near_one_cases_of_the_suite_and_benchmark():
    # the limit series of the phi suite, and the near-1 phi commands
    for m in PHI_LIMIT_MS:
        for delta in ABEL_DELTAS:
            assert_same(-m, 1 + delta, 50)
    for m, u, precision in ((3, F(1196, 1195), 50), (0, F(1001, 1000), 24), (-1, F(806, 805), 10)):
        assert_same(m, u, precision)


@settings(max_examples=300)
@given(
    st.fractions(min_value=F(1001, 1000), max_value=60, max_denominator=1000),
    st.integers(-9, 30),
    st.integers(10, 80),
)
def test_phi_property(u, m, precision):
    # the cap keeps each example near 20 ms; the near-1 grid covers longer sums
    assert_same(m, u, precision, max_terms=20_000)


@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_eta_partial(m):
    for N in (1, 2, 999, 10**5):
        assert eta_partial(m, N) == reference_eta_partial(m, N), (m, N)
