"""Pi from the binary-split series against a reference copy of the older loops.

``numeric_core._pi_fixed`` sums Chudnovsky's and Ramanujan's series by
binary splitting. The fixed-point arctangent loops it replaced (Machin
and Euler/Hutton, about one digit per term) are kept here as the
reference: ``compute_pi`` must give the same decimal, and each raw value
must lie within a few ulps of the reference's. The Decimal division that
once rounded the raw values is kept too: ``compute_pi`` now rounds them
on the integers, and must print the same text. Every test here runs
under CPython's default int <-> str digit limit, as a library caller
does.
"""

from decimal import Context, Decimal, localcontext

import pytest

from zetaeven import numeric_core
from zetaeven.numeric_core import compute_pi, round_significant

pytestmark = pytest.mark.usefixtures("default_int_str_limit")


def reference_arctan_inverse_fixed(m, scale):
    """scale * arctan(1/m), term by term in fixed point.

    Every division floors, so each retained term costs under 1 ulp, and
    the alternating tail is below the first dropped term, itself under
    1 ulp at the working scale.
    """
    power = scale // m  # scale * (1/m)^(2k+1)
    total = power
    mm = m * m
    k = 1
    while power:
        power //= mm
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        k += 1
    return total


def reference_pi_fixed(scale):
    """Machin's and Euler/Hutton's fixed-point pi at ``scale``.

    Machin:        pi/4 = 4*arctan(1/5) - arctan(1/239)
    Euler/Hutton:  pi/4 = 2*arctan(1/3) + arctan(1/7)
    """
    arctan = reference_arctan_inverse_fixed
    machin = 4 * (4 * arctan(5, scale) - arctan(239, scale))
    hutton = 4 * (2 * arctan(3, scale) + arctan(7, scale))
    return machin, hutton


def reference_compute_pi(digits, pi_fixed=reference_pi_fixed):
    """compute_pi as it was: both fixed-point values (by default the
    arctangent ones) at 12 guard digits, each divided by the scale into a
    Decimal at 8 more digits and rounded to ``digits`` significant
    digits, must round alike."""
    work = digits + 12
    scale = 10**work
    with localcontext() as ctx:
        ctx.prec = work + 8
        first, second = (Decimal(v) / scale for v in pi_fixed(scale))
    rounded = round_significant(first, digits)
    assert round_significant(second, digits) == rounded
    return rounded


def reference_pi_floor(scale):
    """floor(pi * scale), or one off it: Machin at 8 more digits, cut back.

    Each term of the arctangent loop is floor(scale / (m^(2k+1) (2k+1))),
    under 1 ulp off, so Machin's 16 arctan(1/5) - 4 arctan(1/239) loses
    under 16 ulps per term of arctan(1/5) and 4 per term of
    arctan(1/239); at d digits there are about d/1.4 and d/4.8 of them.
    Up to 10^4 + 20 digits that is under 3 * 10^5 ulps at 10^8 times the
    scale: under 0.003 ulp at this one.
    """
    return reference_pi_fixed(scale * 10**8)[0] // 10**8


DIGITS = [*range(10, 301), 500, 1513, 1714, 4400, 10**4]


def test_compute_pi_equals_the_reference_loops():
    assert [d for d in DIGITS if compute_pi(d) != reference_compute_pi(d)] == []


def test_compute_pi_rounds_as_the_decimal_division_did():
    # compute_pi rounds its integers; the Decimal division of the same
    # raw values, then round_significant, must print the same text
    digits = [*range(10, 201), 1500, 1513, 4000, 16000]
    assert [
        d for d in digits
        if str(compute_pi(d)) != str(reference_compute_pi(d, numeric_core._pi_fixed))
    ] == []


def test_both_raw_values_within_two_ulps_of_the_reference():
    # each value is within 1.83 ulps of pi * scale (_pi_fixed), the
    # reference within 1.003 ulps: together under 3
    far = []
    for digits in DIGITS:
        scale = 10 ** (digits - 1 + numeric_core._GUARD)  # compute_pi's first scale
        reference = reference_pi_floor(scale)
        values = numeric_core._pi_fixed(scale)
        if any(abs(v - reference) > 2 for v in values):
            far.append((digits, [v - reference for v in values]))
    assert far == []


def mpmath_pi_digits(mpmath, digits):
    """pi rounded to ``digits`` significant digits by mpmath, as a Decimal
    made from an int, so no int <-> str conversion is needed."""
    with mpmath.workdps(digits + 20):
        nearest = int(mpmath.nint(mpmath.pi * mpmath.mpf(10) ** (digits - 1)))
    return Decimal(nearest).scaleb(1 - digits, Context(prec=digits))


@pytest.mark.parametrize(
    "digits", [10**4, pytest.param(10**5, marks=pytest.mark.slow)]
)
def test_compute_pi_against_mpmath(digits):
    mpmath = pytest.importorskip("mpmath")
    # an exact tie at digit d would need pi's digits d+1.. to be 5000...,
    # which the 20 guard digits of the reference would show
    assert compute_pi(digits) == mpmath_pi_digits(mpmath, digits)


def test_term_counts_are_the_least_the_bound_allows(monkeypatch):
    # each series sums terms 1..N-1 in one top-level split, with N the
    # least count for which 4 c(N) scale <= c(0) rho^N
    split = numeric_core._binary_split
    depth = [0]
    top_ranges = []

    def recording_split(a, b, p, q, c):
        if not depth[0]:
            top_ranges.append((a, b))
        depth[0] += 1
        try:
            return split(a, b, p, q, c)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numeric_core, "_binary_split", recording_split)
    scale = 10**1000
    numeric_core._pi_fixed(scale)
    least = [
        next(n for n in range(1, 1000) if 4 * c(n) * scale <= c(0) * rho**n)
        for c, rho in ((numeric_core._chudnovsky_c, 151931373056000),
                       (numeric_core._ramanujan_c, 96059601))
    ]
    assert top_ranges == [(1, n) for n in least]
    # about 14.2 and 8 digits per term
    assert least == [71, 126]
