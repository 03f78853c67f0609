"""Planted faults: each row breaks one certified bound in a copy of src/
and names the tests that must then fail.

A row is (file under src/, exact snippet, replacement, test ids, reason).
``run_row`` copies ``src/`` to a temporary directory, requires the snippet
to occur exactly once in its file, so that a moved or reworded line fails
loudly instead of passing, puts the replacement in its place and runs the
named tests in one ``python -m pytest`` child with PYTHONPATH on the copy.
Rows run one at a time, never in parallel. Each child must end with
pytest's "tests failed" status: a bound whose fault no test sees is not
tested, and a mistyped test id is a usage error, not a failure. The
rows in ``EXPECTED_TO_SURVIVE`` are the exception: faults that no
output can show, each with the reason, whose tests must then pass.

A change to a bound updates its row in the same change; removing a row,
or marking one as expected to survive, is a change to a check.

    python tests/planted_faults.py    # run every row, with its wall time
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NUMERIC = "zetaeven/numeric_core.py"
VERIFIER = "zetaeven/series_verifier.py"
RECURRENCE = "zetaeven/zeta_recurrence.py"
BALLS = "tests/test_numeric_core.py::TestBalls::"
EXPANSION = "tests/test_series_verifier.py::TestExpansionIdentity::"
PI = "tests/test_numeric_core.py::TestComputePi::"
PI_STRADDLE = PI + "test_a_ball_that_straddles_a_tie_is_retried"
CROSS_CHECK = "tests/test_zeta_recurrence.py::TestCrossCheck::"
CERTIFIED = "tests/test_zeta_recurrence.py::TestCertifiedDecimal::"

ROWS = (
    (
        VERIFIER,
        "    return _ball_quotient(value, radius, 2)",
        "    return value // 2, 0",
        (BALLS + "test_ln_ball_holds_mpmaths_ln",),
        "the ln ball without its radius",
    ),
    (
        VERIFIER,
        "    r2_low = ln_low * ln_low + pi_low * pi_low",
        "    r2_low = ln_up * ln_up + pi_low * pi_low",
        (EXPANSION + "test_envelope_holds_for_any_ball_of_ln_u",),
        "the tail envelope's R taken from the upper end of the ln ball",
    ),
    (
        VERIFIER,
        "    wallis_up = Fraction(math.isqrt(_ceil_div(x.numerator * t * t, x.denominator)) + 1, t)",
        "    wallis_up = Fraction(math.isqrt(_ceil_div(x.numerator * t * t, x.denominator)), t)",
        ("tests/test_series_verifier.py::TestPoleConstant::test_exact_inputs_give_an_upper_bound",),
        "the pole constant's upper square root not bumped past isqrt",
    ),
    (
        NUMERIC,
        "    return x // n, -(-ex // n) + 1",
        "    return x // n, -(-ex // n)",
        (BALLS + "test_ball_quotient_holds_every_quotient_of_the_ball",),
        "the floor of each c_j phi step (a _ball_quotient by 2 (2j)!) without its ulp",
    ),
    (
        VERIFIER,
        "    balls = [(target - total, radius + target_radius) for total, radius, _ in sums]",
        "    balls = [(target - total, radius) for total, radius, _ in sums]",
        ("tests/test_series_verifier.py::TestToleranceSums::test_composite_tolerances_are_exact_sums",),
        "the abel target without its ball radius",
    ),
    (
        NUMERIC,
        "    return x * y >> bits, -(-(x * ey + y * ex + ex * ey) >> bits) + 1",
        "    return x * y >> bits, -(-(x * ey + y * ex + ex * ey) >> bits)",
        (BALLS + "test_ball_product_holds_every_product_of_the_balls",),
        "_ball_product without its +1",
    ),
    (
        NUMERIC,
        "    return q + (2 * r + q % 2 > unit)",
        "    return q + (2 * r > unit)",
        ("tests/test_numeric_core.py::TestRoundHalfEven",),
        "Ziv's test rounding a tie down whatever the parity of the quotient",
    ),
    (
        NUMERIC,
        "        if _rounds_alike(value, radius, digits):",
        "        if _rounds_alike(value, 0, digits):",
        (
            PI_STRADDLE,
            "tests/test_zeta_recurrence.py::TestCertifiedDecimal"
            "::test_undecided_rounding_retries_with_more_guard",
        ),
        "Ziv's loop rounding the midpoint without the ball's radius",
    ),
    (
        NUMERIC,
        "        return _agreed_pi(10 ** (digits - 1 + guard))[0], _PI_RADIUS, digits - 1 + guard",
        "        return _agreed_pi(10 ** (digits - 1 + guard))[0], 0, digits - 1 + guard",
        (PI_STRADDLE,),
        "compute_pi's ball without pi's radius",
    ),
    (
        NUMERIC,
        "    if abs(chudnovsky - ramanujan) > 2 * _PI_RADIUS:",
        "    if abs(chudnovsky - ramanujan) > 2 * _PI_RADIUS + 1:",
        (PI + "test_formulae_that_disagree_raise",),
        "the two pi values allowed one ulp more than twice their radius apart",
    ),
    (
        VERIFIER,
        "        residual = (_rational_decimal(residual, digits + 30, ROUND_UP) if residual",
        "        residual = (_rational_decimal(residual, digits) if residual",
        (
            "tests/test_cli.py::TestVerify"
            "::test_rounding_never_passes_a_limit_residual_past_its_tolerance",
        ),
        "the phi suite's residual rounded half to even to digits digits before its verdict",
    ),
    (
        VERIFIER,
        "        if a * q * factorial != abs(p) * b << 2 * k - 1:",
        "        if a * q * factorial != abs(p) * b << 2 * k:",
        (
            CROSS_CHECK + "test_passes_and_records_depth",
            CROSS_CHECK + "test_mismatch_names_its_index",
            CROSS_CHECK + "test_planted_ratio_fault_is_a_mismatch",
        ),
        "the recurrence cross-check's cross-multiplication off by a shift of one",
    ),
    (
        RECURRENCE,
        "    return scaled * v // b >> bits, -(-scaled * e // b >> bits) + 1",
        "    return scaled * v // b >> bits, -(-scaled * e // b >> bits)",
        (CERTIFIED + "test_last_floor_costs_an_ulp", CERTIFIED + "test_ball_contains_the_true_value"),
        "the zeta ball's radius without the ulp of its last floor",
    ),
    (
        VERIFIER,
        "        radius += _ceil_div(r, 1 << shift) + 3",
        "        radius += _ceil_div(r, 1 << shift)",
        (
            "tests/test_series_verifier.py::TestCvzKernel::test_reciprocal_sums_against_mpmath",
            "tests/test_series_loops.py::test_reciprocal_power_sum_against_the_plain_loop",
            "tests/test_series_verifier.py::TestToleranceSums::test_composite_tolerances_are_exact_sums",
        ),
        "the f_k sum's radius without the 3 ulps per level of its shift and squaring",
    ),
)

# The reasons of the rows whose tests must pass, each with why no test fails.
EXPECTED_TO_SURVIVE = {
    "the f_k sum's radius without the 3 ulps per level of its shift and squaring": (
        "the guard bits make one ulp of the caller's scale more than 8 levels + 8 binary "
        "ulps, and the binary radius stays under that with the term (about 4 per level), so "
        "the radius returned is 2 ulps with or without it: no output shows the term, and the "
        "guard bits still cover the error it counts"
    ),
}

# pytest's exit statuses when tests ran and all passed, or some failed
TESTS_PASSED, TESTS_FAILED = 0, 1


def run_row(row) -> subprocess.CompletedProcess:
    """The named tests of one row, run against a copy of src/ with its fault."""
    file, snippet, replacement, tests, reason = row
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / file
        text = path.read_text()
        count = text.count(snippet)
        if count != 1:
            raise AssertionError(f"{reason}: the snippet occurs {count} times in {file}")
        path.write_text(text.replace(snippet, replacement))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            timeout=600,
        )


def survivors() -> list[str]:
    """The reasons of the rows whose tests did not fail. Their tests must
    have passed: any other status (a mistyped test id) raises."""
    found = []
    for row in ROWS:
        status = run_row(row).returncode
        if status != TESTS_FAILED:
            assert status == TESTS_PASSED, f"{row[4]}: pytest exit {status}"
            found.append(row[4])
    return found


if __name__ == "__main__":
    start = time.perf_counter()
    for row in ROWS:
        began = time.perf_counter()
        status = run_row(row).returncode
        if status == TESTS_FAILED:
            verdict = "caught"
        elif status == TESTS_PASSED and row[4] in EXPECTED_TO_SURVIVE:
            verdict = "survived, as expected"
        else:
            verdict = f"NOT caught (pytest exit {status})"
        print(f"{time.perf_counter() - began:6.1f} s  {verdict}: {row[4]}")
    print(f"{time.perf_counter() - start:6.1f} s  for {len(ROWS)} rows")
