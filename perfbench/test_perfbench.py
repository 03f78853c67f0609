"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import pytest

import run
import tracer
import workloads
from oracles import Checker
from workloads import DECIMAL, EXACT, PROBE, Op

TRACEBACK = 'Traceback (most recent call last):\n  File "x", line 1\nZeroDivisionError: Fraction(1, 0)\n'


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)
    assert workloads.generate(workload, 11)[0] != workloads.generate(workload, 12)[0]


def test_checker_flags_a_tampered_fraction():
    op = Op("t", ("zeta", "--k", "3", "--exact", "--format", "json-lines"), EXACT)
    record = '{"kind": "ratio", "k": 3, "numerator": "1", "denominator": "%d"}\n'
    checker = Checker()
    assert checker.check(op, 0, record % 945, "", False) is None
    assert "differs" in checker.check(op, 0, record % 946, "", False)


def test_checker_flags_a_series_value_outside_its_bound():
    op = Op("t", ("phi", "--route", "series", "--m", "0", "--u", "3", "--digits", "20"), DECIMAL)
    line = "phi_0(3) = %s  (+/- 1.0E-21, 43 terms)\n"
    checker = Checker()
    assert checker.check(op, 0, line % "0.50000000000000000000", "", False) is None
    assert "outside" in checker.check(op, 0, line % "0.50000000000000000010", "", False)


def test_checker_flags_a_traceback_exit():
    answer = Op("t", ("phi", "--m", "1", "--u", "2"), DECIMAL)
    probe = Op("p", ("phi", "--m", "1", "--u", "1/0"), PROBE, "error")
    checker = Checker()
    assert "traceback" in checker.check(answer, 1, "", TRACEBACK, False)
    assert "traceback" in checker.check(probe, 2, "", TRACEBACK, False)
    assert checker.check(probe, 2, "", "error: u must be finite\n", False) is None
    assert checker.check(probe, 0, "", "", False) is not None


def test_checker_flags_a_timeout(tmp_path):
    op = Op("t", ("zeta", "--k", "1", "--exact"), EXACT, budget_s=0.3)
    child = run.run_child(["-c", "import time; time.sleep(30)"], op.budget_s, tmp_path)
    assert child.timed_out and child.wall_s < 10
    reason = Checker().check(op, child.exit_code, child.stdout, child.stderr, child.timed_out)
    assert "budget" in reason


def test_child_is_timed_and_its_output_kept(tmp_path):
    child = run.run_child(["-c", "print('hi')"], 30.0, tmp_path)
    assert (child.exit_code, child.timed_out, child.stdout) == (0, False, "hi\n")
    assert child.wall_s > 0 and child.cpu_s > 0 and child.rss_mb is None


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(64 << 20)  # raises this process's peak RSS past 64 MB
    ballast[::4096] = bytes(len(ballast) // 4096)
    child = run.run_child(["-c", run.RUN_ZETAEVEN, "zeta", "--k", "2", "--exact"], 30.0, tmp_path)
    assert child.exit_code == 0 and child.stdout
    assert 4 < child.rss_mb < 48


def test_self_time_is_duration_minus_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["numeric_core.compute_pi", 1.0, 4.0, 0, {"digits": 50}],
        ["numeric_core.compute_pi", 5.0, 6.0, 0, {"digits": 50}],
    ]
    metrics = tracer.summarize([{"op": "op-1", "spans": spans}])
    assert metrics["cli.self_s"] == pytest.approx(6.0)
    assert metrics["numeric_core.self_s"] == pytest.approx(4.0)
    assert metrics["numeric_core.compute_pi.calls"] == 2
    assert metrics["numeric_core.compute_pi.repeat_share"] == 0.5


def test_slope_of_a_power_law():
    points = [[size, 3e-9 * size**4] for size in (100, 200, 400)]
    assert run._slope(points) == pytest.approx(4.0)



def test_reference_output_is_checked(tmp_path):
    child = run.run_child([str(run.HERE / "reference.py")], 30.0, tmp_path)
    checker = Checker()
    assert child.exit_code == 0 and checker.check_reference(child.stdout) is None
    assert "pi" in checker.check_reference(child.stdout.replace('"pi_tail": "', '"pi_tail": "1'))
