"""Benchmark of the zetaeven command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's operations come from
``workloads.generate(NAME, N)``; each is one fresh ``python -m zetaeven``
child, run in a closed loop with one child at a time. A pass runs every
operation once, and passes repeat until S seconds have gone (two at
least, so that every output is seen twice). Each child is timed by the
wall clock around its spawn and reap, by its own user+sys time from
``os.wait4`` and by the peak RSS it reports at exit (see RUN_ZETAEVEN).
Outputs are checked against the oracles in ``oracles.py`` between
children, outside any timed interval.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the wall
time of one pass, its CPU time and its time per class of operation (exact,
verify, decimal), each summed over the operations from each one's median
time over the passes; the median of the fresh imports of ``zetaeven.cli``
timed before each pass (setup_s); the largest child RSS; and the share of
operations, edge probes included, that got a right outcome. Times are
scaled to a nominal machine speed by the median time of ``reference.py``,
a fixed task timed among the operations.

``--trace 1`` alternates untraced passes with passes in which every child
runs under ``tracer.py``, then runs the layer sweep in ``sweep.py``, and
prints the per-layer metrics: medians over traced passes of each layer's
calls, self time and counts, the fitted log-log slopes, and
trace_overhead_share, the extra wall time of a traced pass over an
untraced one, as a share of the untraced.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. ``attempted`` and ``failed`` count the
workload's operations; edge probes are reported beside them and fail on
the seed program by design. Exits 2, printing no result, when the package
sources or mpmath are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import CLASSES, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PER_PASS = 2
# reference.py runs before the first operation of an untraced pass and again
# after each REFERENCE_GAP_S of operation time, so that its times sample the
# machine's speed over the same stretches as the operations' times.
REFERENCE_GAP_S = 0.6
# Median time of reference.py on the nominal machine the reported seconds
# refer to; a 2-vCPU cloud VM with Python 3.11 takes 0.20-0.24 s.
REFERENCE_S = 0.22
SWEEP_BUDGET_S = 100.0
HWM_ENV = "PERFBENCH_HWM"

# What an untraced operation runs: ``python -m zetaeven ARGS``, which then,
# at exit, writes its own peak RSS (VmHWM, in kB) to the file named by
# $PERFBENCH_HWM. The ru_maxrss of wait4 cannot serve: a spawned child keeps
# its parent's peak RSS through exec, and this parent, with mpmath and the
# oracles' caches, is larger than the program.
RUN_ZETAEVEN = """\
import atexit, os, runpy


def write_hwm():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(kb)


atexit.register(write_hwm)
runpy.run_module("zetaeven", run_name="__main__", alter_sys=True)
"""


@dataclass
class Child:
    exit_code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    rss_mb: float | None  # None unless the child ran RUN_ZETAEVEN
    stdout: str
    stderr: str


def run_child(argv: list[str], budget_s: float, workdir: Path) -> Child:
    """Run one child to completion or kill it at ``budget_s``; always reaps it."""
    out, err, hwm = workdir / "stdout", workdir / "stderr", workdir / "hwm"
    hwm.unlink(missing_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    # The caller's PYTHON* settings (PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED,
    # ...) would change how every child starts; children run without them.
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env[HWM_ENV] = str(hwm)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], budget_s)
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            os.close(pidfd)
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return Child(
        exit_code=os.waitstatus_to_exitcode(status),
        timed_out=not ready,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=int(hwm.read_text()) / 1024 if hwm.exists() else None,
        stdout=out.read_text(errors="replace"),
        stderr=err.read_text(errors="replace"),
    )


@dataclass
class OpRecord:
    op: Op
    first: tuple[int, str] | None = None  # exit code and stdout of the first run
    failure: dict | None = None


class Runner:
    """Runs operations, checks each outcome and records the first failure."""

    def __init__(self, workdir: Path, checker) -> None:
        self.workdir = workdir
        self.checker = checker

    def attempt(self, record: OpRecord, traced_pass: int | None = None) -> Child | None:
        op = record.op
        if traced_pass is None:
            argv = ["-c", RUN_ZETAEVEN, *op.argv]
        else:
            spans = self.workdir / f"spans-{traced_pass}-{op.id}.json"
            argv = [str(HERE / "tracer.py"), str(spans), op.id, *op.argv]
        child = run_child(argv, op.budget_s, self.workdir)
        if record.first is None or child.timed_out:
            reason = self.checker.check(op, child.exit_code, child.stdout, child.stderr, child.timed_out)
            record.first = (child.exit_code, child.stdout)
        elif (child.exit_code, child.stdout) != record.first:
            reason = "exit code or stdout differs from the first run"
            if traced_pass is not None:
                reason += " when traced"
        else:
            reason = None
        if reason is not None:
            record.failure = {
                "op": op.id,
                "argv": list(op.argv),
                "exit": None if child.timed_out else child.exit_code,
                "reason": reason,
                "stderr_tail": child.stderr.strip().splitlines()[-1:] if child.stderr.strip() else [],
            }
            return None
        return child


def _slope(points: list[list[float]]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure_setup(workdir: Path, count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters importing zetaeven.cli."""
    samples = []
    for _ in range(count):
        child = run_child(["-c", "import zetaeven.cli"], 30.0, workdir)
        if child.exit_code != 0:
            raise RuntimeError(f"import zetaeven.cli failed: {child.stderr.strip()[-300:]}")
        samples.append(child.wall_s)
    return samples


def measure_reference(workdir: Path, checker) -> float:
    """Wall time of one run of reference.py, its output checked."""
    child = run_child([str(HERE / "reference.py")], 30.0, workdir)
    reason = f"exit {child.exit_code}" if child.exit_code else checker.check_reference(child.stdout)
    if reason is not None:
        raise RuntimeError(f"reference.py failed: {reason} {child.stderr.strip()[-300:]}")
    return child.wall_s


def run_passes(records: list[OpRecord], runner: Runner, seconds: float, traced: bool):
    """Untraced passes for ``seconds``, each followed by a traced pass if
    ``traced`` and otherwise preceded by SETUP_PER_PASS timed imports and
    interleaved with timed runs of reference.py (see REFERENCE_GAP_S).

    Returns one list of (record, child) per untraced pass, one list of
    (record, child, span document) per traced pass, the import times and
    the reference times.
    """
    untraced: list[list[tuple[OpRecord, Child]]] = []
    traced_passes: list[list[tuple[OpRecord, Child, dict]]] = []
    setup: list[float] = []
    reference: list[float] = []
    if not traced:
        measure_setup(runner.workdir, 1)  # warm-up: writes the bytecode caches
    start = time.perf_counter()
    while len(untraced) < 2 or time.perf_counter() - start < seconds:
        if not traced:
            setup += measure_setup(runner.workdir, SETUP_PER_PASS)
        results = []
        since_reference = REFERENCE_GAP_S
        for record in records:
            if not traced and since_reference >= REFERENCE_GAP_S:
                reference.append(measure_reference(runner.workdir, runner.checker))
                since_reference = 0.0
            if record.failure is None and (child := runner.attempt(record)):
                results.append((record, child))
                since_reference += child.wall_s
        untraced.append(results)
        if traced:
            index = len(traced_passes)
            results = []
            for record in records:
                if record.failure is None and (child := runner.attempt(record, index)):
                    spans = runner.workdir / f"spans-{index}-{record.op.id}.json"
                    results.append((record, child, json.loads(spans.read_text())))
                    spans.unlink()
            traced_passes.append(results)
    return untraced, traced_passes, setup, reference


def _median_by_op(passes, answered, value) -> dict[int, float]:
    """Each answered op's median ``value(child)`` over the passes."""
    keep = {id(r) for r in answered}
    by_op: dict[int, list[float]] = {}
    for results in passes:
        for record, child, *_ in results:
            if id(record) in keep:
                by_op.setdefault(id(record), []).append(value(child))
    return {key: statistics.median(values) for key, values in by_op.items()}


def end_to_end(records, untraced, setup, reference, probes_failed, probe_count) -> dict[str, float]:
    """End-to-end metrics of one run, in seconds at reference speed.

    The time of a pass is the sum over answered ops of each op's median time
    over the passes, and setup_s the median of the timed imports. Every time
    is then scaled by REFERENCE_S over the median time of reference.py in the
    same run, so it reads in seconds on a machine where the reference takes
    REFERENCE_S. A shared host runs everything up to 1.7x slower for seconds
    to minutes at a time; the reference, timed among the operations, slows
    with them, so the scaling cancels the host's speed and leaves every
    change of the program in the figures.
    """
    answered = [r for r in records if r.failure is None]
    wall = _median_by_op(untraced, answered, lambda c: c.wall_s)
    scale = REFERENCE_S / statistics.median(reference)
    metrics = {
        "wall_s": sum(wall.values()) * scale,
        "cpu_s": sum(_median_by_op(untraced, answered, lambda c: c.cpu_s).values()) * scale,
        "peak_rss_mb": max(
            (c.rss_mb for results in untraced for r, c in results if r.failure is None),
            default=0.0,
        ),
        "setup_s": statistics.median(setup) * scale,
        "answered_share": (len(answered) + probe_count - probes_failed) / (len(records) + probe_count),
    }
    for cls in CLASSES:
        metrics[cls + "_s"] = sum(wall.get(id(r), 0.0) for r in answered if r.op.cls == cls) * scale
    return metrics


def per_layer(records, untraced, traced_passes, sweep_points) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, sweep slopes, tracing cost."""
    import tracer

    per_pass = [tracer.summarize([doc for _, _, doc in results]) for results in traced_passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    answered = [r for r in records if r.failure is None]
    plain = sum(_median_by_op(untraced, answered, lambda c: c.wall_s).values())
    traced = sum(_median_by_op(traced_passes, answered, lambda c: c.wall_s).values())
    metrics["trace_overhead_share"] = (traced - plain) / plain
    for name, points in sweep_points.items():
        metrics[name] = _slope(points)
    return metrics


def run_sweep(workdir: Path) -> dict:
    child = run_child([str(HERE / "sweep.py")], SWEEP_BUDGET_S, workdir)
    if child.timed_out or child.exit_code != 0:
        raise RuntimeError(f"layer sweep failed: {child.stderr.strip()[-300:]}")
    return json.loads(child.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zetaeven" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a zetaeven checkout; {SRC / 'zetaeven'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    try:
        import oracles
    except ImportError as exc:
        print(f"error: the output oracles need mpmath ({exc})", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
    print("context " + json.dumps(context))

    ops, probes = workloads.generate(args.workload, args.seed)
    records = [OpRecord(op) for op in ops]
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        runner = Runner(workdir, oracles.Checker())
        untraced, traced_passes, setup, reference = run_passes(records, runner, args.seconds, bool(args.trace))
        probe_records = [OpRecord(op) for op in probes]
        for record in probe_records:
            runner.attempt(record)
        sweep_points = run_sweep(workdir) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    probes_failed = sum(r.failure is not None for r in probe_records)
    if args.trace:
        values = per_layer(records, untraced, traced_passes, sweep_points)
    else:
        values = end_to_end(records, untraced, setup, reference, probes_failed, len(probes))
    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name:<48} {values[name]:<14.6g} {unit}")
    failed = [r for r in records if r.failure is not None]
    print(f"samples: {len(untraced)} untraced passes, {len(traced_passes)} traced passes, "
          f"{len(setup)} setup imports, {len(reference)} reference runs")
    if reference:
        print(f"reference median {statistics.median(reference):.6f} s; times scaled by "
              f"{REFERENCE_S / statistics.median(reference):.6f} (setup median "
              f"{statistics.median(setup):.6f} s as measured)")
    print(f"ops attempted {len(records)} failed {len(failed)}; "
          f"probes attempted {len(probes)} failed {probes_failed}")
    for record in (*failed, *probe_records):
        if record.failure is not None:
            print("failure " + json.dumps(record.failure))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
