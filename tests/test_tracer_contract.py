"""The benchmark tracer still runs the CLI and reads the layers it expects.

``perfbench/tracer.py`` wraps every name in each layer's ``__all__`` and
reads a few fields off the results (``phi_series(...).terms_used`` and
``.error_bound.value``, the report parameters, ``compute_pi``'s
``digits``). These tests run it in a child on three argvs and check that
it exits 0, that stdout is the untraced call's, and that its span summary
counts what the program did. They only read ``perfbench/``.

``zeta_even_decimal`` reads pi through the private ``_pi`` memo, not
through ``compute_pi``, so neither the zeta decimals nor the phi suite's
even-limit targets make a ``compute_pi`` span.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    """tracer.py as a module, executed from its source (writes no bytecode)."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _run(*argv):
    # -B: nothing is written next to the sources, perfbench/ included
    return subprocess.run(
        [sys.executable, "-B", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("verify", "--suite", "phi", "--digits", "24", "--format", "json-lines"),
            {
                "series_verifier.phi_series.calls": 75,
                "series_verifier.phi_series.terms": 7966,
                "reports.reports": 75,
                "reports.failed": 0,
                "numeric_core.compute_pi.calls": 0,
            },
        ),
        (
            ("phi", "--route", "series", "--m", "-3", "--u", "11/10", "--digits", "40"),
            {
                "series_verifier.phi_series.calls": 1,
                "series_verifier.phi_series.terms": 69,
                "reports.reports": 0,
                "numeric_core.compute_pi.calls": 0,
            },
        ),
        (
            ("zeta", "--k", "7", "--digits", "60"),
            {
                "series_verifier.phi_series.calls": 0,
                "reports.reports": 0,
                "numeric_core.compute_pi.calls": 0,
                "numeric_core.compute_pi.digits": 0,
            },
        ),
    ],
    ids=["verify-phi", "phi-series", "zeta-digits"],
)
def test_traced_run_matches_untraced_and_counts_the_layers(tmp_path, argv, expected):
    spans = tmp_path / "spans.json"
    traced = _run(str(TRACER), str(spans), "op-1", *argv)
    assert traced.returncode == 0, traced.stderr
    untraced = _run("-m", "zetaeven", *argv)
    assert untraced.returncode == 0, untraced.stderr
    assert traced.stdout == untraced.stdout

    metrics = _load_tracer().summarize([json.loads(spans.read_text())])
    assert {name: metrics[name] for name in expected} == expected
