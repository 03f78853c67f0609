"""Golden output of the CLI: every listed argv gives the recorded bytes.

Every command except ``bench`` is deterministic, so its stdout, its
stderr (the full-precision JSON line of every failed report) and its
exit status are pinned here, in ``cli_golden.json``. A change that
alters what the CLI prints shows up as a diff of that file.

The same argvs, run once more in one child process under
``sys.setprofile``, show which functions of ``src/zetaeven`` the CLI
never calls; those must be exactly the ones ``UNREACHED`` lists, each
with the reason it stays.

    python tests/test_cli_golden.py --write   # regenerate the file
"""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

_PHI_US = ("1001/1000", "11/10", "3/2", "7")

ARGVS = (
    ("verify", "--suite", "all"),
    ("verify", "--suite", "all", "--format", "json-lines"),
    ("verify", "--suite", "all", "--format", "csv"),
    ("verify", "--suite", "phi", "--digits", "10"),
    ("verify", "--suite", "phi", "--digits", "80"),
    ("verify", "--suite", "expansion", "--jmax", "40", "--digits", "30"),
    ("verify", "--suite", "abel", "--digits", "32"),
    ("verify", "--suite", "abel", "--digits", "30", "--format", "json-lines"),
    ("verify", "--suite", "phi", "--digits", "24", "--format", "json-lines"),
    ("verify", "--suite", "recurrence", "--kmax", "110"),
    ("verify", "--digits", "20", "--tolerance", "1e-40"),
    ("verify", "--suite", "expansion", "--jmax", "6", "--digits", "15", "--tolerance", "1e-40",
     "--format", "csv"),
    ("zeta", "--kmax", "12", "--digits", "40"),
    ("zeta", "--k", "7", "--digits", "200", "--format", "json-lines"),
    ("zeta", "--kmax", "8", "--digits", "1500", "--format", "json-lines"),
    ("zeta", "--kmax", "3", "--digits", "5000"),
    ("zeta", "--kmax", "30", "--exact"),
    ("zeta", "--k", "55", "--exact", "--format", "csv"),
    ("bernoulli", "--n", "60"),
    ("bernoulli", "--n", "1", "--format", "json-lines"),
    ("euler-poly", "--m", "9"),
    ("euler-poly", "--m", "12", "--format", "json-lines"),
    ("euler-poly", "--m", "9", "--at", "-3/2"),
    ("euler-poly", "--m", "5", "--at", "1/3", "--format", "csv"),
    ("phi", "--route", "taylor", "--m", "7", "--u", "3/2"),
    ("phi", "--route", "taylor", "--m", "20", "--u", "5/2", "--format", "json-lines"),
    *(
        ("phi", "--m", str(m), "--u", u, "--digits", digits)
        for m in range(-7, 8)
        for u in _PHI_US
        for digits in ("10", "50")
    ),
    # usage errors and refused inputs: exit 2 with one stderr line
    (),
    ("zeta", "--x", "1"),
    ("bernoulli",),
    ("zeta", "--k", "1", "--exact", "--digits", "20"),
    ("zeta", "--kmax", "0"),
    ("phi", "--m", "1", "--u", "1/0"),
    ("verify", "--suite", "phi", "--tolerance", "nan"),
    ("bernoulli", "--n", "-1"),
    ("verify", "--suite", "recurrence", "--kmax", "0"),
    ("phi", "--m", "1", "--u", "3", "--digits", "200000"),
    # answers again, exit 0 or 1
    ("zeta", "--k", "2", "--exact", "--format", "json-lines"),
    ("bernoulli", "--n", "3"),
    # an exact tie, -1268610513/262144, printed half to even
    ("phi", "--m", "14", "--u", "3", "--digits", "21"),
    # a tolerance past the default decimal context's exponents
    ("verify", "--suite", "expansion", "--jmax", "3", "--digits", "10", "--tolerance", "1e1000000"),
    # 3.5e-53 short of the m = 2, u = 101/100 limit residual: that report
    # fails, exit 1
    ("verify", "--suite", "phi", "--tolerance",
     "0.013744665108539231234230327519141204455169213569049", "--format", "json-lines"),
    # the verifier's integer bounds past the sizes above
    ("verify", "--suite", "abel", "--digits", "80", "--format", "json-lines"),
    ("verify", "--suite", "expansion", "--jmax", "200", "--digits", "80", "--format", "json-lines"),
    ("verify", "--suite", "recurrence", "--kmax", "300", "--format", "json-lines"),
    # a divisor (k+1)^2000000 past every scaled weight: 29 terms, no power built
    ("phi", "--m", "-2000000", "--u", "3", "--digits", "10"),
)


def record(argv):
    """Exit status, stdout and stderr of ``cli.main(argv)``, run in this process."""
    from zetaeven import cli  # after __main__ has put src on the path

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    # one list entry per line, so a changed line diffs as one line
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def test_stdout_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == [list(argv) for argv in ARGVS]
    for entry in golden:
        assert record(entry["argv"]) == entry, " ".join(entry["argv"])


# The two commands whose output the golden file does not pin (bench
# times itself; --help lists every flag), run only for reachability.
UNPINNED_ARGVS = (("--help",), ("bench", "--kmax", "3"))

# Functions of src/zetaeven that no argv above calls, as module.qualname,
# each with the reason it stays.
UNREACHED = {
    "__init__.__dir__": "library API: dir(zetaeven) binds the lazy exports",
    "euler_bernoulli.BernoulliTable.max_index": "library API: the table's size",
    # kept on purpose: TestReports::test_is_an_immutable_value in
    # test_series_verifier.py relies on all three
    "numeric_core.FrozenRecord.__eq__": "library API: records compare field-wise, a report read back equals its original",
    "numeric_core.FrozenRecord.__repr__": "library API: records print their fields",
    "numeric_core.FrozenRecord.__setattr__": "library API: records refuse assignment, so passed cannot contradict its numbers",
    "numeric_core.HighPrecisionReal.__repr__": "library API: a value prints its digits",
    "numeric_core.compute_pi": "library API: pi to any digits; perfbench/sweep.py times it (pi_slope)",
    "numeric_core.compute_pi.<locals>.ball": "compute_pi's ball maker: library API, timed by perfbench/sweep.py",
    "powerseries.exp_series": "the tracer's pin: perfbench/tracer.py wraps powerseries",
    "powerseries.scaled_exp_series": "the tracer's pin: perfbench/tracer.py wraps powerseries",
    "powerseries.series_div": "the tracer's pin: perfbench/tracer.py wraps powerseries",
    "powerseries.series_mul": "the tracer's pin: perfbench/tracer.py wraps powerseries",
    "powerseries.series_recip": "the tracer's pin: perfbench/tracer.py wraps powerseries",
    "reports.VerificationReport.from_line": "library API: a report line read back",
    "series_verifier.direct_zeta_partial": "acceptance criterion 7: the integral-test brackets",
    "zeta_recurrence.ZetaEvenTable.max_k": "the tracer's pin: perfbench/tracer.py reads it",
}

# Runs every argv under a profile hook, the package's imports included,
# and prints the (file, first line, name) of each Python function called.
_PROFILE = """
import json, sys
from test_cli_golden import ARGVS, UNPINNED_ARGVS, record
called = set()
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(hook)
for argv in ARGVS + UNPINNED_ARGVS:
    record(argv)
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def _functions():
    """{(file, first line, name): module.qualname} of every def in src/zetaeven;
    a decorated function's code starts at its first decorator."""
    functions = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                functions[(file, first, child.name)] = prefix + child.name
                walk(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")

    for path in sorted((SRC / "zetaeven").glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), f"{path.stem}.")
    return functions


def test_unreached_functions_are_the_listed_ones():
    child = subprocess.run(
        [sys.executable, "-B", "-c", _PROFILE],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent,
        env={**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{Path(__file__).parent}"},
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    called = {tuple(key) for key in json.loads(child.stdout)}
    functions = _functions()
    unreached = {name for key, name in functions.items() if key not in called}
    assert sorted(unreached - set(UNREACHED)) == [], "newly unreached: remove or list them"
    assert sorted(set(UNREACHED) - unreached) == [], "listed but reached, or gone"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.write_text(json.dumps([record(argv) for argv in ARGVS], indent=1) + "\n")
