"""Golden output of the CLI: every listed argv gives the recorded bytes.

Every command except ``bench`` is deterministic, so its stdout, its
stderr (the full-precision JSON line of every failed report) and its
exit status are pinned here, in ``cli_golden.json``. A change that
alters what the CLI prints shows up as a diff of that file.

    python tests/test_cli_golden.py --write   # regenerate the file
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_golden.json")

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.write_text(json.dumps([record(argv) for argv in ARGVS], indent=1) + "\n")
