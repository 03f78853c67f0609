"""Each command imports only the package modules it runs.

The package's exports are lazy and every CLI handler imports its own
layer, so a fresh child that runs one command holds a known set of
``zetaeven`` modules afterwards. Each case runs in a fresh ``python -S``
interpreter, so no site hook and no earlier test has imported a module
that the command should have left alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetaeven

SRC = Path(zetaeven.__file__).resolve().parents[1]
LAYERS = ("euler_bernoulli", "numeric_core", "reports", "series_verifier", "zeta_recurrence")


def child(code):
    """stdout of ``code`` run by a fresh ``python -S`` child on this package."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    return result.stdout


def modules_after(argv):
    """The zetaeven modules a child holds after ``cli.main(argv)`` (None:
    after the import alone), and the exit status."""
    code = (
        "import contextlib, io, sys, zetaeven.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = None if {argv!r} is None else zetaeven.cli.main({argv!r})\n"
        "print(status, sorted(m[9:] for m in sys.modules if m.startswith('zetaeven.')))\n"
    )
    status, modules = child(code).strip().split(" ", 1)
    return status, modules


ZETA = ["cli", "numeric_core", "zeta_recurrence"]
BERNOULLI = ["cli", "euler_bernoulli", "numeric_core"]
PHI = ["cli", "numeric_core", "series_verifier"]


@pytest.mark.parametrize(
    "argv, status, modules",
    [
        (None, "None", ["cli"]),
        (["zeta", "--k", "11", "--exact"], "0", ZETA),
        (["zeta", "--k", "5", "--digits", "37"], "0", ZETA),
        (["zeta", "--kmax", "3", "--exact", "--format", "json-lines"], "0",
         ["cli", "numeric_core", "reports", "zeta_recurrence"]),
        (["bench", "--kmax", "2"], "0", ZETA),
        (["bernoulli", "--n", "20"], "0", BERNOULLI),
        (["euler-poly", "--m", "5", "--at", "1/3"], "0", BERNOULLI),
        (["phi", "--m", "-3", "--u", "11/10", "--digits", "20"], "0", PHI),
        (["phi", "--m", "4", "--u", "3/2", "--route", "taylor"], "0", PHI),
        (["--help"], "0", PHI),  # the verify flags list the suite names
        (["verify", "--digits", "10"], "0", ["cli", *LAYERS]),
    ],
    ids=[
        "import", "zeta-exact", "zeta-digits", "zeta-json-lines", "bench", "bernoulli",
        "euler-poly", "phi-series", "phi-taylor", "help", "verify",
    ],
)
def test_each_command_imports_only_its_layers(argv, status, modules):
    assert modules_after(argv) == (status, repr(modules))


def test_dir_lists_the_lazy_exports():
    # dir() is the first access, so it loads the layers itself
    code = (
        "import sys, zetaeven\n"
        "print(sorted(m for m in sys.modules if m.startswith('zetaeven')))\n"
        "print(dir(zetaeven))\n"
    )
    before, names = child(code).splitlines()
    assert before == "['zetaeven']"
    names = eval(names)
    assert names == sorted(names)
    assert {"__all__", "__version__"} <= set(names)
    assert [n for n in names if not n.startswith("_")] == sorted([*LAYERS, *zetaeven.__all__])


def test_star_import_binds_every_export():
    code = (
        "from zetaeven import *\n"
        "print(sorted(name for name in globals() if not name.startswith('_')))\n"
    )
    assert child(code).strip() == repr(sorted(zetaeven.__all__))


def test_unknown_and_private_names_raise_attribute_error():
    code = (
        "import sys, zetaeven\n"
        "print(hasattr(zetaeven, '_export_me'), 'zetaeven.numeric_core' in sys.modules)\n"
        "print(hasattr(zetaeven, 'no_such_name'), len(zetaeven.__all__) > 0)\n"
    )
    # a private name is refused without loading; a public one loads first
    assert child(code).splitlines() == ["False False", "False True"]
