"""Every ``$ zetaeven ...`` transcript in README.md is what the CLI prints.

Each command line in a README code block is run in process
(``test_cli_golden.record``), and the lines shown under it must be its
stdout followed by its stderr. A command that ends with ``; echo $?``
shows its exit status as its last line; any other must exit 0. A
transcript ends at a blank line, at the next command or at the end of
its block, so a deliberate change of output edits the README in the
same diff as ``cli_golden.json``. Every command but ``bench`` starts at
least one transcript, and one transcript shows exit 2.

The ``python`` example under "## Library" runs too, and each value its
comments state must be what it computes.
"""

import shlex
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from test_cli_golden import record
from zetaeven import cli
from zetaeven.zeta_recurrence import zeta_even_decimal

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ zetaeven "
ECHO_STATUS = " ; echo $?"


def transcripts():
    """(command line, shown lines) of every README transcript, in order."""
    found = []
    in_block = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, shown = not in_block, None
        elif not in_block:
            continue
        elif line.startswith(PROMPT):
            shown = []
            found.append((line[len("$ "):], shown))
        elif not line:
            shown = None
        elif shown is not None:
            shown.append(line)
    return found


TRANSCRIPTS = transcripts()


def test_the_readme_shows_thirteen_transcripts():
    # a transcript the parser lost would otherwise go unchecked
    assert len(TRANSCRIPTS) == 13


def test_every_command_has_a_transcript_and_one_shows_exit_2():
    # bench prints timings, so no transcript can show its output
    started = {shlex.split(command)[1] for command, _ in TRANSCRIPTS}
    assert sorted(set(cli.COMMANDS) - {"bench"} - started) == []
    statuses = [shown[-1] for command, shown in TRANSCRIPTS if command.endswith(ECHO_STATUS)]
    assert "2" in statuses


@pytest.mark.parametrize("command, shown", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript_matches_the_cli(command, shown):
    status = 0
    if command.endswith(ECHO_STATUS):
        command = command[: -len(ECHO_STATUS)]
        *shown, status = shown
        status = int(status)
    result = record(shlex.split(command)[1:])
    printed = "\n".join(result["stdout"]) + "\n".join(result["stderr"])
    assert (printed.splitlines(), result["exit"]) == (shown, status)


def library_example():
    """The python block under "## Library", and the comment on each of its
    code lines; a line holding only a comment continues the one above."""
    text = README.read_text()
    block = text[text.index("\n## Library\n"):].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            last = code.strip()
            comments[last] = comment.strip()
        elif comment:
            comments[last] += " " + comment.strip()
    return block, comments


def test_library_example_computes_what_its_comments_state():
    block, comments = library_example()
    names = {}
    exec(block, names)
    # (code line, the value its comment states, as Python)
    for code, stated in (
        ("table.ratio(5)", "Fraction(1, 93555)"),
        ("zeta_even_decimal(1, 50)", "'1.6449340668482264364724151666460251892189499012068'"),
        ("bernoulli(12)", "Fraction(-691, 2730)"),
        ("euler_polynomial_eval(euler_polynomial(4), Fraction(1))", "0"),
        ("report.passed", "True"),
        ("SUITES", "('recurrence', 'expansion', 'abel', 'phi')"),
    ):
        assert comments[code].startswith(stated), code
        assert eval(code, names) == eval(stated, names), code
    assert comments["zeta_even_via_euler(5)"].startswith("same fraction")
    assert eval("zeta_even_via_euler(5)", names) == Fraction(1, 93555)
    stated = "[2/3, 4/9, 4/27, -4/27]"
    assert comments["phi_coefficients(Fraction(2), 3)"].endswith(stated)
    phi = eval("phi_coefficients(Fraction(2), 3)", names)
    assert phi == [Fraction(c) for c in stated[1:-1].split(", ")]
    # the bracket, against zeta(2) to 60 digits
    bracket = "value.value < zeta(2) < value.value + high.value"
    assert comments["value, high = direct_zeta_partial(1, 1000)"].endswith(f"{bracket}, exactly")
    assert eval(bracket, names, {"zeta": lambda s: Decimal(zeta_even_decimal(s // 2, 60))})
