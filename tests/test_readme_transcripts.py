"""Every ``$ zetaeven ...`` transcript in README.md is what the CLI prints.

Each command line in a README code block is run in process
(``test_cli_golden.record``), and the lines shown under it must be its
stdout followed by its stderr. A command that ends with ``; echo $?``
shows its exit status as its last line; any other must exit 0. A
transcript ends at a blank line, at the next command or at the end of
its block, so a deliberate change of output edits the README in the
same diff as ``cli_golden.json``. Every command but ``bench`` starts at
least one transcript, and one transcript shows exit 2.
"""

import shlex
from pathlib import Path

import pytest

from test_cli_golden import record
from zetaeven import cli

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
