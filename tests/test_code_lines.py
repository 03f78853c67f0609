"""``tools/code_lines.py`` counts code lines by the rule it states."""

import runpy
from pathlib import Path

code_lines = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"))["code_lines"]

SOURCE = '''"""A module docstring,
on two lines."""

import math  # a comment after code counts once


class Table:
    """A class docstring."""

    def read(self):
        """A function docstring."""
        # a comment alone
        text = """a string
that is not a docstring"""
        return (math.pi,
                text)
'''


def test_counts_tokens_outside_docstrings_and_comments():
    # import, class, def, the two lines of the string, return and its
    # continuation: blank lines, comment lines and docstrings count for none
    assert code_lines(SOURCE) == 7
