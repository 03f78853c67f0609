"""Count the code lines of ``src/zetaeven``, module by module.

A code line is a line that holds a token other than a comment, NL,
NEWLINE, INDENT or DEDENT, outside the docstrings of modules, classes
and functions (``tokenize`` for the tokens, ``ast`` for the docstrings).
A token that spans several lines, such as a multi-line string that is not
a docstring, makes each of its lines a code line.

Run it from anywhere, with no options::

    python tools/code_lines.py

It prints one ``count module`` line per module, largest first, then the
total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetaeven"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:5d} {name}")
    print(f"{sum(counts.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
