"""Count the code lines of Python files: lines that hold a token other
than a comment, and that are not part of a docstring (the string that
opens a module, class or function body).  Blank lines count for
nothing.

Usage: ``python tests/code_lines.py [PATH ...]``, where each path is a
file or a directory whose ``*.py`` files are counted; the default is
``src/l1opt``.  It prints one line per file and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths) -> int:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/l1opt"])
