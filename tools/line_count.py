"""Print the lines and code lines of each ``src/massclock/*.py`` file and in total.

Usage, from the repository root::

    python3 tools/line_count.py [--src DIR]

A code line is a line holding a token that is not a comment, a docstring
(the leading string of a module, class or function) or a layout token
(newline, indent, dedent).  So blank lines, comment lines and docstring
lines are not code lines; a line of code with a trailing comment is one,
and so is every line a multi-line string or bracket spans.  Each output
line reads ``<lines> <code lines> <file>``, the last one ``total``.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "massclock"

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING, tokenize.COMMENT}


def _docstring_lines(source: str) -> set:
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """``(lines, code lines)`` of the Python ``source``."""
    docstrings = _docstring_lines(source)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory of the *.py files (default: src/massclock)")
    args = parser.parse_args(argv)
    total = [0, 0]
    for path in sorted(args.src.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d} {path.name}")
    print(f"{total[0]:6d} {total[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
