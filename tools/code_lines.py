"""Count the code lines of the braidwalks package.

    python3 tools/code_lines.py [package directory]

A code line is a line of a module under src/braidwalks (or the directory
given) that is not blank, not a comment and not inside a docstring (the
leading string of a module, class or function).  Prints one count per
module and the total.  Stdlib only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidwalks"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by the docstrings of the module and of every
    class and function in it."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines holding a token other than a comment or a newline, outside
    docstrings."""
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in (
                tokenize.COMMENT,
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENCODING,
                tokenize.ENDMARKER,
            ):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:20} {n:6}")
    print(f"{'total':20} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
