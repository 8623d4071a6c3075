"""Count the lines of each module of a package, in all and as code.

    python3 tools/loc.py [DIR]

DIR defaults to ``src/perccode``.  One line per ``*.py`` module, then one for
their sum: the name, the total lines and the code lines.  A code line is not
blank, not a ``#`` comment line, and not inside a module, class or function
docstring, so deleting a comment or a docstring does not shrink the count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The total and code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = source.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "perccode"
    totals = [0, 0]
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals = [totals[0] + lines, totals[1] + code]
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
