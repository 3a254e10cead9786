"""Count the code lines of the package source, per module and in total, and of the tests.

    python tests/code_lines.py

A line counts when it is not blank, not only a comment, and not part of
a docstring (the string that opens a module, class or function body).
Every other line counts, the lines of a multi-line string expression
included. Information only: nothing checks the total against a bound.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rootsums"


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    tests = sum(code_lines(path.read_text(encoding="utf-8")) for path in TESTS.glob("*.py"))
    print(f"{'tests/*.py':<16}{tests:>6}")


if __name__ == "__main__":
    main()
