"""Count the lines of the epl package: total = code + docstring + blank or comment.

Docstrings are the module, class and function docstrings that ``ast``
finds, each counted over its whole line span.  Every other line is blank
or a comment when it is empty or starts with ``#`` once stripped, and code
otherwise.  Run it from the repository root:

    python tests/src_lines.py [package directory, default src/epl]

pytest does not collect it: the file name does not match ``test_*.py``.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers (1-based) spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(package: Path) -> dict:
    """{"total", "code", "docstring", "blank_or_comment"} summed over package's .py files."""
    totals = dict.fromkeys(("total", "code", "docstring", "blank_or_comment"), 0)
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        docs = docstring_lines(ast.parse(text))
        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            kind = ("docstring" if number in docs
                    else "blank_or_comment" if not stripped or stripped.startswith("#")
                    else "code")
            totals[kind] += 1
            totals["total"] += 1
    return totals


def main(argv) -> None:
    package = Path(argv[1] if len(argv) > 1 else "src/epl")
    c = count(package)
    print(f"{package}: {c['total']} lines = {c['code']} code + {c['docstring']} docstring"
          f" + {c['blank_or_comment']} blank or comment")


if __name__ == "__main__":
    main(sys.argv)
