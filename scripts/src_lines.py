#!/usr/bin/env python3
"""Count each module's code, docstring, comment and blank lines, and the totals.

Every line of a `.py` file gets one kind. A docstring line is any line,
blank ones included, of the string that opens a module, class or function,
as `ast` finds it; of the other lines, a blank one holds only whitespace, a
comment line starts with `#` after its indent, and the rest are code (a
line of code with a trailing comment is code).

    python scripts/src_lines.py              # src/anyctrl
    python scripts/src_lines.py ../parent/src/anyctrl
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that the module's, its classes' and its functions' docstrings span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path: Path) -> dict:
    """The file's number of lines of each kind in KINDS."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        out[kind] += 1
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=str(ROOT / "src" / "anyctrl"),
                        help="directory whose .py files are counted (default: src/anyctrl)")
    package = Path(parser.parse_args(argv).package)
    rows = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS + ("lines",)))
    for name, row in rows.items():
        print(f"{name:<16}" + "".join(f"{row[kind]:>10}" for kind in KINDS)
              + f"{sum(row.values()):>10}")


if __name__ == "__main__":
    main()
