"""Line and code-line counts of the package's and the tests' modules in
two checkouts.

    python -m tests.src_lines OLD_ROOT NEW_ROOT

Each root is a checkout of this repository. Two tables are printed, one
for ``src/spoofnet`` and one for ``tests``: one row for each module of
the directory whose bytes differ between the two, then the totals over
every module of it. Data files such as ``tests/pins.json`` are not
counted. A code line is a line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (of the module, its
classes and its functions) are not counted, so deleting a comment or a
docstring line reduces the line count only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DIRECTORIES = (Path("src") / "spoofnet", Path("tests"))
# tokens that are no code on their own line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines that hold code, docstrings not counted."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def counts(path: Path) -> tuple[int, int]:
    """(lines, code lines) of a module; (0, 0) when it does not exist."""
    if not path.exists():
        return 0, 0
    source = path.read_text(encoding="utf-8")
    return source.count("\n"), code_lines(source)


def rows(old_root: Path, new_root: Path, directory: Path) -> list[str]:
    """The table of one directory: its name, one row per changed module,
    then the totals."""
    names = sorted({p.name for root in (old_root, new_root)
                    for p in (root / directory).glob("*.py")})
    out = [f"{directory.as_posix() + '/':<26} {'lines':>18} {'code lines':>18}"]
    totals = [0, 0, 0, 0]
    for name in names:
        old, new = (root / directory / name for root in (old_root, new_root))
        (old_lines, old_code), (new_lines, new_code) = counts(old), counts(new)
        for i, n in enumerate((old_lines, new_lines, old_code, new_code)):
            totals[i] += n
        unchanged = (old.exists() and new.exists()
                     and old.read_bytes() == new.read_bytes())
        if not unchanged:
            out.append(_row(name, old_lines, new_lines, old_code, new_code))
    out.append(_row("total", *totals))
    return out


def _row(name: str, old_lines: int, new_lines: int, old_code: int, new_code: int) -> str:
    def change(old: int, new: int) -> str:
        return f"{old} -> {new} ({new - old:+d})"

    return (f"{name:<26} {change(old_lines, new_lines):>18} "
            f"{change(old_code, new_code):>18}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: python -m tests.src_lines OLD_ROOT NEW_ROOT")
    print("\n\n".join("\n".join(rows(Path(sys.argv[1]), Path(sys.argv[2]), directory))
                      for directory in DIRECTORIES))
