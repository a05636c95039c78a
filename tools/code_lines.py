"""Count the code lines of Python sources: lines that hold a token other
than a comment, NL, NEWLINE, INDENT, DEDENT or ENDMARKER, leaving out
docstrings (a string constant that is the first statement of a module,
class or function). A token that spans lines, such as a multi-line string,
holds every line it spans.

    python3 tools/code_lines.py src/kerv [more files or directories]

prints the count of each file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def _sources(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write("usage: code_lines.py <file or directory>...\n")
        return 2
    total = 0
    for path in _sources(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        sys.stdout.write(f"{count:6d} {path}\n")
    sys.stdout.write(f"{total:6d} total\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
