"""Count the code lines of each ``src/voxloc`` module.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines do not count either. Prints one ``<lines>
<path>`` row per file, then the total.

Usage, from the repository root: python3 tools/code_lines.py [DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "voxloc"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token outside comments and docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else DEFAULT_DIR
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
