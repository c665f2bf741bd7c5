"""Count the code lines of each ``src/voxloc`` module.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines do not count either. Prints one ``<lines>
<path>`` row per file, then the total. With ``--against BASE``, another
module directory (say, the ``src/voxloc`` of a second checkout), each row
is ``<BASE lines> <DIR lines> <change> <name>`` for every module in
either tree, ``-`` marking a module that one tree lacks, then the totals
in the same columns.

Usage, from the repository root: python3 tools/code_lines.py [DIR] [--against BASE]
"""

from __future__ import annotations

import argparse
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


def module_lines(root: Path) -> dict[str, int]:
    """Code lines of each ``*.py`` module directly in ``root``, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog=Path(argv[0]).name)
    parser.add_argument("dir", nargs="?", type=Path, default=DEFAULT_DIR)
    parser.add_argument("--against", type=Path, metavar="BASE")
    args = parser.parse_args(argv[1:])
    counts = module_lines(args.dir)
    if args.against is None:
        for name, n in counts.items():
            print(f"{n:6d} {name}")
        print(f"{sum(counts.values()):6d} total")
        return 0
    base = module_lines(args.against)
    rows = [(name, base.get(name), counts.get(name)) for name in sorted(base.keys() | counts.keys())]
    rows.append(("total", sum(base.values()), sum(counts.values())))
    for name, before, after in rows:
        cells = ("-" if n is None else str(n) for n in (before, after))
        print(*(f"{c:>6}" for c in cells), f"{(after or 0) - (before or 0):+6d}", name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
