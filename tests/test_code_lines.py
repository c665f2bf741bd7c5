"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
def f(x):
    """Function docstring."""
    s = """a string that is not a docstring
    spans two code lines"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_lines_with_code_tokens_outside_docstrings():
    # import, def, the two lines of s, the two lines of the return, class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     8 a.py", "     1 b.py", "     9 total", ""]


def test_against_prints_both_trees_and_the_change(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    (base / "gone.py").write_text("x = 1\ny = 2\n")
    (new / "added.py").write_text("z = 3\n")
    (base / "kept.py").write_text(SOURCE)
    (new / "kept.py").write_text(SOURCE + "z = 1\n")
    assert code_lines.main(["code_lines.py", str(new), "--against", str(base)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     -      1     +1 added.py",
        "     2      -     -2 gone.py",
        "     8      9     +1 kept.py",
        "    10     10     +0 total",
        "",
    ]
