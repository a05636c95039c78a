"""The repository's own tooling: the code-line counter."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_lines_module():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# 12 code lines: the import, the bare string after it, the def, the four
# lines of the call, the two of the assigned string, the return, the class
# line and the assignment under it
SOURCE = '''"""A module docstring
on two lines."""

import os

"""A string that is not the first statement: code."""


def f(x):
    """A function docstring."""
    # a comment, then a blank line

    y = os.path.join(  # a comment after code
        x,
        "a",
    )
    s = """an assigned string
on two lines"""
    return y, s


class C:
    """A class docstring
    on two lines."""

    z = 1
'''


def test_code_lines_count_a_source_with_every_kind_of_line():
    assert _code_lines_module().code_lines(SOURCE) == 12


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n', encoding="utf-8")
    assert _code_lines_module().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "12", str(tmp_path / "a.py"), "1", str(tmp_path / "b.py"), "13", "total",
    ]
