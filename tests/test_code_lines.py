"""The code-line counter in ``tools/code_lines.py`` on a snippet with known counts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line

LIMIT = 3
"""Attribute docstring."""


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring
        over two lines.
        """
        text = """a string
        that is not a docstring"""
        return (side
                * side)
'''


def test_counts_code_and_skips_blank_comment_and_docstring_lines():
    # import, LIMIT, class, def, the two string lines, and the two return lines
    assert code_lines.code_lines(SNIPPET) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "8"], ["b.py", "1"], ["total", "9"]]
