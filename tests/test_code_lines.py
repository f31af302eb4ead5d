"""tools/code_lines.py on a fixed source that holds every case its
docstring names."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# The code lines are 4 (code and a trailing comment), 8, 11, 13, and 18-21:
# one statement over four lines, whose last two hold a string that opens no
# body and so is code.
SOURCE = '''"""A module docstring
over two lines."""

import sys  # a trailing comment


# A comment-only line.
class Box:
    """A class docstring."""

    size = 1

    def total(self, items):
        """A function docstring
        over two lines.
        """
        # Another comment-only line.
        return sum(
            item.size
            for item in items) + len("""a string
that is code""")
'''


def test_only_lines_with_code_outside_docstrings_count():
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    path = tmp_path / "box.py"
    path.write_text(SOURCE)
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == "     8  box.py\n     8  box.py\n    16  total\n"
