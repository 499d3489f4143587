import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "line_count.py"
_SPEC = importlib.util.spec_from_file_location("line_count", _PATH)
line_count = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_count)

SOURCE = '''"""A module docstring
on two lines."""

import math  # a trailing comment


class Shape:
    """A class docstring."""

    def area(self, r):
        """A function docstring."""
        # a comment line
        label = """a string
        on two lines"""
        return (math.pi *
                r**2)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # code: the import, the class and def lines, the two lines of the
    # assigned string and the two lines of the bracketed return
    assert line_count.count(SOURCE) == (16, 7)


def test_the_total_row_sums_the_file_rows(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert line_count.main(["--src", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["16", "7", "a.py"], ["3", "1", "b.py"], ["19", "8", "total"]]
