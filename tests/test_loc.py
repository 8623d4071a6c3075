import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 18 lines: 7 of code, 5 blank, 1 comment line and 5 in docstrings; a string that is
# no docstring is code
SYNTHETIC = '''"""A module docstring
over two lines."""

import math  # a comment after code is code


class Shape:
    """One line."""

    # a comment line
    sides = 4

    def area(self, r):
        """Two
        lines."""
        text = """not a docstring:
    its second line"""
        return math.pi * r * r
'''


def test_counts_a_synthetic_module(tmp_path, capsys):
    assert loc.count(SYNTHETIC) == (18, 7)
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'a.py':<16} {18:>6} {7:>6}",
        f"{'b.py':<16} {3:>6} {1:>6}",
        f"{'total':<16} {21:>6} {8:>6}",
        "",
    ]
