"""``tools/code_lines.py``: the code-line count the ROADMAP's size figures
use."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"

# 7 code lines: the import, the two lines of the signature, the two of the
# return expression and the two of the string assigned to x
SAMPLE = '''"""A module docstring,
over two lines."""

# a comment
import os  # and a trailing one


def f(a,
      b):
    """A function docstring."""

    return (a +
            b)


x = """not a docstring:
a string assigned"""
'''


def test_counts_code_lines_alone(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "two.py").write_text("a = 1\n\nb = 2\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    counts = [line.split() for line in out.splitlines()]
    assert counts == [["7", str(tmp_path / "sample.py")],
                      ["2", str(tmp_path / "sub" / "two.py")],
                      ["9", "total"]]
