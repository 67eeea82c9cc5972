"""``tools/src_lines.py``: code lines of a module, without docstrings, comments
or blank lines, run as a script on a fixture of known count."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# 9 code lines: those marked "# code", and the second line of the bracketed
# call; the multi-line string counts both its lines. Everything else is a
# docstring, a comment or blank.
FIXTURE = '''"""Module docstring,
on two lines."""

import math  # code


# A comment line.
class Box:  # code
    """Class docstring."""

    side = 2.0  # code

    def area(self):  # code
        """Method docstring,

        with a blank line."""
        return self.side ** 2  # code


TEXT = """a string that is not
a docstring"""  # code
ROOT = math.sqrt(  # code
    2.0)
'''


def test_the_tool_counts_code_lines_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    out = subprocess.run([sys.executable, str(TOOL), str(path), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    # The file given, then the directory's one module: the same file again.
    assert out == [f"     9  {path}", f"     9  {path}", "    18  total"]
