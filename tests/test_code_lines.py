"""The code-line count of benchmarks/code_lines.py on a fixture source."""

import importlib.util
from pathlib import Path

import pytest

CODE_LINES = Path(__file__).resolve().parent.parent / "benchmarks" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""
# a comment

import math  # code with a comment


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,

        over three lines."""
        text = """a string that is
        not a docstring"""
        return math.pi, text
'''


def test_counts_code_not_comments_blanks_or_docstrings(code_lines):
    # import, class, def, the two lines of the string, return
    assert code_lines.code_lines(FIXTURE) == 6


def test_main_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    package = tmp_path / "src" / "fxtsmc"
    package.mkdir(parents=True)
    (package / "a.py").write_text(FIXTURE)
    (package / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     6 a.py", "     1 b.py", "     7 total", ""]
