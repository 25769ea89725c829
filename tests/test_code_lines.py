"""The code-line counter: docstrings, comments and blank lines do not count,
every other line a token touches does."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring
over two lines."""

import os  # a comment after code counts


# a comment-only line
class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        text = """not a docstring:
every line of it counts
"""
        return text


async def g():
    \'\'\'One-line docstring.\'\'\'
    return (1,
            2)


def h(): return "no docstring"
'''

# import, class A, x, def f, text (3 lines), return text, async def, return (2 lines), def h.
SNIPPET_LINES = 12


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blanks_do_not_count(tool):
    assert tool.code_lines(SNIPPET) == SNIPPET_LINES
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0
    # A string statement after the first one is not a docstring.
    assert tool.code_lines('"""Doc."""\n"""Not a docstring."""\n') == 1


def test_two_trees_print_both_counts_and_the_change(tool, tmp_path, capsys):
    for tree, extra in (("parent", ""), ("change", "y = 2\n")):
        package = tmp_path / tree / "src" / "gaussocc"
        package.mkdir(parents=True)
        (package / "a.py").write_text(SNIPPET + extra)
        (package / "b.py").write_text("x = 1\n")
    assert tool.main([str(tmp_path / "parent")]) == 0
    assert capsys.readouterr().out.split("\n")[-2].split() == ["total", str(SNIPPET_LINES + 1)]
    assert tool.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "parent", "change", "diff"], ["a.py", "12", "13", "+1"], ["b.py", "1", "1", "+0"],
                    ["total", "13", "14", "+1"]]
