import pytest

from tests.src_lines import DIRECTORIES, code_lines, rows

SOURCE = '''"""Module docstring,
on two lines."""

# a comment-only line
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string on
two lines"""  # code, not a docstring
        return text
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the assignment, return
    assert code_lines(SOURCE) == 6


@pytest.mark.parametrize("directory", DIRECTORIES, ids=str)
def test_rows_name_changed_modules_and_total_every_module(tmp_path, directory):
    for root, extra in (("old", ""), ("new", "x = 1\n")):
        modules = tmp_path / root / directory
        modules.mkdir(parents=True)
        (modules / "same.py").write_text("y = 2\n")
        (modules / "edited.py").write_text(SOURCE + extra)
    table = rows(tmp_path / "old", tmp_path / "new", directory)
    assert [line.split()[0] for line in table] == [f"{directory.as_posix()}/", "edited.py", "total"]
    assert table[1].split()[1:] == ["16", "->", "17", "(+1)", "6", "->", "7", "(+1)"]
    assert table[2].split()[1:] == ["17", "->", "18", "(+1)", "7", "->", "8", "(+1)"]
