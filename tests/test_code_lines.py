"""The code-line count of `tools/code_lines.py` on a small fixture file."""

from tools.code_lines import code_lines, main

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment alone
def area(r):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return (math.pi
            * r ** 2)


class Shape:
    """Class docstring."""

    sides = 0
'''


def test_code_lines_count_tokens_outside_comments_blanks_and_docstrings(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    # import, def, the two lines of the text string, the two lines of the
    # return statement, class and sides
    assert code_lines(path) == 8
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["8", "fixture.py", "8", "total"]
