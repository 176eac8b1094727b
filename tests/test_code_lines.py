"""scripts/code_lines.py counts the lines that hold code."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_hold_no_code():
    source = textwrap.dedent('''\
        """A module docstring
        over two lines."""

        # a comment line
        import os  # a comment after code


        class A:
            """A class docstring."""

            def f(self):
                """A function
                docstring."""
                return """a string that is
        not a docstring"""
        ''')
    # import, class, def and the two lines of the returned string
    assert code_lines.code_lines(source) == 5


def test_counts_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\n')
    (tmp_path / "b.py").write_text("# note\ny = 2\nz = 3\n")
    (tmp_path / "c.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\n"


def test_counts_a_file(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\ny = 2\n')
    assert code_lines.main([str(tmp_path / "a.py")]) == 0
    assert capsys.readouterr().out == "2\n"


def test_a_path_that_is_not_a_file_or_a_directory_fails(tmp_path, capsys):
    missing = tmp_path / "missing.py"
    assert code_lines.main([str(missing)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"code_lines: {missing} is neither a file nor a directory\n"
