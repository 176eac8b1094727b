#!/usr/bin/env python3
"""Print how many lines of the Python files in a directory hold code.

A line holds code when some token on it is neither a comment nor a
docstring (the string that opens a module, class or function body); blank
lines, comment lines and the lines of a docstring do not count.  A token
that spans lines, such as a multi-line string that is not a docstring, counts
every line it spans.  Uses only `ast` and `tokenize`:

    python3 scripts/code_lines.py             # src/rtmix of this checkout
    python3 scripts/code_lines.py path/to/src/rtmix
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING and tok.start in starts):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "rtmix"
    print(sum(code_lines(path.read_text()) for path in sorted(root.glob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
