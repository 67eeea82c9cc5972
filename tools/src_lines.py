"""Count the code lines of Python modules: lines that hold a token of code.

    python3 tools/src_lines.py [path ...]

prints, for each module (each ``.py`` file given, or under each directory
given; ``src/koopmpc`` by default), its number of code lines, then their total.
A code line holds at least one token other than a comment, a newline or an
indent; a docstring (the leading string of a module, class or function, found
by ``ast``) does not count, nor do blank lines. A multi-line string or
bracketed expression counts every line it spans that holds one of its tokens,
so a size measured this way moves with the code and not with its prose.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "koopmpc"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of ``text``, Python source, that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING
                                              and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths) -> list[Path]:
    """The ``.py`` files given, and those under each directory given, in sorted order."""
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=[str(SRC)],
                        help="modules or directories (default: src/koopmpc)")
    args = parser.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
