#!/usr/bin/env python3
"""Count the code lines of Python files.

    python3 tools/code_lines.py PATH...

Each PATH is a ``.py`` file or a directory, searched recursively for
``.py`` files.  Prints the code lines of every file, one per line, then
the total.  A code line holds at least one token that is neither a
comment nor a docstring, so blank lines, comment lines and docstrings
(the string that opens a module, class or function body) do not count,
and every line of a multi-line expression does.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

# tokens that carry no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers the docstrings of a parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in Python source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type in LAYOUT or tok.start[0] in skip:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    """The ``.py`` files named by paths, directories searched in order."""
    for path in paths:
        if not os.path.isdir(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Count code lines: no docstrings, comments or blank "
                    "lines.")
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
