"""Count the code lines of Python modules: each file named, and each module
of each directory named, with a total per directory.

A code line holds at least one token other than a comment, a docstring or
layout (newlines, indentation).  A token that spans several lines, such as
a multi-line string that is not a docstring, counts every line it spans.
Standard library only.

    python3 tools/code_lines.py [PATH ...]   # default: src/cmarr
    python3 tools/code_lines.py src/cmarr tests/reference.py
"""

import ast
import os
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The lines that docstrings occupy: the first statement of a module,
    class or function when it is a string constant."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as fh:
        source = fh.read()
    doc = docstring_lines(ast.parse(source, path))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in LAYOUT:
                continue
            if tok.type == tokenize.STRING and tok.start[0] in doc:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    for path in argv[1:] or ["src/cmarr"]:
        if not os.path.isdir(path):
            print("%6d  %s" % (code_lines(path), path))
            continue
        total = 0
        for name in sorted(os.listdir(path)):
            if name.endswith(".py"):
                n = code_lines(os.path.join(path, name))
                total += n
                print("%6d  %s" % (n, name))
        print("%6d  total %s" % (total, path))


if __name__ == "__main__":
    main(sys.argv)
