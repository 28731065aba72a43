"""Checks on the source text of src/cmarr."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cmarr"


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # goes unchecked there; invariants raise a typed CmarrError instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
