"""Checks on the source text of src/cmarr."""

import ast
import importlib.util
from pathlib import Path

import cmarr

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


def _wrapped_names():
    """(module, attribute) pairs that bench/trace_job.py wraps by name; a
    module keeps those bound even where it does not read them."""
    path = SRC.parent.parent / "bench" / "trace_job.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, attr) for mod, attr, _ in module.WRAPS}


def test_imports_are_used():
    wrapped = _wrapped_names()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and (path.stem, name) not in wrapped:
                    unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unused == []


def _definitions_and_readers():
    """The module-level functions and classes of src/cmarr as (path, line,
    name), and for each name the (file, top-level definition) pairs that
    read it, by name or as an attribute."""
    defined = []
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, top.lineno, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                readers.setdefault(name, set()).add((path.name, owner))
    return defined, readers


def _read_elsewhere(readers, path, name):
    return bool(readers.get(name, set()) - {(path.name, name)})


def test_private_functions_are_read():
    # a module-level private function or class that no other code in
    # src/cmarr reads, and that bench/trace_job.py does not wrap, is dead;
    # a dunder such as the package's __getattr__ is read by the interpreter
    wrapped = _wrapped_names()
    defined, readers = _definitions_and_readers()
    unread = ["%s:%d %s" % (path.name, line, name)
              for path, line, name in defined
              if name.startswith("_") and not name.endswith("__")
              and (path.stem, name) not in wrapped
              and not _read_elsewhere(readers, path, name)]
    assert unread == []


def test_public_functions_are_read():
    # a module-level public function or class is read by other code in
    # src/cmarr, exported through cmarr._EXPORTS, or wrapped by
    # bench/trace_job.py under some module's name; anything else, such as a
    # reference route only the tests call, belongs in tests/reference.py
    exported = {name for names in cmarr._EXPORTS.values() for name in names}
    wrapped = {attr for _, attr in _wrapped_names()}
    defined, readers = _definitions_and_readers()
    unread = ["%s:%d %s" % (path.name, line, name)
              for path, line, name in defined
              if not name.startswith("_")
              and name not in exported and name not in wrapped
              and not _read_elsewhere(readers, path, name)]
    assert unread == []


def test_raises_are_typed():
    # every error the library raises on purpose is a CmarrError subclass
    # from errors.py, so callers can tell library signals from bugs
    errors = ast.parse((SRC / "errors.py").read_text())
    typed = {node.name for node in errors.body
             if isinstance(node, ast.ClassDef)}
    untyped = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name not in typed:
                untyped.append("%s:%d %s" % (path.name, node.lineno, name))
    assert untyped == []


# The constructors of an arrangement: __init__ normalizes and deduplicates
# its covectors, and _trusted takes covectors that already are.
CONSTRUCTORS = {"Arrangement.__init__", "Arrangement._trusted"}


def _owned_nodes(tree):
    """Every node of tree with the dotted name of the innermost function or
    class around it ("" at module level)."""
    stack = [(tree, "")]
    while stack:
        node, owner = stack.pop()
        yield owner, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = owner + "." + node.name if owner else node.name
        stack += [(child, owner) for child in ast.iter_child_nodes(node)]


def test_arrangements_come_from_their_constructors():
    # outside the two constructors no code calls __new__ or sets the
    # hyperplanes or tags of an arrangement after it is built
    fields = {"hyperplanes", "tags"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, node in _owned_nodes(tree):
            if owner in CONSTRUCTORS:
                continue
            if isinstance(node, ast.Call):
                func = node.func
                bad = (isinstance(func, ast.Attribute)
                       and func.attr == "__new__") \
                    or (isinstance(func, ast.Name) and func.id == "setattr"
                        and len(node.args) > 1
                        and getattr(node.args[1], "value", None) in fields)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                bad = any(isinstance(t, ast.Attribute) and t.attr in fields
                          for target in targets for t in ast.walk(target))
            else:
                continue
            if bad:
                found.append("%s:%d %s" % (path.name, node.lineno, owner))
    assert found == []
