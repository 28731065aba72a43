"""The package namespace: `import cmarr` loads no submodule, and each
public name resolves to its home module's object on first access."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cmarr
from cmarr.errors import CmarrError, UnknownName

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = [
    'Arrangement', 'BlockPermutation', 'CircuitSet', 'ExponentReport', 'Flat',
    'FreenessVerdict', 'IntPolynomial', 'IntersectionLattice', 'NbcBasis',
    'RootSystem', 'Subspace', 'TableRow', 'act', 'arrfile', 'audit_table1',
    'build_lattice', 'char_poly_finite_field', 'characteristic_polynomial',
    'circuits', 'common_kernel', 'contains_subarrangement', 'deletion',
    'emit_arrangement', 'errors', 'essentialize', 'exactlin',
    'exponents_from_poincare', 'freeness', 'gen_G4', 'gen_G8',
    'gen_coxeter_namikawa', 'gen_cyclic', 'gen_dihedral_even', 'gen_wreath',
    'generators', 'hyperplane_orbits', 'inductive_freeness', 'intpoly',
    'is_stable', 'lattice', 'nbc_basis', 'normalize_covector', 'os_dimension',
    'osalg', 'parse_arrangement', 'poincare_polynomial', 'rank_of',
    'restrict_covectors_to', 'restriction', 'root_system', 'symmetry',
    'table1_rows', 'terminalization_count', 'whitney_numbers']


def test_all_is_unchanged():
    assert cmarr.__all__ == PUBLIC


def test_names_are_their_home_modules_objects():
    wrong = []
    for name in PUBLIC:
        value = getattr(cmarr, name)
        if isinstance(value, types.ModuleType):
            home = importlib.import_module("cmarr." + name)
        else:
            home = getattr(importlib.import_module(value.__module__), name)
        if home is not value:
            wrong.append(name)
    assert wrong == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cmarr import *", namespace)
    assert [n for n in PUBLIC if namespace.get(n) is not getattr(cmarr, n)] \
        == []


def test_star_import_in_a_fresh_interpreter():
    # nothing is resolved yet there, so every name goes through __getattr__
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = ("from cmarr import *\nimport cmarr\n"
            "print(' '.join(n for n in cmarr.__all__ if n not in globals()))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=60).stdout
    assert out.split() == []


def test_unknown_name_is_a_typed_attribute_error():
    assert not hasattr(cmarr, "nope")
    with pytest.raises(UnknownName, match="'nope'") as exc:
        cmarr.nope
    assert isinstance(exc.value, AttributeError)
    assert isinstance(exc.value, CmarrError)
    # project_zero_sum lives in exactlin but was never a package name
    assert not hasattr(cmarr, "project_zero_sum")


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(cmarr))
    assert "__version__" in dir(cmarr)
