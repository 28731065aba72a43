"""Exact-arithmetic toolkit for Calogero-Moser / Namikawa hyperplane
arrangements: generators, intersection-lattice combinatorics, Orlik-Solomon
bases, freeness diagnostics, Weyl-symmetry checks and terminalization counts.

`import cmarr` loads no submodule: each public name below imports its
module on first access (PEP 562), so a command pays only for the stages it
runs.
"""

# submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "arrfile": ("emit_arrangement", "parse_arrangement"),
    "errors": (),
    "exactlin": ("Subspace", "common_kernel", "normalize_covector", "rank_of",
                 "restrict_covectors_to"),
    "freeness": ("FreenessVerdict", "deletion", "inductive_freeness",
                 "restriction"),
    "generators": ("RootSystem", "TableRow", "gen_G4", "gen_G8", "gen_cyclic",
                   "gen_dihedral_even", "gen_wreath", "root_system",
                   "table1_rows"),
    "intpoly": ("ExponentReport", "IntPolynomial", "exponents_from_poincare"),
    "lattice": ("Arrangement", "Flat", "IntersectionLattice", "build_lattice",
                "char_poly_finite_field", "characteristic_polynomial",
                "essentialize", "poincare_polynomial", "whitney_numbers"),
    "osalg": ("CircuitSet", "NbcBasis", "circuits", "nbc_basis",
              "os_dimension"),
    "symmetry": ("BlockPermutation", "act", "audit_table1",
                 "contains_subarrangement", "gen_coxeter_namikawa",
                 "hyperplane_orbits", "is_stable", "terminalization_count"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names + (module,)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        from .errors import UnknownName
        raise UnknownName("module %r has no attribute %r" % (__name__, name))
    # the import binds the submodule on this package as a side effect
    __import__("%s.%s" % (__name__, module))
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
