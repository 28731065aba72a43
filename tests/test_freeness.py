import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cmarr.freeness as free_mod
from cmarr.errors import (DimensionMismatch, ExponentMismatch,
                          FlatNotInLattice, IndexOutOfRange, InexactDivision,
                          MalformedPolynomial)
from cmarr.exactlin import common_kernel, restrict_covectors_to
from cmarr.freeness import (ExponentReport, _divide_linear, deletion,
                            exponents_from_poincare, inductive_freeness,
                            localization, nonfree_by_localization,
                            restriction)
from cmarr.generators import (gen_G8, gen_coxeter_namikawa,
                              gen_dihedral_even, gen_wreath)
from cmarr.intpoly import IntPolynomial
from cmarr.lattice import (Arrangement, Flat, build_lattice, essentialize,
                           localization_poincare, poincare_polynomial)

CONCURRENT3 = Arrangement(2, [(1, 0), (0, 1), (1, 1)])

# six planes through the moment curve: any three are independent, so the
# arrangement is generic and its Poincare quadratic factor is irreducible
MOMENT6 = Arrangement(3, [(1, i, i * i) for i in range(6)])


def test_exponents_g8():
    p = IntPolynomial.from_factors([[1, 1], [1, 11], [1, 13]])
    rep = exponents_from_poincare(p)
    assert rep.factors_integrally and rep.exponents == (1, 11, 13)


def test_exponents_irreducible_quadratic():
    rep = exponents_from_poincare(IntPolynomial([1, 21, 116]))
    assert not rep.factors_integrally
    assert rep.residual == IntPolynomial([1, 21, 116])


def test_exponents_boolean():
    rep = exponents_from_poincare(IntPolynomial([1, 2, 1]))
    assert rep.exponents == (1, 1)


def test_exponents_requires_unit_constant():
    with pytest.raises(MalformedPolynomial):
        exponents_from_poincare(IntPolynomial([2, 3]))


def test_divide_linear_exact_and_typed():
    assert _divide_linear([1, 3, 2], 2) == [1, 1]
    # -1/2 is not a root of 1 + 2t + t^2; floor division alone would
    # return [1, 0] with the right constant term
    with pytest.raises(InexactDivision):
        _divide_linear([1, 2, 1], 2)
    with pytest.raises(InexactDivision):
        _divide_linear([1, 4, 3], 2)


def test_chain_exponent_mismatch_is_typed(monkeypatch):
    # a factorization claiming one exponent too many for A3 (1, 2, 3):
    # every chain found gives (1, 2, 3), which must not pass silently
    arr = gen_coxeter_namikawa((4,))
    root_p = poincare_polynomial(build_lattice(arr))
    real = free_mod.exponents_from_poincare

    def corrupted(p):
        if p == root_p:
            return ExponentReport(True, (1, 2, 3, 3))
        return real(p)

    monkeypatch.setattr(free_mod, "exponents_from_poincare", corrupted)
    with pytest.raises(ExponentMismatch):
        inductive_freeness(arr)


def test_exponents_product_reconstructs(corpus):
    for arr in corpus:
        p = poincare_polynomial(build_lattice(arr))
        rep = exponents_from_poincare(p)
        if rep.factors_integrally:
            assert IntPolynomial.from_factors(
                [[1, b] for b in rep.exponents]) == p
            assert sum(rep.exponents) == len(arr.hyperplanes)


def test_deletion_concurrent():
    arr = deletion(CONCURRENT3, 2)
    assert poincare_polynomial(build_lattice(arr)) == IntPolynomial([1, 2, 1])


def test_deletion_g8_cardinality():
    assert len(deletion(gen_G8(), 0)) == 24


def test_deletion_singleton():
    arr = deletion(Arrangement(1, [(1,)]), 0)
    assert len(arr) == 0
    assert poincare_polynomial(build_lattice(arr)) == IntPolynomial([1])


def test_deletion_bad_index():
    with pytest.raises(IndexOutOfRange):
        deletion(CONCURRENT3, 3)


def test_restriction_boolean():
    arr = restriction(Arrangement(2, [(1, 0), (0, 1)]), 0)
    assert arr.dim == 1 and len(arr) == 1


def test_restriction_concurrent_coincide():
    arr = restriction(CONCURRENT3, 0)
    assert arr.dim == 1 and len(arr) == 1


def test_restriction_dihedral():
    arr = restriction(gen_dihedral_even(), 0)
    assert arr.dim == 1 and len(arr) == 1


def test_localization_bottom_and_center():
    lat = build_lattice(CONCURRENT3)
    assert len(localization(CONCURRENT3, lat.bottom)) == 0
    center = [f for f in lat.flats if f.rank == 2][0]
    assert localization(CONCURRENT3, center).hyperplanes == \
        CONCURRENT3.hyperplanes


def test_localization_g8_line():
    g8 = gen_G8()
    lat = build_lattice(g8)
    # the flat kappa_0 = kappa_2, kappa_2 = kappa_3 (essential covectors)
    want = {(1, 2, 1), (0, 1, -1)}
    flats = [f for f in lat.flats
             if want <= {g8.hyperplanes[i] for i in f.hyperplanes}
             and f.rank == 2]
    assert len(flats) == 1
    loc = localization(g8, flats[0])
    for c in loc.hyperplanes:
        for row in flats[0].subspace.basis:
            assert sum(a * b for a, b in zip(c, row)) == 0


@pytest.mark.parametrize("arr", [gen_G8(), gen_wreath("A3", 4, 2)],
                         ids=["G8", "wreath-A3-2"])
def test_localization_poincare_is_lower_interval(arr):
    lat = build_lattice(arr)
    for f in lat.flats:
        rebuilt = build_lattice(essentialize(localization(arr, f)))
        assert localization_poincare(lat, f) == poincare_polynomial(rebuilt)


def test_localization_foreign_flat_rejected():
    lat = build_lattice(Arrangement(2, [(1, 1), (1, -1)]))
    top = [f for f in lat.flats if f.rank == 2][0]
    with pytest.raises(FlatNotInLattice):
        localization(CONCURRENT3, top)


def test_inductive_rank2():
    v = inductive_freeness(CONCURRENT3)
    assert v.status == "InductivelyFree" and v.exponents == (1, 2)


def test_inductive_g8():
    v = inductive_freeness(gen_G8())
    assert v.status == "InductivelyFree"
    assert v.exponents == (1, 11, 13)
    p = poincare_polynomial(build_lattice(gen_G8()))
    assert IntPolynomial.from_factors([[1, b] for b in v.exponents]) == p


def test_inductive_coxeter_a3():
    v = inductive_freeness(gen_coxeter_namikawa((4,)))
    assert v.status == "InductivelyFree" and v.exponents == (1, 2, 3)


def test_inductive_notfree_generic():
    v = inductive_freeness(MOMENT6)
    assert v.status == "NotFree"
    assert v.witness["reason"] == "poincare_residual"
    # replay: the cited residual really does not factor
    rep = exponents_from_poincare(IntPolynomial(v.witness["poincare"]))
    assert not rep.factors_integrally
    assert list(rep.residual.coeffs) == v.witness["residual"]


def test_inductive_budget_exhaustion():
    v = inductive_freeness(gen_G8(), budget=1)
    assert v.status == "Unknown"


def test_nonfree_by_localization_boolean():
    assert nonfree_by_localization(Arrangement(3, [(1, 0, 0), (0, 1, 0),
                                                   (0, 0, 1)])) is None


def test_nonfree_by_localization_rank2():
    assert nonfree_by_localization(CONCURRENT3) is None


def test_nonfree_by_localization_synthetic():
    # a dim-4 arrangement whose localization at the line x1=x2=x3=0 is the
    # generic moment-curve arrangement, which has non-factoring Poincare
    covs = [c + (0,) for c in MOMENT6.hyperplanes]
    covs += [(0, 0, 0, 1), (1, 1, 1, 1)]
    arr = Arrangement(4, covs)
    assert arr.rank == 4
    v = nonfree_by_localization(arr)
    assert v is not None and v.status == "NotFree"
    assert sorted(v.witness["flat_hyperplanes"]) == list(range(6))


def test_witness_chain_bookkeeping():
    v = inductive_freeness(gen_G8())
    chain = v.witness["chain"]
    assert chain, "positive verdict must carry a removal chain"
    for step in chain:
        exps = step["exponents"]
        assert sorted(step["restriction_exponents"]
                      + [sum(exps) - sum(step["restriction_exponents"])]) \
            == sorted(exps)


# ---------------------------------------------------------------------------
# restriction against the Fraction kernel route


def _reference_restriction(arr, h):
    """(dim, covectors) of A'' over the canonical basis of ker(a_h), from
    the Fraction kernel and restrict_covectors_to."""
    sub = common_kernel([arr.hyperplanes[h]], dim=arr.dim)
    others = [c for i, c in enumerate(arr.hyperplanes) if i != h]
    return sub.dim, restrict_covectors_to(sub, others)


def _assert_restriction_matches(arr, h):
    rst = restriction(arr, h)
    assert (rst.dim, rst.hyperplanes) == _reference_restriction(arr, h)
    assert all(type(x) is int for c in rst.hyperplanes for x in c)


@pytest.mark.parametrize("arr", [gen_G8(), gen_wreath("A3", 4, 2)],
                         ids=["G8", "wreath-A3-2"])
def test_restriction_matches_kernel_reference(arr):
    for h in range(len(arr)):
        _assert_restriction_matches(arr, h)


@st.composite
def arrangement_and_index(draw):
    """An integer arrangement in Q^d, 2 <= d <= 5, and one of its indices.
    Zeros are frequent, so the last nonzero column of the restricting
    covector varies; some entries reach 10**9."""
    d = draw(st.integers(2, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.integers(-10 ** 9, 10 ** 9))
    vec = st.lists(entry, min_size=d, max_size=d).filter(any)
    arr = Arrangement(d, draw(st.lists(vec, min_size=1, max_size=8)))
    return arr, draw(st.integers(0, len(arr) - 1))


@settings(deadline=None, max_examples=150)
@given(arrangement_and_index())
def test_restriction_matches_kernel_reference_random(case):
    _assert_restriction_matches(*case)


def test_restriction_of_a_line_is_rejected():
    with pytest.raises(DimensionMismatch):
        restriction(Arrangement(1, [(1,)]), 0)


# ---------------------------------------------------------------------------
# verdicts pinned in full, search order included

GOLDEN = Path(__file__).resolve().parent / "data" / "freeness_golden.json"
G8_ORDER = [18, 8, 5, 22, 3, 19, 17, 9, 14, 13, 23, 16, 0, 10, 15, 20, 24,
            21, 2, 1, 6, 4, 12, 11, 7]
WREATH_ORDER = [15, 10, 13, 6, 16, 5, 18, 9, 8, 14, 2, 1, 0, 17, 3, 4, 12,
                11, 7]


def _golden_case(name):
    if name == "G8-shuffled":
        g8 = gen_G8()
        return Arrangement(3, [g8.hyperplanes[i] for i in G8_ORDER])
    w = gen_wreath("A3", 4, 2)
    if name == "wreath-A3-2-shuffled":
        return Arrangement(4, [w.hyperplanes[i] for i in WREATH_ORDER])
    return Arrangement(4, [c for i, c in enumerate(w.hyperplanes)
                           if i not in (1, 7)])


@pytest.mark.parametrize("name", ["G8-shuffled", "wreath-A3-2-shuffled",
                                  "wreath-A3-2-minus-1-7"])
def test_verdict_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    verdict = inductive_freeness(_golden_case(name))
    assert json.loads(json.dumps(verdict.to_dict())) == golden


@pytest.mark.parametrize("flat, message", [
    # lists two of the three lines through the origin
    (Flat(CONCURRENT3, 0b011, 2), "not listed"),
    # the line y = 0 of another arrangement, listed as hyperplane 0 (x = 0)
    (Flat(Arrangement(2, [(0, 1)]), 0b1, 1), "does not contain"),
    (Flat(CONCURRENT3, 0b1000, 1), "out of range"),
], ids=["unlisted", "not-contained", "out-of-range"])
def test_localization_rejects_wrong_hyperplane_sets(flat, message):
    with pytest.raises(FlatNotInLattice, match=message):
        localization(CONCURRENT3, flat)
