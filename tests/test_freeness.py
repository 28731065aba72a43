import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cmarr.freeness as free_mod
from cmarr.arrfile import emit_arrangement
from cmarr.cli import main
from cmarr.errors import (DimensionMismatch, ExponentMismatch,
                          FlatNotInLattice, IndexOutOfRange, InexactDivision,
                          MalformedPolynomial)
from cmarr.exactlin import common_kernel, rank_of, restrict_covectors_to
from cmarr.freeness import (FreenessVerdict, _deletion_lines, deletion,
                            inductive_freeness, restriction)
from cmarr.generators import (gen_G8, gen_coxeter_namikawa,
                              gen_dihedral_even, gen_wreath)
from cmarr.intpoly import (ExponentReport, IntPolynomial, _divide_linear,
                           _vanishes_at_minus_inverse, exponents_from_poincare)
from cmarr.lattice import (Arrangement, Flat, build_lattice, essentialize,
                           localization_poincare, poincare_polynomial)
from conftest import small_corpus
from reference import (_exponents_and_coxeter_number, _fuss_catalan,
                       localization)

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


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6)
       .filter(lambda q: q[-1]), st.integers(1, 30), st.data())
def test_divide_linear_matches_multiply_back(q, b, data):
    """On a product q (1 + b t) the quotient is q, and it multiplies back
    to the product.  With one coefficient changed, -1/b is no root, so no
    quotient multiplies back, not even a rational one: InexactDivision."""
    product = list((IntPolynomial(q) * IntPolynomial([1, b])).coeffs)
    quotient = _divide_linear(product, b)
    assert quotient == q
    assert list((IntPolynomial(quotient) * IntPolynomial([1, b])).coeffs) \
        == product
    k = data.draw(st.integers(0, len(product) - 1))
    product[k] += data.draw(st.integers(-5, 5).filter(bool))
    assert sum(c * Fraction(-1, b) ** i for i, c in enumerate(product)) != 0
    with pytest.raises(InexactDivision):
        _divide_linear(product, b)


def test_int_polynomial_equal_objects_hash_equal():
    """Equality is between polynomials only, so equal objects hash equal
    and a constant polynomial is not equal to the int it holds."""
    assert IntPolynomial([5, 0]) == IntPolynomial([5])
    assert hash(IntPolynomial([5, 0])) == hash(IntPolynomial([5]))
    assert IntPolynomial([5]) != 5
    assert 5 not in {IntPolynomial([5])}


def test_int_polynomial_combines_only_with_polynomials():
    """Arithmetic with a non-polynomial returns NotImplemented, so Python
    tries the other operand's reflected operation, and raises its own
    TypeError when there is none."""
    class Reflecting:
        def __radd__(self, other):
            return ("radd", other)

        def __rmul__(self, other):
            return ("rmul", other)

        def __rsub__(self, other):
            return ("rsub", other)

    p = IntPolynomial([1, 2])
    obj = Reflecting()
    assert p + obj == ("radd", p)
    assert p * obj == ("rmul", p)
    assert p - obj == ("rsub", p)
    for combine in (lambda: p + 1, lambda: 1 + p, lambda: p * 2,
                    lambda: 2 * p, lambda: p - 1, lambda: 1 - p):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()


@st.composite
def polynomial_and_candidates(draw):
    """Ascending coefficients of a product of (1 + b t) factors and one
    random factor with constant term 1, which mostly has no root of the
    form -1/b; the candidates are the divisors of the leading coefficient,
    the b of the linear factors and one arbitrary nonzero integer."""
    roots = draw(st.lists(st.integers(1, 30), max_size=4))
    extra = [1] + draw(st.lists(st.integers(-40, 40), max_size=3))
    coeffs = IntPolynomial.from_factors([[1, b] for b in roots]
                                        + [extra]).coeffs
    lead = abs(coeffs[-1])
    candidates = {d for d in range(1, lead + 1) if lead % d == 0}
    candidates.update(roots)
    candidates.add(draw(st.integers(-60, 60).filter(bool)))
    return coeffs, sorted(candidates)


@settings(deadline=None, max_examples=200)
@given(polynomial_and_candidates())
def test_integer_root_test_matches_fraction_evaluation(case):
    coeffs, candidates = case
    for b in candidates:
        x = Fraction(-1, b)
        value = sum(c * x ** k for k, c in enumerate(coeffs))
        assert _vanishes_at_minus_inverse(coeffs, b) \
            == (value == 0), (coeffs, b)


def test_exponent_report_api():
    res = IntPolynomial([1, 21, 116])
    rep = ExponentReport(False, (1,), res)
    assert (rep.factors_integrally, rep.exponents, rep.residual) \
        == (False, (1,), res)
    assert rep == ExponentReport(factors_integrally=False, exponents=(1,),
                                 residual=IntPolynomial([1, 21, 116]))
    assert rep != ExponentReport(False, (2,), res)
    assert hash(rep) == hash(ExponentReport(False, (1,), res))
    default = ExponentReport(True)
    assert (default.exponents, default.residual) == ((), None)
    assert default == ExponentReport(factors_integrally=True)
    with pytest.raises(AttributeError):
        default.exponents = (1,)


def test_freeness_verdict_api():
    v = FreenessVerdict("Unknown")
    assert (v.status, v.exponents, v.witness, v.nodes_used) \
        == ("Unknown", (), None, 0)
    full = FreenessVerdict("InductivelyFree", (1, 2), {"chain": []}, 5)
    assert full == FreenessVerdict(status="InductivelyFree", exponents=(1, 2),
                                   witness={"chain": []}, nodes_used=5)
    assert full != FreenessVerdict("InductivelyFree", (1, 2), {"chain": []})
    assert full != FreenessVerdict("NotFree", (1, 2), {"chain": []}, 5)
    with pytest.raises(TypeError):
        hash(full)
    # nodes_used is set after the search
    v.nodes_used = 7
    assert v.to_dict() == {"status": "Unknown", "exponents": [],
                           "witness": None, "nodes_used": 7}
    assert full.to_dict() == {"status": "InductivelyFree", "exponents": [1, 2],
                              "witness": {"chain": []}, "nodes_used": 5}


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


@st.composite
def arrangement_and_index(draw):
    dim = draw(st.integers(1, 4))
    covs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim).filter(any),
                         min_size=1, max_size=9))
    tags = draw(st.none() | st.lists(st.sampled_from("TF"),
                                     min_size=len(covs), max_size=len(covs)))
    arr = Arrangement(dim, covs, label=draw(st.none() | st.just("a")),
                      tags=tags, weyl=draw(st.none() | st.just((dim + 1,))))
    return arr, draw(st.integers(0, len(arr) - 1))


@settings(deadline=None, max_examples=200)
@given(arrangement_and_index())
def test_deletion_matches_the_constructor(case):
    """deletion slices arr's covectors and tags; the constructor, which
    normalizes and deduplicates them again, gives the same arrangement."""
    arr, h = case
    got = deletion(arr, h)
    want = Arrangement(
        arr.dim, [c for i, c in enumerate(arr.hyperplanes) if i != h],
        label=arr.label, weyl=arr.weyl,
        tags=None if arr.tags is None
        else [t for i, t in enumerate(arr.tags) if i != h])
    assert type(got) is Arrangement
    assert (got.dim, got.hyperplanes, got.tags, got.label, got.weyl) == \
        (want.dim, want.hyperplanes, want.tags, want.label, want.weyl)
    assert got.canonical_key() == want.canonical_key()
    assert got.rank == want.rank


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
    flats = build_lattice(CONCURRENT3).flats
    assert flats[0].mask == 0
    assert len(localization(CONCURRENT3, flats[0])) == 0
    center = [f for f in flats if f.rank == 2][0]
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
    line = common_kernel([g8.hyperplanes[i] for i in flats[0].hyperplanes],
                         dim=g8.dim)
    for c in loc.hyperplanes:
        for row in line.basis:
            assert sum(a * b for a, b in zip(c, row)) == 0


@pytest.mark.parametrize("arr", [gen_G8(), gen_wreath("A3", 4, 2)],
                         ids=["G8", "wreath-A3-2"])
def test_localization_poincare_is_lower_interval(arr):
    lat = build_lattice(arr)
    for f in lat.flats:
        rebuilt = build_lattice(essentialize(localization(arr, f)))
        assert localization_poincare(lat, f.mask, f.rank) \
            == poincare_polynomial(rebuilt)


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


# a rank-3 arrangement whose search ends with no chain: every candidate's
# children are searched to the end
NO_CHAIN3 = Arrangement(3, [(2, -1, 0), (0, 1, 0), (1, 1, 0), (1, 1, -1),
                            (1, -1, 0), (1, -2, 0), (1, 0, 2)])
# NO_CHAIN3 times a line, plus the coloop
NO_CHAIN4 = Arrangement(4, [c + (0,) for c in NO_CHAIN3.hyperplanes]
                        + [(0, 0, 0, 1)])


def test_no_chain_is_not_reported_as_budget():
    assert inductive_freeness(NO_CHAIN3).to_dict() == {
        "status": "Unknown", "exponents": [],
        "witness": {"reason": "no_chain"}, "nodes_used": 5}
    # a child reads Unknown for lack of a chain, not of budget, and so
    # must the parent
    for lat in (None, build_lattice(NO_CHAIN4)):
        v = inductive_freeness(NO_CHAIN4, lattice=lat)
        assert v.to_dict() == {
            "status": "Unknown", "exponents": [],
            "witness": {"reason": "no_chain"}, "nodes_used": 10}


BUDGET_GOLDEN = Path(__file__).resolve().parent / "data" \
    / "freeness_budget_golden.json"
BUDGET_CASES = {
    "G8": gen_G8,
    "coxeter-S6": lambda: gen_coxeter_namikawa((6,)),
    "wreath-A3-2": lambda: gen_wreath("A3", 4, 2),
    "wreath-A3-2-minus-7": lambda: deletion(gen_wreath("A3", 4, 2), 7),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_budget_limited_verdict_golden(name):
    # the verdict, nodes_used included, at Fibonacci budgets 1 to 89
    golden = json.loads(BUDGET_GOLDEN.read_text())[name]
    arr = BUDGET_CASES[name]()
    for budget, want in golden.items():
        verdict = inductive_freeness(arr, budget=int(budget))
        assert json.loads(json.dumps(verdict.to_dict())) == want, budget
        if verdict.status == "Unknown":
            assert verdict.nodes_used == int(budget)


def nonfree_by_localization(arr):
    """The NotFree certificate the search reads off L(arr) by rank, as one
    verdict naming its flat, or None: first the scan of proper flats it
    runs when no chain is found, then the residual of pi(A) itself, the
    top flat, when A has rank >= 3."""
    lat = build_lattice(arr)
    found = free_mod._nonfree_localization(lat)
    if found is None and arr.rank >= 3:
        p = poincare_polynomial(lat)
        rep = exponents_from_poincare(p)
        if not rep.factors_integrally:
            found = (list(range(len(arr))),
                     free_mod._residual_witness(p, rep))
    if found is None:
        return None
    flat, inner = found
    return FreenessVerdict("NotFree", witness={
        "reason": "nonfree_localization", "flat_hyperplanes": flat,
        "inner": inner})


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


def _reference_nonfree_by_localization(arr, budget_per_flat=10 ** 4):
    """The rebuild-and-search scan: essentialize the localization at each
    flat of rank >= 3, by increasing (rank, sorted hyperplanes), and run a
    full freeness search on it."""
    lat = build_lattice(arr)
    flats = sorted(lat.flats, key=lambda f: (f.rank,
                                             tuple(sorted(f.hyperplanes))))
    for f in flats:
        if f.rank < 3:
            continue
        loc = essentialize(localization(arr, f))
        v = inductive_freeness(loc, budget=budget_per_flat)
        if v.status == "NotFree":
            return FreenessVerdict(
                "NotFree",
                witness={"reason": "nonfree_localization",
                         "flat_hyperplanes": sorted(f.hyperplanes),
                         "inner": v.witness})
    return None


def _assert_nonfree_matches_reference(arr):
    got = nonfree_by_localization(arr)
    want = _reference_nonfree_by_localization(arr)
    assert (got and got.to_dict()) == (want and want.to_dict())


def _minus(arr, deleted):
    return Arrangement(arr.dim, [c for i, c in enumerate(arr.hyperplanes)
                                 if i not in deleted])


@pytest.mark.parametrize("base, deleted", [
    ("G8", (0,)), ("G8", (2,)), ("G8", (0, 2)), ("G8", (2, 4)),
    ("wreath-A3-2", (0,)), ("wreath-A3-2", (7,)), ("wreath-A3-2", (1, 7)),
    ("wreath-A3-2", (0, 2))],
    ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else x)
def test_nonfree_by_localization_matches_search(base, deleted):
    arr = gen_G8() if base == "G8" else gen_wreath("A3", 4, 2)
    _assert_nonfree_matches_reference(_minus(arr, deleted))


@st.composite
def localization_cases(draw, min_size=0, max_size=8):
    """min_size to max_size integer covectors in Q^3 or Q^4 with small
    entries and frequent zeros, so that flats of rank 3 often carry more
    than three hyperplanes."""
    d = draw(st.integers(3, 4))
    entry = st.one_of(st.just(0), st.integers(-2, 2))
    vec = st.lists(entry, min_size=d, max_size=d).filter(any)
    return Arrangement(d, draw(st.lists(vec, min_size=min_size,
                                        max_size=max_size)))


@settings(deadline=None, max_examples=100)
@given(localization_cases())
def test_nonfree_by_localization_matches_search_random(arr):
    _assert_nonfree_matches_reference(arr)


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
# deletion nodes size their candidates from the parent's rank-2 flats


@st.composite
def arrangement_and_deleted(draw):
    """Up to 8 covectors in Q^2..Q^4 with small entries and frequent zeros,
    so rank-2 flats often carry three or more hyperplanes, and one index."""
    d = draw(st.integers(2, 4))
    entry = st.one_of(st.just(0), st.integers(-2, 2))
    vec = st.lists(entry, min_size=d, max_size=d).filter(any)
    arr = Arrangement(d, draw(st.lists(vec, min_size=1, max_size=8)))
    return arr, draw(st.integers(0, len(arr) - 1))


def _rank2_masks(arr):
    masks = build_lattice(arr).masks
    return list(masks[2]) if len(masks) > 2 else []


@settings(deadline=None, max_examples=150)
@given(arrangement_and_deleted())
def test_deletion_lines_are_rank2_flats_of_the_deletion(case):
    arr, h0 = case
    lines = _rank2_masks(arr)
    assert sorted(_deletion_lines(lines, h0)) == \
        sorted(_rank2_masks(deletion(arr, h0)))


@pytest.mark.parametrize("arr", [gen_G8(), gen_coxeter_namikawa((6,)),
                                 gen_wreath("A3", 4, 2)],
                         ids=["G8", "coxeter-S6", "wreath-A3-2"])
def test_search_restricts_only_the_candidates_it_tries(arr, monkeypatch):
    calls = []
    real = free_mod.restriction

    def counting(a, h):
        calls.append(h)
        return real(a, h)

    monkeypatch.setattr(free_mod, "restriction", counting)
    verdict = inductive_freeness(arr)
    assert verdict.status == "InductivelyFree"
    # only candidates the search tries are restricted, not every
    # hyperplane of each node to read |A''|
    assert len(calls) <= verdict.nodes_used


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


@settings(deadline=None, max_examples=150)
@given(arrangement_and_index())
def test_restriction_of_an_essential_arrangement_is_essential(case):
    # restriction maps V* onto H* with kernel span(a_h), so the search
    # never essentializes a restriction
    ess = essentialize(case[0])
    assume(ess.dim >= 2)
    for h in range(len(ess)):
        rst = restriction(ess, h)
        assert rank_of(rst.hyperplanes, dim=rst.dim) == rst.dim


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


@pytest.mark.parametrize("name", ["G8-shuffled", "wreath-A3-2-shuffled",
                                  "wreath-A3-2-minus-1-7"])
def test_verdict_golden_with_lattice(name):
    arr = _golden_case(name)
    golden = json.loads(GOLDEN.read_text())[name]
    verdict = inductive_freeness(arr, lattice=build_lattice(arr))
    assert json.loads(json.dumps(verdict.to_dict())) == golden


# the scale frontier: wreath-A4-3, and wreath-D4-2 with no symmetry
FRONTIER_GOLDEN = Path(__file__).resolve().parent / "data" \
    / "frontier_golden.json"


def _catalan_cone_exponents(label, n):
    """(1, m_i + (n - 1) h), sorted: the exponents of the cone over the
    extended Catalan arrangement Cat^{n-1} of the root system, which is
    free (conjectured by Edelman and Reiner, proved by Yoshinaga) and is
    what gen_wreath builds for n <= 3."""
    exponents, h = _exponents_and_coxeter_number(label)
    return tuple(sorted([1] + [m + (n - 1) * h for m in exponents]))


@pytest.mark.parametrize("label", [arr.label for arr in small_corpus()
                                   if arr.label.startswith("wreath-A")])
def test_type_a_wreath_exponents_and_e_count(label, corpus, tmp_path,
                                             capsys):
    """Each type-A wreath of the corpus (A1-A3, n = 2 and 3) is found free
    with the exponents (1, m_i + (n - 1) h), and `cmarr analyze --e-count`
    on its emitted file prints the Fuss-Catalan number."""
    arr = next(a for a in corpus if a.label == label)
    _, root, n = label.split("-")
    verdict = inductive_freeness(arr)
    assert verdict.status == "InductivelyFree"
    assert verdict.exponents == _catalan_cone_exponents(root, int(n))
    path = tmp_path / "wreath.arr"
    path.write_text(emit_arrangement(arr))
    assert main(["analyze", str(path), "--e-count"]) == 0
    assert "e-count: %d\n" % _fuss_catalan(root, int(n)) \
        in capsys.readouterr().out


def test_wreath_a4_3_verdict_golden():
    golden = json.loads(FRONTIER_GOLDEN.read_text())["wreath-A4-3"]
    verdict = inductive_freeness(gen_wreath("A4", 5, 3))
    assert json.loads(json.dumps(verdict.to_dict())) \
        == golden["inductive_freeness"]
    assert verdict.exponents == _catalan_cone_exponents("A4", 3)


def test_wreath_d4_2_plain_build_golden():
    golden = json.loads(FRONTIER_GOLDEN.read_text())["wreath-D4-2"]
    arr = gen_wreath("D4", 6, 2)
    assert arr.weyl is None
    lat = build_lattice(arr)
    assert len(lat.flats) == golden["flats"]
    assert list(poincare_polynomial(lat).coeffs) == golden["poincare"]
    verdict = inductive_freeness(arr, lattice=lat)
    assert json.loads(json.dumps(verdict.to_dict())) \
        == golden["inductive_freeness"]
    assert verdict.exponents == _catalan_cone_exponents("D4", 2)


def test_inductive_freeness_rejects_foreign_lattice():
    arr = gen_G8()
    # equal hyperplanes, but another object: the lattice is not arr's
    with pytest.raises(FlatNotInLattice, match="another arrangement"):
        inductive_freeness(arr, lattice=build_lattice(gen_G8()))
    with pytest.raises(FlatNotInLattice, match="another arrangement"):
        inductive_freeness(arr, lattice=build_lattice(MOMENT6))


def test_inductive_freeness_uses_the_lattice_handed_in(monkeypatch):
    arr = gen_G8()
    lat = build_lattice(arr)
    built = []
    real = free_mod.build_lattice

    def counting(a):
        built.append(len(a))
        return real(a)

    monkeypatch.setattr(free_mod, "build_lattice", counting)
    assert inductive_freeness(arr, lattice=lat).status == "InductivelyFree"
    assert len(arr) not in built


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


# ---------------------------------------------------------------------------
# coloops: the only search children that lose rank

COLOOP_GOLDEN = GOLDEN.with_name("freeness_coloop_golden.json")


def _with_coloops(arr, extra):
    """arr in `extra` more coordinates, plus the hyperplane x_i = 0 of each
    new coordinate i: every added hyperplane is a coloop."""
    d = arr.dim + extra
    covs = [c + (0,) * extra for c in arr.hyperplanes]
    covs += [tuple(int(j == i) for j in range(d)) for i in range(arr.dim, d)]
    return Arrangement(d, covs)


COLOOP_CASES = {
    "G8+e4": lambda: _with_coloops(gen_G8(), 1),
    "A2+e3": lambda: _with_coloops(gen_coxeter_namikawa((3,)), 1),
    "boolean-3": lambda: _with_coloops(Arrangement(0, []), 3),
}


@pytest.mark.parametrize("name", sorted(COLOOP_CASES))
def test_coloop_verdict_golden(name):
    golden = json.loads(COLOOP_GOLDEN.read_text())[name]
    verdict = inductive_freeness(COLOOP_CASES[name]())
    assert json.loads(json.dumps(verdict.to_dict())) == golden
    assert any(0 in step["deletion_exponents"]
               for step in verdict.witness["chain"])


@pytest.mark.parametrize("make", [
    gen_G8, lambda: gen_wreath("A3", 4, 2), COLOOP_CASES["G8+e4"],
    COLOOP_CASES["boolean-3"]], ids=["G8", "wreath-A3-2", "G8+e4",
                                      "boolean-3"])
def test_search_essentializes_only_coloop_deletions(make, monkeypatch):
    # past the root every node is essential, so the search essentializes
    # only the deletions that lose rank
    seen = []
    real = free_mod.essentialize

    def recording(a):
        seen.append((rank_of(a.hyperplanes, dim=a.dim), a.dim))
        return real(a)

    monkeypatch.setattr(free_mod, "essentialize", recording)
    assert inductive_freeness(make()).status == "InductivelyFree"
    assert all(rank < dim for rank, dim in seen[1:]), seen


# ---------------------------------------------------------------------------
# the search against the definition of inductive freeness


def _reference_exponents(arr):
    """exp(A), zeros included, when A is inductively free by the definition
    (A is empty, or some H has A' and A'' inductively free with exp(A'') a
    sub-multiset of exp(A'), and then exp(A) = exp(A'') + {|A| - |A''|}),
    else None.  Every hyperplane is tried: no exponent filter, no memo."""
    n = len(arr.hyperplanes)
    if n == 0:
        return (0,) * arr.dim
    if arr.dim == 1:
        # the one hyperplane {0}: A'' is empty in dim 0, A' empty in dim 1
        return (1,)
    for h in range(n):
        rst = restriction(arr, h)
        exp2 = _reference_exponents(rst)
        if exp2 is None:
            continue
        exp1 = _reference_exponents(deletion(arr, h))
        if exp1 is not None and Counter(exp2) <= Counter(exp1):
            return tuple(sorted(exp2 + (n - len(rst.hyperplanes),)))
    return None


@settings(deadline=None, max_examples=150)
@given(localization_cases(4, 7))
@example(NO_CHAIN3)
@example(NO_CHAIN4)
def test_search_agrees_with_the_definition(arr):
    want = _reference_exponents(arr)
    v = inductive_freeness(arr)
    assert (v.status == "InductivelyFree") == (want is not None), v
    if want is not None:
        assert (0,) * (arr.dim - arr.rank) + v.exponents == want
