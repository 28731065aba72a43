from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cmarr.errors import DimensionMismatch, ZeroCovector
from cmarr.exactlin import (Subspace, common_kernel, echelon, in_row_span,
                            normalize_covector, rank_of, reduce_covector,
                            restrict_covectors_to, rref)
from cmarr.generators import gen_G8
from cmarr.lattice import Arrangement, essentialize


def test_normalize_integer_input():
    assert normalize_covector((-2, 4, -6)) == (1, -2, 3)


def test_normalize_single_entry():
    assert normalize_covector((0, 0, 5)) == (0, 0, 1)


def test_normalize_rational_input():
    assert normalize_covector((Fraction(1, 3), Fraction(-1, 6), 0)) \
        == (2, -1, 0)


def test_normalize_zero_raises():
    with pytest.raises(ZeroCovector):
        normalize_covector((0, 0, 0))


def test_rank_empty():
    assert rank_of([]) == 0


def test_rank_plane():
    assert rank_of([(1, 0), (0, 1), (1, 1)]) == 2


def test_rank_g8_is_full():
    assert rank_of(gen_G8().hyperplanes) == 3


def test_rank_mixed_dims_raises():
    with pytest.raises(DimensionMismatch):
        rank_of([(1, 0), (1, 0, 0)])


def test_common_kernel_single():
    sub = common_kernel([(1, 0, 0)])
    assert sub.dim == 2
    assert sub.basis == ((0, 1, 0), (0, 0, 1))


def test_common_kernel_two_forms():
    sub = common_kernel([(1, -1, 0), (0, 1, -1)])
    assert sub.basis == ((1, 1, 1),)


def test_common_kernel_full_rank():
    sub = common_kernel([(1, 0), (0, 1), (1, 1)])
    assert sub.dim == 0


def test_common_kernel_empty_is_full_space():
    sub = common_kernel([], dim=3)
    assert sub == Subspace.full(3)


def test_restrict_merges_covectors():
    line = Subspace(2, [(1, 1)])
    assert restrict_covectors_to(line, [(1, 0), (0, 1)]) == ((1,),)


def test_restrict_drops_vanishing():
    sub = Subspace(3, [(1, 1, 0), (0, 0, 1)])
    assert restrict_covectors_to(sub, [(1, -1, 0)]) == ()


def test_restrict_zero_sum_block():
    # differences kappa_i - kappa_j restricted to the zero-sum plane; a
    # rescaled duplicate collapses, leaving 3 covectors of rank 2
    forms = [(1, -1, 0), (1, 0, -1), (0, 1, -1), (-2, 2, 0)]
    sub = common_kernel([(1, 1, 1)])
    out = restrict_covectors_to(sub, forms)
    assert len(out) == 3
    assert rank_of(out) == 2


small_fracs = st.fractions(min_value=-50, max_value=50)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=5),
       small_fracs.filter(lambda f: f != 0))
def test_normalize_scale_invariant(entries, scale):
    if all(x == 0 for x in entries):
        entries[0] = 1
    base = normalize_covector(entries)
    assert normalize_covector([scale * x for x in entries]) == base
    assert normalize_covector(base) == base


@given(st.lists(st.lists(st.integers(-10, 10), min_size=3, max_size=3),
                min_size=0, max_size=5))
def test_rank_plus_kernel_dimension(rows):
    rows = [r for r in rows if any(r)]
    assert rank_of(rows) + common_kernel(rows, dim=3).dim == 3


def test_restriction_rank_bounded():
    from cmarr.generators import G8_AMBIENT
    sub = common_kernel([(1, 1, 1, 1)])
    out = restrict_covectors_to(sub, G8_AMBIENT)
    assert len(out) == 25
    assert rank_of(out) == sub.dim == 3


@st.composite
def rows_and_probe(draw):
    """Integer rows, some of them integer combinations of the others with a
    shared large factor, and a probe covector inside or outside their span.
    Entries reach 10**12."""
    d = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3),
                      st.integers(-10 ** 12, 10 ** 12))
    vec = st.lists(entry, min_size=d, max_size=d)
    base = draw(st.lists(vec, max_size=4))
    coeffs = st.lists(st.integers(-5, 5), min_size=len(base),
                      max_size=len(base))

    def combination():
        factor = draw(st.integers(1, 10 ** 9))
        cs = draw(coeffs)
        return [factor * sum(c * b[j] for c, b in zip(cs, base))
                for j in range(d)]

    rows = list(base)
    if base:
        rows += [combination() for _ in range(draw(st.integers(0, 3)))]
    rows = draw(st.permutations(rows))
    if base and draw(st.booleans()):
        probe = combination()
    else:
        probe = draw(vec)
    return rows, probe


@settings(deadline=None)
@given(rows_and_probe())
def test_integer_kernel_matches_fraction_rref(case):
    rows, probe = case
    reduced = rref(rows)
    ech = echelon(rows)
    assert len(ech) == len(reduced) == rank_of(rows)
    res = reduce_covector(probe, ech)
    assert (res is None) == in_row_span(probe, reduced)
    if res is not None:
        assert normalize_covector(res) == res
        assert rank_of(list(rows) + [res]) == len(reduced) + 1
    pivots = [next(j for j, x in enumerate(r) if x) for r in ech]
    assert pivots == sorted(set(pivots))
    if res is not None:
        assert all(res[p] == 0 for p in pivots)


# ---------------------------------------------------------------------------
# the Fraction route, kept as the reference for the integer one


def _reference_normalize(raw):
    """Clear denominators over Fraction, divide by the gcd, make the first
    nonzero entry positive."""
    vals = [Fraction(x) for x in raw]
    den = 1
    for v in vals:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vals]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    sign = next(1 if x > 0 else -1 for x in ints if x)
    return tuple(sign * x // g for x in ints)


def _reference_restrict(sub, covectors):
    """Coordinates over sub's Fraction basis, normalized, first one kept."""
    out = []
    for c in covectors:
        coords = [sum(Fraction(ci) * bi for ci, bi in zip(c, row))
                  for row in sub.basis]
        if any(coords):
            nc = _reference_normalize(coords)
            if nc not in out:
                out.append(nc)
    return tuple(out)


def _reference_essentialize(arr):
    """Coordinates over the Fraction RREF basis of the span: the entries at
    its pivot columns."""
    reduced = rref(arr.hyperplanes)
    pivots = [next(j for j, x in enumerate(r) if x) for r in reduced]
    return tuple(_reference_normalize([c[p] for p in pivots])
                 for c in arr.hyperplanes)


@st.composite
def spanned_covectors(draw):
    """(d, integer covectors in Q^d), d <= 5: small base rows, often fewer
    than d, plus sparse combinations of them whose coefficients carry large
    factors."""
    d = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    base = draw(st.lists(vec, min_size=1, max_size=d))
    coeff = st.tuples(st.sampled_from([-1, 0, 1, 1]),
                      st.integers(1, 10 ** 9))
    rows = list(base)
    for _ in range(draw(st.integers(0, 5))):
        cs = draw(st.lists(coeff, min_size=len(base), max_size=len(base)))
        row = [sum(s * f * b[j] for (s, f), b in zip(cs, base))
               for j in range(d)]
        if any(row):
            rows.append(row)
    return d, draw(st.permutations(rows))


@settings(deadline=None, max_examples=80)
@given(spanned_covectors())
def test_essentialize_matches_fraction_reference(case):
    d, rows = case
    arr = Arrangement(d, rows)
    ess = essentialize(arr)
    assert ess.dim == arr.rank
    assert ess.hyperplanes == _reference_essentialize(arr)


@settings(deadline=None, max_examples=80)
@given(spanned_covectors(),
       st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5),
                min_size=1, max_size=4))
def test_restrict_matches_fraction_reference(case, sub_rows):
    d, covs = case
    sub = Subspace(d, [r[:d] for r in sub_rows])
    if sub.dim == 0:
        return
    out = restrict_covectors_to(sub, covs)
    assert out == _reference_restrict(sub, covs)
    assert all(type(x) is int for c in out for x in c)


@given(st.lists(st.one_of(st.integers(-3, 3),
                          st.integers(-10 ** 12, 10 ** 12)),
                min_size=1, max_size=6).filter(any),
       st.integers(10 ** 9, 10 ** 18))
def test_normalize_integer_matches_fraction(entries, factor):
    for ints in (entries, [factor * x for x in entries]):
        got = normalize_covector(ints)
        assert got == normalize_covector([Fraction(x) for x in ints])
        assert got == _reference_normalize(ints)
        assert all(type(x) is int for x in got)
