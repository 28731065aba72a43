import hashlib
import itertools
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import cmarr.lattice as lattice_mod
import cmarr.osalg as osalg_mod
from cmarr.errors import FlatNotInLattice
from cmarr.lattice import (Arrangement, _bits, build_lattice,
                           whitney_numbers)
from cmarr.generators import gen_G4, gen_G8, gen_dihedral_even, gen_wreath
from cmarr.osalg import circuits, nbc_basis, os_dimension
from cmarr.exactlin import rank_of
from cmarr.symmetry import is_stable
from reference import broken_circuits

BOOLEAN2 = Arrangement(2, [(1, 0), (0, 1)])
CONCURRENT3 = Arrangement(2, [(1, 0), (0, 1), (1, 1)])


def test_circuits_boolean_none():
    assert len(circuits(BOOLEAN2)) == 0


def test_circuits_three_concurrent():
    assert circuits(CONCURRENT3).circuits == ((0, 1, 2),)


def test_circuits_dihedral_all_triples():
    assert circuits(gen_dihedral_even()).circuits == \
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_circuit_minimality(corpus):
    for arr in corpus:
        ranks = {}  # index tuple -> rank; circuits share one-smaller subsets

        def rank(idx):
            if idx not in ranks:
                ranks[idx] = rank_of([arr.hyperplanes[i] for i in idx])
            return ranks[idx]

        for c in circuits(arr):
            assert rank(c) == len(c) - 1
            for drop in c:
                rest = tuple(i for i in c if i != drop)
                assert rank(rest) == len(rest)


def test_broken_circuits_drop_least():
    cs = circuits(gen_dihedral_even())
    bcs = broken_circuits(cs, (0, 1, 2, 3))
    assert sorted(tuple(sorted(b)) for b in bcs) == \
        [(1, 2), (1, 3), (2, 3), (2, 3)]


def test_nbc_dihedral_natural_order():
    basis = nbc_basis(gen_dihedral_even())
    assert basis.sizes == (1, 4, 3)
    assert basis.total == 8
    assert basis.sets_by_size[2] == ((0, 1), (0, 2), (0, 3))


def test_nbc_three_concurrent():
    basis = nbc_basis(CONCURRENT3)
    assert basis.sets_by_size == (((),),
                                  ((0,), (1,), (2,)),
                                  ((0, 1), (0, 2)))


def test_nbc_boolean_all_subsets():
    assert nbc_basis(BOOLEAN2).total == 4


def test_os_dimension_examples():
    assert os_dimension(gen_dihedral_even()) == 8
    assert os_dimension(gen_G4()) == 12
    assert os_dimension(gen_G8()) == 336


def test_nbc_counts_order_invariant_equal_whitney(corpus):
    rng = random.Random(20240824)
    for arr in corpus:
        if len(arr.hyperplanes) > 25:
            continue  # keep circuit enumeration quick
        wn = whitney_numbers(build_lattice(arr))
        n = len(arr.hyperplanes)
        orders = [tuple(range(n))]
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            orders.append(tuple(order))
        for order in orders:
            assert nbc_basis(arr, order).sizes == wn


@st.composite
def factored_arrangements(draw):
    """At most 7 covectors in dim <= 4: small rows plus sparse integer
    combinations of them whose coefficients carry large factors, so that
    small circuits occur among rows with large entries."""
    d = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    base = draw(st.lists(vec, min_size=2, max_size=4))
    coeff = st.tuples(st.sampled_from([-1, 0, 1, 1]),
                      st.integers(1, 10 ** 9))
    rows = list(base)
    for _ in range(draw(st.integers(1, 7 - len(base)))):
        cs = draw(st.lists(coeff, min_size=len(base), max_size=len(base)))
        row = [sum(s * f * b[j] for (s, f), b in zip(cs, base))
               for j in range(d)]
        if any(row):
            rows.append(row)
    return Arrangement(d, draw(st.permutations(rows)))


def _brute_force_circuits(arr):
    """Every subset of rank |S| - 1 all of whose one-smaller subsets are
    independent."""
    covs = arr.hyperplanes
    out = []
    for k in range(1, len(covs) + 1):
        for s in itertools.combinations(range(len(covs)), k):
            rows = [covs[i] for i in s]
            if rank_of(rows) == k - 1 and all(
                    rank_of(rows[:j] + rows[j + 1:]) == k - 1
                    for j in range(k)):
                out.append(s)
    return sorted(out)


@settings(deadline=None, max_examples=80)
@given(factored_arrangements())
def test_circuits_match_brute_force(arr):
    assert list(circuits(arr).circuits) == _brute_force_circuits(arr)


def _brute_force_nbc(arr, order):
    """Every index set of at most rank elements that is independent and
    has no subset among the broken circuits, by scanning, grouped by size;
    larger sets are dependent."""
    bcs = set(broken_circuits(circuits(arr), order))
    covs = arr.hyperplanes
    out = []
    for k in range(arr.rank + 1):
        out.append(tuple(
            s for s in itertools.combinations(range(len(covs)), k)
            if rank_of([covs[i] for i in s]) == k
            and not any(frozenset(t) in bcs
                        for j in range(1, k + 1)
                        for t in itertools.combinations(s, j))))
    return tuple(out)


def _orders(n, rng):
    """The natural order and two random ones."""
    orders = [tuple(range(n))]
    for _ in range(2):
        order = list(range(n))
        rng.shuffle(order)
        orders.append(tuple(order))
    return orders


def _with_parallel_copy(arr, i, f):
    """arr plus f times its covector i, kept as a separate hyperplane (an
    `Arrangement` would deduplicate it), so that {i, n} is a circuit."""
    covs = arr.hyperplanes
    return SimpleNamespace(dim=arr.dim, rank=arr.rank, weyl=None, tags=None,
                           hyperplanes=covs + (tuple(f * x for x in covs[i]),))


@st.composite
def nbc_cases(draw):
    """A factored arrangement, sometimes with a scaled copy of one of its
    covectors added (not deduplicated, so a circuit of size 2 and a broken
    circuit of size 1 occur), and a random seed for the orders."""
    arr = draw(factored_arrangements())
    if draw(st.booleans()):
        arr = _with_parallel_copy(
            arr, draw(st.integers(0, len(arr.hyperplanes) - 1)),
            draw(st.sampled_from([2, -3])))
    return arr, draw(st.integers(0, 2 ** 32))


@settings(deadline=None, max_examples=80)
@given(nbc_cases())
def test_nbc_basis_matches_definition(case):
    arr, seed = case
    for order in _orders(len(arr.hyperplanes), random.Random(seed)):
        assert nbc_basis(arr, order).sets_by_size == \
            _brute_force_nbc(arr, order)


def test_nbc_basis_matches_definition_g8():
    arr = gen_G8()
    for order in _orders(len(arr.hyperplanes), random.Random(8)):
        assert nbc_basis(arr, order).sets_by_size == \
            _brute_force_nbc(arr, order)


def test_circuits_with_negated_copy():
    arr = _with_parallel_copy(CONCURRENT3, 2, -1)
    assert circuits(arr).circuits == ((0, 1, 2), (0, 1, 3), (2, 3))


def test_nbc_basis_with_negated_copy_every_order():
    """The circuit {2, 3} has an empty rest, so its top is forbidden from
    the root: under every order the nbc sets match the definition."""
    arr = _with_parallel_copy(CONCURRENT3, 2, -1)
    cs = circuits(arr)
    assert len(cs) == len(cs.masks) == 3
    for order in itertools.permutations(range(len(arr.hyperplanes))):
        assert nbc_basis(arr, order).sets_by_size == \
            _brute_force_nbc(arr, order)


@settings(deadline=None, max_examples=60)
@given(factored_arrangements(), st.data())
def test_circuits_match_brute_force_with_parallel_copy(arr, data):
    i = data.draw(st.integers(0, len(arr.hyperplanes) - 1))
    arr = _with_parallel_copy(arr, i, data.draw(st.sampled_from([-1, 2, -3])))
    found = list(circuits(arr).circuits)
    assert (i, len(arr.hyperplanes) - 1) in found
    assert found == _brute_force_circuits(arr)


def _assert_joins_match_lattice(arr):
    """For every flat x of L(arr), each entry h of `joins(x)` is the least
    flat containing x and h, by a scan of the flats."""
    lat = build_lattice(arr)
    flats = [f.mask for f in lat.flats]
    for x in flats:
        jx = lat.joins(x)
        assert len(jx) == len(arr.hyperplanes)
        above_x = [f for f in flats if f & x == x]
        for h, y in enumerate(jx):
            s = x | 1 << h
            above = [f for f in above_x if f & s == s]
            least = min(above, key=int.bit_count)
            assert all(f & least == least for f in above)
            assert y == least


def test_joins_match_lattice(corpus):
    for arr in corpus:
        _assert_joins_match_lattice(arr)


@settings(deadline=None, max_examples=60)
@given(nbc_cases())
def test_joins_match_lattice_random(case):
    _assert_joins_match_lattice(case[0])


def test_joins_reject_a_mask_that_is_no_flat():
    lat = build_lattice(CONCURRENT3)
    assert lat.joins(0b001) == (0b001, 0b111, 0b111)
    with pytest.raises(FlatNotInLattice):
        lat.joins(0b011)


def test_circuits_and_nbc_basis_read_the_lattice_handed_in():
    arr = gen_G8()
    lat = build_lattice(arr)
    assert circuits(arr, lattice=lat).masks == circuits(arr).masks
    assert nbc_basis(arr, lattice=lat).total == 336
    assert lat.joins(0) is lat.joins(0)


@pytest.mark.parametrize("run", [
    lambda arr, lat: circuits(arr, lattice=lat),
    lambda arr, lat: nbc_basis(arr, lattice=lat)], ids=["circuits", "nbc"])
def test_foreign_lattice_is_rejected(run):
    arr = gen_G8()
    # equal hyperplanes, but another object: the lattice is not arr's
    with pytest.raises(FlatNotInLattice, match="another arrangement"):
        run(arr, build_lattice(gen_G8()))


CIRCUITS_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "circuits_golden.json")
    .read_text())
GOLDEN_BASES = {"G8": gen_G8, "wreath-A3-2": lambda: gen_wreath("A3", 4, 2),
                "wreath-A3-3": lambda: gen_wreath("A3", 4, 3),
                "wreath-A4-2": lambda: gen_wreath("A4", 5, 2)}


@pytest.mark.parametrize("name", sorted(CIRCUITS_GOLDEN))
def test_circuits_golden(name):
    """Count and sha256 of the compact JSON of the sorted circuit list,
    taken from the elimination-per-subset enumeration that preceded the
    join search."""
    found = circuits(GOLDEN_BASES[name]()).circuits
    digest = hashlib.sha256(
        json.dumps(found, separators=(",", ":")).encode()).hexdigest()
    assert {"count": len(found), "sha256": digest} == CIRCUITS_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CIRCUITS_GOLDEN))
def test_circuit_masks_match_tuples(name):
    """`masks`, in the order the search finds them, and the sorted index
    tuples of `circuits` are the same sets, with no repeats."""
    cs = circuits(GOLDEN_BASES[name]())
    assert len(cs) == len(cs.masks) == len(cs.circuits)
    assert len(set(cs.masks)) == len(cs.masks)
    assert sorted(tuple(_bits(m)) for m in cs.masks) == list(cs.circuits)
    assert {sum(1 << h for h in c) for c in cs} == set(cs.masks)


def test_nbc_basis_matches_definition_wreath_a3_2():
    """The natural order, read off the circuit groups directly, and the
    reversed order, read as a relabelling of the hyperplanes."""
    arr = gen_wreath("A3", 4, 2)
    n = len(arr.hyperplanes)
    for order in (tuple(range(n)), tuple(reversed(range(n)))):
        assert nbc_basis(arr, order).sets_by_size == \
            _brute_force_nbc(arr, order)


def test_nbc_basis_reversed_order_ignores_kept_layout_and_lattice():
    """G8 checked stable keeps its generators' hyperplane permutations,
    which do not describe the relabelled hyperplanes, and the lattice
    handed in is G8's own, which is read relabelled; under the reversed
    order the nbc sets still match the definition."""
    arr = gen_G8()
    assert is_stable(arr, arr.weyl)
    assert arr._perms is not None
    lat = build_lattice(arr)
    order = tuple(reversed(range(len(arr.hyperplanes))))
    basis = nbc_basis(arr, order, lattice=lat)
    assert basis.order == order
    assert basis.sets_by_size == _brute_force_nbc(arr, order)
    with pytest.raises(FlatNotInLattice, match="another arrangement"):
        nbc_basis(arr, order, lattice=build_lattice(gen_G8()))


def test_nbc_basis_reversed_order_builds_no_lattice_and_no_rank(monkeypatch):
    """Under another order, nbc_basis reads the lattice handed in through
    `relabelled`: no lattice is built and no rank computed."""
    arr = gen_G8()
    lat = build_lattice(arr)
    order = tuple(reversed(range(len(arr.hyperplanes))))
    expected = _brute_force_nbc(arr, order)
    calls = []

    def counted(name, real):
        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counting

    # each module's binding of either name, where it has one
    for mod in (lattice_mod, osalg_mod):
        for name in ("build_lattice", "rank_of"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    counted(name, getattr(mod, name)))
    assert nbc_basis(arr, order, lattice=lat).sets_by_size == expected
    assert calls == []


@pytest.mark.parametrize("name", ["G8", "wreath-A3-2"])
def test_relabelled_lattice_circuits_are_mapped_circuits(name):
    """The circuits read off L(A) relabelled by `order` are L(A)'s, each
    index h moved to its position in `order`."""
    arr = GOLDEN_BASES[name]()
    lat = build_lattice(arr)
    n = len(arr.hyperplanes)
    for order in _orders(n, random.Random(n))[1:] + [tuple(range(n))[::-1]]:
        rel = lat.relabelled(order)
        where = [order.index(h) for h in range(n)]
        assert circuits(rel.arrangement, lattice=rel).circuits == tuple(
            sorted(tuple(sorted(where[h] for h in c))
                   for c in circuits(arr, lattice=lat).circuits))
