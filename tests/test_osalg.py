import itertools
import random

from hypothesis import given, settings, strategies as st

from cmarr.lattice import Arrangement, build_lattice, whitney_numbers
from cmarr.generators import gen_G4, gen_G8, gen_dihedral_even
from cmarr.osalg import broken_circuits, circuits, nbc_basis, os_dimension
from cmarr.exactlin import rank_of

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
        for c in circuits(arr):
            assert rank_of([arr.hyperplanes[i] for i in c]) == len(c) - 1
            for drop in c:
                rest = [arr.hyperplanes[i] for i in c if i != drop]
                assert rank_of(rest) == len(rest)


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
