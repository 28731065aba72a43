import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cmarr.errors import BadPrime, InconsistentCounts, MobiusSignViolation
from cmarr.exactlin import common_kernel, in_row_span, rref
from cmarr.generators import gen_G4, gen_G8, gen_cyclic, gen_dihedral_even
from cmarr.intpoly import IntPolynomial
from cmarr.lattice import (Arrangement, admissible_primes, bad_primes,
                           build_lattice, char_poly_finite_field,
                           characteristic_polynomial, complement_count,
                           essentialize, mobius_by_rank,
                           poincare_polynomial, whitney_numbers)

BOOLEAN2 = Arrangement(2, [(1, 0), (0, 1)])
CONCURRENT3 = Arrangement(2, [(1, 0), (0, 1), (1, 1)])


def test_boolean_pair_lattice():
    lat = build_lattice(BOOLEAN2)
    assert len(lat.flats) == 4
    assert sorted(f.mobius for f in lat.flats) == [-1, -1, 1, 1]


def test_three_concurrent_lines_center_mobius():
    lat = build_lattice(CONCURRENT3)
    assert len(lat.flats) == 5
    center = [f for f in lat.flats if f.rank == 2]
    assert len(center) == 1 and center[0].mobius == 2


def test_g4_center_mobius():
    lat = build_lattice(gen_G4())
    center = [f for f in lat.flats if f.rank == 2]
    assert len(center) == 1 and center[0].mobius == 5


def test_poincare_empty():
    lat = build_lattice(Arrangement(3, []))
    assert poincare_polynomial(lat) == IntPolynomial([1])


def test_poincare_g8():
    lat = build_lattice(gen_G8())
    expected = IntPolynomial.from_factors([[1, 1], [1, 11], [1, 13]])
    assert poincare_polynomial(lat) == expected


def test_poincare_dihedral():
    lat = build_lattice(gen_dihedral_even())
    assert poincare_polynomial(lat) == IntPolynomial([1, 4, 3])


def test_char_poly_boolean():
    lat = build_lattice(BOOLEAN2)
    assert characteristic_polynomial(lat) == IntPolynomial([1, -2, 1])


def test_char_poly_concurrent():
    lat = build_lattice(CONCURRENT3)
    assert characteristic_polynomial(lat) == IntPolynomial([2, -3, 1])


def test_char_poly_cyclic3():
    lat = build_lattice(gen_cyclic(3))
    assert characteristic_polynomial(lat) == IntPolynomial([2, -3, 1])


def test_whitney_g4():
    assert whitney_numbers(build_lattice(gen_G4())) == (1, 6, 5)


def test_whitney_dihedral():
    assert whitney_numbers(build_lattice(gen_dihedral_even())) == (1, 4, 3)


def test_whitney_single_hyperplane():
    assert whitney_numbers(build_lattice(Arrangement(1, [(1,)]))) == (1, 1)


def test_complement_count_concurrent_q5():
    assert complement_count(CONCURRENT3, 5) == 12


def test_complement_count_boolean_q7():
    assert complement_count(BOOLEAN2, 7) == 36


def test_ff_g8_paper_primes():
    chi = char_poly_finite_field(gen_G8(), [101, 103, 107, 109])
    assert chi == characteristic_polynomial(build_lattice(gen_G8()))
    # pi(t) = (-t)^dim chi(-1/t)
    assert chi == IntPolynomial([-143, 167, -25, 1])


def test_ff_rejects_bad_prime():
    bad = sorted(bad_primes(gen_G8()))
    assert bad, "G8 should have at least one degenerate prime"
    with pytest.raises(BadPrime):
        char_poly_finite_field(gen_G8(), [bad[0], 101, 103, 107])


def test_ff_rejects_nonprime():
    with pytest.raises(BadPrime):
        char_poly_finite_field(BOOLEAN2, [9, 11, 13])


def test_ff_needs_dim_plus_one_primes():
    with pytest.raises(ValueError):
        char_poly_finite_field(BOOLEAN2, [5, 7])


def test_ff_detects_inconsistent_counts(monkeypatch):
    import cmarr.lattice as lat_mod
    real = lat_mod.complement_count

    def corrupted(arr, q):
        return real(arr, q) + (1 if q == 13 else 0)

    monkeypatch.setattr(lat_mod, "complement_count", corrupted)
    with pytest.raises(InconsistentCounts):
        lat_mod.char_poly_finite_field(CONCURRENT3, [5, 7, 11, 13])


def test_admissible_primes_avoid_bad_set():
    arr = gen_G8()
    bad = bad_primes(arr)
    primes = admissible_primes(arr, 4)
    assert len(primes) == 4
    assert not bad.intersection(primes)


def test_essentialize_preserves_combinatorics():
    # a non-essential arrangement: two planes in dim 3 sharing a line
    arr = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    ess = essentialize(arr)
    assert ess.dim == 2
    assert whitney_numbers(build_lattice(ess)) == \
        whitney_numbers(build_lattice(arr))


def test_mobius_zero_sums_and_signs(corpus):
    for arr in corpus:
        lat = build_lattice(arr)
        for f in lat.flats:
            if f.rank == 0:
                assert f.mobius == 1
                continue
            below = sum(g.mobius for g in lat.flats
                        if g.hyperplanes <= f.hyperplanes)
            assert below == 0
            assert f.mobius * (-1) ** f.rank > 0


def test_poincare_degree_and_w1(corpus):
    for arr in corpus:
        p = poincare_polynomial(build_lattice(arr))
        assert p.coeffs[0] == 1
        assert all(c >= 0 for c in p.coeffs)
        assert p.degree == arr.rank
        assert p.coeffs[1] == len(arr.hyperplanes)


def test_mobius_sign_violation_is_typed():
    assert mobius_by_rank([[0], [0b01, 0b10], [0b11]]) == [[1], [-1, -1], [1]]
    # a "rank 2" mask lying above the bottom only gets mu = -1
    with pytest.raises(MobiusSignViolation):
        mobius_by_rank([[0], [0b01], [0b10]])
    # a "rank 2" mask with a single element below it gets mu = 0
    with pytest.raises(MobiusSignViolation):
        mobius_by_rank([[0], [0b01], [0b01]])


def _brute_force_flats(arr):
    """Flats as (hyperplane set, rank, mu) from every subset S of A: its
    closure is a flat, and mu(X) = sum of (-1)^|S| over the S closing to X
    (Whitney's formula)."""
    covs = arr.hyperplanes
    n = len(covs)
    rank, mu = {}, {}
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            rows = rref([covs[i] for i in subset])
            x = frozenset(i for i in range(n) if in_row_span(covs[i], rows))
            rank[x] = len(rows)
            mu[x] = mu.get(x, 0) + (-1) ** k
    return {(x, rank[x], mu[x]) for x in mu}


@st.composite
def small_arrangements(draw):
    d = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    return Arrangement(d, draw(st.lists(vec, max_size=7)))


@settings(deadline=None, max_examples=60)
@given(small_arrangements())
def test_build_lattice_matches_brute_force(arr):
    lat = build_lattice(arr)
    got = [(f.hyperplanes, f.rank, f.mobius) for f in lat.flats]
    assert len(got) == len(set(got))
    assert set(got) == _brute_force_flats(arr)
    for r, level in enumerate(lat.by_rank):
        keys = [tuple(sorted(f.hyperplanes)) for f in level]
        assert keys == sorted(keys)
        assert all(f.rank == r for f in level)


def test_lazy_subspace_is_common_kernel():
    arr = gen_G8()
    for f in build_lattice(arr).flats:
        sub = common_kernel([arr.hyperplanes[i] for i in f.hyperplanes],
                            dim=arr.dim)
        assert f.subspace == sub
        assert f.subspace.dim == arr.dim - f.rank
