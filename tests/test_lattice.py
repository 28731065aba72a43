import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import cmarr.lattice as lattice_mod
from cmarr.errors import (BadPrime, CmarrError, FlatNotInLattice,
                          InconsistentCounts, InvalidParams,
                          MobiusSignViolation)
from cmarr.exactlin import (common_kernel, in_row_span, normalize_covector,
                            rref)
from cmarr.freeness import inductive_freeness
from cmarr.generators import (gen_G4, gen_G8, gen_coxeter_namikawa,
                              gen_cyclic, gen_dihedral_even, gen_wreath)
from cmarr.intpoly import IntPolynomial, lagrange_interpolate
from cmarr.lattice import (Arrangement, _bits, _mask_tables, _prime_factors,
                           admissible_primes, bad_primes,
                           build_lattice, char_poly_finite_field,
                           characteristic_polynomial, complement_count,
                           essentialize, poincare_polynomial,
                           whitney_numbers)
from cmarr.osalg import nbc_basis
from cmarr.symmetry import (block_generators, is_stable,
                            terminalization_count)
from reference import mobius_by_rank

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


def _brute_force_count(arr, q):
    """Points of F_q^dim on none of the hyperplanes, by scanning all of
    F_q^dim."""
    return sum(
        1 for x in itertools.product(range(q), repeat=arr.dim)
        if all(sum(c * xi for c, xi in zip(cov, x)) % q
               for cov in arr.hyperplanes))


@st.composite
def counting_cases(draw):
    """An integer arrangement of dim 1-4 and a prime q; last coordinates
    are often 0 or a multiple of q, so that e_dim may or may not lie on a
    hyperplane and some fibers are cut by hyperplanes not involving the
    last coordinate."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 4))
    last = st.one_of(st.just(0), st.integers(-2, 2).map(lambda k: k * q),
                     st.integers(-3, 3))
    vec = st.tuples(st.lists(st.integers(-3, 3), min_size=d - 1,
                             max_size=d - 1), last).map(
        lambda t: t[0] + [t[1]]).filter(any)
    return Arrangement(d, draw(st.lists(vec, max_size=6))), q


@settings(deadline=None, max_examples=150)
@given(counting_cases())
def test_complement_count_matches_brute_force(case):
    arr, q = case
    assert complement_count(arr, q) == _brute_force_count(arr, q)


def _fiber_loop_count(arr, q):
    """Complement points counted on projective representatives, every lead
    a fiber of the last coordinate at a time: an independent reference for
    the (y, x) planes of complement_count."""
    d = arr.dim
    if d == 0:
        return 1
    covs = [tuple(x % q for x in c) for c in arr.hyperplanes]
    if not covs:
        return q ** d
    if d == 1:
        return q - 1
    # e_dim lies on a hyperplane iff its last coefficient vanishes mod q
    total = 1 if all(c[d - 1] for c in covs) else 0
    for lead in range(d - 1):
        # point = (0,)*lead + (1,) + rest + (x,): the covector's value is
        # c[lead] + sum c[lead+1+i]*rest[i] + c[d-1]*x
        pre = []
        for c in covs:
            head = [(i, c[lead + 1 + i]) for i in range(d - 2 - lead)
                    if c[lead + 1 + i]]
            last = c[d - 1]
            inv = pow(last, -1, q) if last else None
            pre.append((c[lead], head, last, inv))
        for rest in itertools.product(range(q), repeat=d - 2 - lead):
            forbidden = set()
            alive = True
            for s, head, last, inv in pre:
                for i, ci in head:
                    s += ci * rest[i]
                s %= q
                if last:
                    forbidden.add((-s * inv) % q)
                elif s == 0:
                    alive = False
                    break
            if alive:
                total += q - len(forbidden)
    return (q - 1) * total


@st.composite
def plane_counting_cases(draw):
    """An integer arrangement of dim 2-6 and a prime q in {11, 13, 17, 23}
    (dim 6 only with q <= 13, to keep the reference quick).  The y and x
    coefficients (the last two) are often 0 or q, so lines, rows,
    covectors cutting no (y, x) plane and dead prefixes, the zero prefix
    among them, all occur; some covectors repeat a (y, x) pair, so they
    share a table."""
    d = draw(st.sampled_from([2, 3, 4, 5, 6]))
    q = draw(st.sampled_from([11, 13] if d == 6 else [11, 13, 17, 23]))
    pair = st.tuples(*[st.sampled_from([0, 0, q, 1, -1, 2, -3])] * 2)
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    vec = st.tuples(
        st.lists(st.sampled_from([0, 0, 1, -1, 2, 5]), min_size=d - 2,
                 max_size=d - 2),
        st.sampled_from(pairs) | pair).map(lambda t: t[0] + list(t[1]))
    return Arrangement(d, draw(st.lists(vec.filter(any), min_size=2,
                                        max_size=6))), q


@settings(deadline=None, max_examples=60)
@given(plane_counting_cases())
def test_complement_count_matches_fiber_loop(case):
    arr, q = case
    assert complement_count(arr, q) == _fiber_loop_count(arr, q)


@pytest.mark.parametrize("arr,q,expected", [
    # e_2 = (0, 1) is off both lines: 25 - (5 + 5 - 1)
    (Arrangement(2, [(1, 1), (1, 2)]), 5, 16),
    # e_3 lies on (1, 2, 5), whose last coefficient vanishes mod 5
    (Arrangement(3, [(1, 2, 5), (0, 1, 1)]), 5, 80),
    # (1, 5, 0) vanishes on both last coordinates mod 5, so the plane of
    # the zero prefix is dead
    (Arrangement(3, [(1, 5, 0), (0, 1, 1)]), 5, 80),
    (Arrangement(3, []), 5, 125),
    (Arrangement(0, []), 7, 1),
    (Arrangement(1, [(3,)]), 7, 6),
    (Arrangement(1, []), 7, 7),
], ids=["e2-in-complement", "e3-on-hyperplane", "zero-prefix-dead",
        "empty-dim3", "dim0", "dim1", "empty-dim1"])
def test_complement_count_explicit_cases(arr, q, expected):
    assert _brute_force_count(arr, q) == expected
    assert complement_count(arr, q) == expected


@pytest.mark.parametrize("arr", [
    gen_G8(), gen_wreath("A3", 4, 2), gen_coxeter_namikawa((6,)),
    gen_coxeter_namikawa((3, 4)), gen_wreath("A4", 5, 2),
], ids=["G8", "wreath-A3-2", "coxeter-S6", "coxeter-S3xS4", "wreath-A4-2"])
def test_complement_count_is_mobius_chi(arr):
    """At the admissible primes.  In the dim-5 cases covectors share
    their last two coefficients (15 covectors have 7 distinct pairs on
    coxeter-S6, 31 have 13 on wreath-A4-2), so every (y, x) plane repeats
    the same line slopes and rows, and some covectors cut no plane."""
    chi = characteristic_polynomial(build_lattice(arr))
    for q in admissible_primes(arr, arr.dim + 2):
        assert complement_count(arr, q) == chi(q)


def test_complement_count_holds_one_base_per_cut():
    """Each (y, x) coefficient pair keeps one plane-sized base and q
    shifts, not q planes, so G8 at q = 401 (a plane of 2*401^2 bits)
    stays small: the per-slope tables of q shifted planes peaked above
    200 MB."""
    arr = gen_G8()
    tracemalloc.start()
    try:
        count = complement_count(arr, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 400 * 390 * 388 == 60528000  # chi_G8(401)
    assert peak < 30 * 10 ** 6


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


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
def test_complement_count_rejects_nonprime(q):
    # Z/q is a field only for prime q
    with pytest.raises(BadPrime, match="%d is not prime" % q) as info:
        complement_count(Arrangement(2, [(1, 0), (0, 1), (1, 2)]), q)
    assert isinstance(info.value, CmarrError)


def test_ff_needs_dim_plus_one_primes():
    with pytest.raises(ValueError):
        char_poly_finite_field(BOOLEAN2, [5, 7])


@pytest.mark.parametrize("call", [
    lambda: Arrangement(2, [(1, 0), (0, 1)], tags=["T"]),
    lambda: char_poly_finite_field(BOOLEAN2, [5, 7]),
    lambda: inductive_freeness(BOOLEAN2, budget=0),
    lambda: nbc_basis(BOOLEAN2, order=(0, 0)),
], ids=["tags-length", "too-few-primes", "budget", "nbc-order"])
def test_argument_errors_are_cmarr_errors(call):
    """A caller catching CmarrError also catches a bad argument."""
    with pytest.raises(CmarrError):
        call()


def test_ff_detects_inconsistent_counts(monkeypatch):
    import cmarr.lattice as lat_mod
    real = lat_mod.complement_count

    def corrupted(arr, q):
        return real(arr, q) + (1 if q == 13 else 0)

    monkeypatch.setattr(lat_mod, "complement_count", corrupted)
    with pytest.raises(InconsistentCounts):
        lat_mod.char_poly_finite_field(CONCURRENT3, [5, 7, 11, 13])


def _fraction_lagrange(points):
    """Reference: the interpolant's ascending Fraction coefficients, one per
    point, from the Lagrange basis polynomials."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j != i:
                # basis * (t - xj) / (xi - xj)
                basis = [(a - xj * b) / (xi - xj)
                         for a, b in zip([0] + basis, basis + [0])]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    return coeffs


integer_nodes = st.lists(st.integers(-40, 60), min_size=1, max_size=7,
                         unique=True)


@settings(deadline=None, max_examples=300)
@given(integer_nodes, st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=7))
def test_interpolation_recovers_integer_polynomials(xs, coeffs):
    poly = IntPolynomial(coeffs[:len(xs)])
    points = [(x, poly(x)) for x in xs]
    assert lagrange_interpolate(points) == poly
    assert _fraction_lagrange(points) \
        == list(poly.coeffs) + [0] * (len(xs) - len(poly.coeffs))


@st.composite
def integer_points(draw):
    xs = draw(integer_nodes)
    ys = draw(st.lists(st.integers(-1000, 1000), min_size=len(xs),
                       max_size=len(xs)))
    return list(zip(xs, ys))


@settings(deadline=None, max_examples=300)
@given(integer_points())
def test_interpolation_rejects_exactly_the_non_integer_interpolants(points):
    ref = _fraction_lagrange(points)
    if all(c.denominator == 1 for c in ref):
        got = lagrange_interpolate(points)
        assert list(got.coeffs) + [0] * (len(ref) - len(got.coeffs)) == ref
    else:
        with pytest.raises(InconsistentCounts):
            lagrange_interpolate(points)


def test_admissible_primes_avoid_bad_set():
    arr = gen_G8()
    bad = bad_primes(arr)
    primes = admissible_primes(arr, 4)
    assert len(primes) == 4
    assert not bad.intersection(primes)


def test_bad_primes_scan_once_per_lattice(monkeypatch):
    # admissible_primes scans and char_poly_finite_field re-checks the
    # primes it is handed: one lattice makes that one scan
    arr = gen_G8()
    lat = build_lattice(arr)
    steps = []
    real = lattice_mod._kernel_step

    def counted(basis, c):
        steps.append(c)
        return real(basis, c)

    monkeypatch.setattr(lattice_mod, "_kernel_step", counted)
    primes = admissible_primes(arr, arr.dim + 2, lattice=lat)
    scan = len(steps)
    assert scan > 0
    char_poly_finite_field(arr, primes, lattice=lat)
    assert len(steps) == scan
    # each call hands out its own set
    bad = bad_primes(arr, lattice=lat)
    want = set(bad)
    bad.add(primes[0])
    assert bad_primes(arr, lattice=lat) == want
    assert len(steps) == scan


def test_bad_primes_factors_each_minor_gcd_once(monkeypatch):
    """Three bases of e1, e2, e3, e1 + e3 and e1 + p e2 have every minor
    divisible by the prime p = 1,000,003, each with gcd p; trial division
    of p is the slow part, so p is factored once."""
    p = 1000003
    arr = Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1),
                          (1, p, 0)])
    calls = []
    real = lattice_mod._prime_factors

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(lattice_mod, "_prime_factors", counted)
    assert bad_primes(arr) == {p}
    assert calls == [p]


def test_ff_primes_factor_no_index(monkeypatch):
    """admissible_primes and char_poly_finite_field test each prime against
    the indices d(X, h) by its remainders.  Here one index is 10^23 - 1 =
    9 * R23, whose trial division would run to about 10^11: no index is
    factored, and 2 and 3, which divide an index, stay bad."""
    arr = Arrangement(2, [(10 ** 23 - 1, 1), (1, 1), (0, 1)])
    real = lattice_mod._prime_factors

    def bounded(x):
        assert x <= 10 ** 6, "factors %d" % x
        return real(x)

    monkeypatch.setattr(lattice_mod, "_prime_factors", bounded)
    lat = build_lattice(arr)
    primes = admissible_primes(arr, 3, lattice=lat)
    assert primes == [5, 7, 11]
    assert char_poly_finite_field(arr, primes, lattice=lat).coeffs \
        == (2, -3, 1)
    with pytest.raises(BadPrime, match="3 divides a critical minor gcd"):
        char_poly_finite_field(arr, [3, 5, 7], lattice=lat)


def test_flat_hyperplanes_read_the_mask(corpus):
    for arr in corpus:
        for f in build_lattice(arr).flats:
            assert f.hyperplanes == frozenset(_bits(f.mask))


def _int_det(rows):
    """Determinant of a small square integer matrix (Bareiss elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _bad_primes_by_bases(arr):
    """bad_primes as it scanned before the flats: the primes dividing the
    gcd of the maximal minors of some basis, over every rank-sized subset
    of the covectors."""
    covs = arr.hyperplanes
    k = arr.rank
    bad = set()
    if k < 2:
        return bad
    for idx in itertools.combinations(range(len(covs)), k):
        g = 0
        for cols in itertools.combinations(range(arr.dim), k):
            g = gcd(g, abs(_int_det([[covs[i][c] for c in cols]
                                     for i in idx])))
            if g == 1:
                break
        if g > 1:
            bad |= _prime_factors(g)
    return bad


def _bad_primes_all_sizes(arr):
    """bad_primes as it scanned before: independent subsets of every size
    from 2 to dim, not bases only."""
    covs = arr.hyperplanes
    d = arr.dim
    bad = set()
    for k in range(2, min(d, len(covs)) + 1):
        for idx in itertools.combinations(range(len(covs)), k):
            g = 0
            for cols in itertools.combinations(range(d), k):
                g = gcd(g, abs(_int_det([[covs[i][c] for c in cols]
                                         for i in idx])))
            if g > 1:
                bad |= _prime_factors(g)
    return bad


@st.composite
def degenerate_arrangements(draw):
    """Rows spanning m independent generators of Q^d, 2 <= d <= 4, so the
    rank may fall below dim; some rows are v + p w for earlier rows v, w
    and a small prime p, so they degenerate mod p."""
    d = draw(st.integers(2, 4))
    entry = st.integers(-3, 3)
    # m unit upper-triangular generators, each also a row: rank m
    m = draw(st.sampled_from([d, d - 1]))
    gens = [[0] * i + [1] + draw(st.lists(entry, min_size=d - i - 1,
                                          max_size=d - i - 1))
            for i in range(m)]
    rows = list(gens)
    for _ in range(draw(st.integers(1, 5))):
        if len(rows) >= 2 and draw(st.booleans()):
            v, w = draw(st.permutations(rows))[:2]
            p = draw(st.sampled_from([2, 3, 5, 7]))
            row = [a + p * b for a, b in zip(v, w)]
        else:
            coefs = draw(st.lists(entry, min_size=len(gens),
                                  max_size=len(gens)))
            row = [sum(c * g[j] for c, g in zip(coefs, gens))
                   for j in range(d)]
        if any(row):
            rows.append(row)
    return Arrangement(d, rows)


@settings(deadline=None, max_examples=150)
@given(degenerate_arrangements())
def test_bad_primes_bases_match_all_sizes(arr):
    assert bad_primes(arr) == _bad_primes_all_sizes(arr)


@settings(deadline=None, max_examples=150)
@given(degenerate_arrangements())
def test_bad_primes_match_basis_scan(arr):
    assert bad_primes(arr) == _bad_primes_by_bases(arr)


@pytest.mark.parametrize("arr, expected", [
    (gen_G8(), {2, 3, 5, 7}),
    (gen_coxeter_namikawa((6,)), {2, 3}),
    (gen_wreath("A3", 4, 2), {2, 3}),
    (gen_wreath("A3", 4, 3), {2, 3, 5, 7}),
    (gen_wreath("A4", 5, 2), {2, 3, 5}),
    # the same covectors without a layout: every flat scanned, no orbits
    (Arrangement(5, gen_wreath("A4", 5, 2).hyperplanes), {2, 3, 5}),
], ids=["G8", "coxeter-S6", "wreath-A3-2", "wreath-A3-3", "wreath-A4-2",
        "wreath-A4-2-no-weyl"])
def test_bad_primes_golden(arr, expected):
    assert bad_primes(arr) == expected
    assert bad_primes(arr, lattice=build_lattice(arr)) == expected


@pytest.mark.parametrize("run", [
    lambda arr, lat: bad_primes(arr, lattice=lat),
    lambda arr, lat: admissible_primes(arr, 4, lattice=lat)],
    ids=["bad_primes", "admissible_primes"])
def test_foreign_lattice_is_rejected(run):
    arr = gen_G8()
    # equal hyperplanes, but another object: the lattice is not arr's
    with pytest.raises(FlatNotInLattice, match="another arrangement"):
        run(arr, build_lattice(gen_G8()))


def test_essentialize_preserves_combinatorics():
    # a non-essential arrangement: two planes in dim 3 sharing a line
    arr = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    ess = essentialize(arr)
    assert ess.dim == 2
    assert whitney_numbers(build_lattice(ess)) == \
        whitney_numbers(build_lattice(arr))


def test_mobius_zero_sums_and_signs(corpus):
    for arr in corpus:
        flats = build_lattice(arr).flats
        for f in flats:
            if f.rank == 0:
                assert f.mobius == 1
                continue
            below = sum(g.mobius for g in flats
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
    flats = lat.flats
    got = [(f.hyperplanes, f.rank, f.mobius) for f in flats]
    assert len(got) == len(set(got))
    assert set(got) == _brute_force_flats(arr)
    assert [(f.mask, f.rank) for f in flats] == [
        (x, r) for r, level in enumerate(lat.masks) for x in level]
    for level in lat.masks:
        keys = [_bits(x) for x in level]
        assert keys == sorted(keys)


def test_flat_rank_is_codim_of_common_kernel():
    """The rank the build gives a flat is the codimension of the common
    kernel of its covectors, by the rational RREF route."""
    arr = gen_G8()
    for f in build_lattice(arr).flats:
        sub = common_kernel([arr.hyperplanes[i] for i in f.hyperplanes],
                            dim=arr.dim)
        assert sub.dim == arr.dim - f.rank


# ---------------------------------------------------------------------------
# Mobius numbers from the build's covers against the O(F^2) reference


def _assert_mobius_matches_reference(arr):
    lat = build_lattice(arr)
    assert [list(mus) for mus in lat.mobius] \
        == mobius_by_rank([list(level) for level in lat.masks])
    for level in lat.masks:
        assert level == tuple(sorted(level, key=_bits))


def test_weisner_mobius_matches_reference(corpus):
    for arr in corpus + [gen_coxeter_namikawa((6,)),
                         gen_coxeter_namikawa((3, 4))]:
        _assert_mobius_matches_reference(arr)


@st.composite
def integer_arrangements(draw):
    """Up to 9 integer covectors in Q^d, 2 <= d <= 5, with frequent zeros
    so that many flats have more hyperplanes than their rank."""
    d = draw(st.integers(2, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    vec = st.lists(entry, min_size=d, max_size=d).filter(any)
    return Arrangement(d, draw(st.lists(vec, max_size=9)))


@st.composite
def symmetric_arrangements(draw):
    """Integer covectors closed under the block generators of a random
    Weyl layout of dimension 1 to 4, in a random hyperplane order."""
    blocks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                  .filter(lambda b: 1 <= sum(m - 1 for m in b) <= 4))
    d = sum(m - 1 for m in blocks)
    gens = block_generators(blocks)
    entry = st.one_of(st.just(0), st.integers(-2, 2))
    seeds = draw(st.lists(st.lists(entry, min_size=d, max_size=d)
                          .filter(any), min_size=1, max_size=2))
    covs = {normalize_covector(c) for c in seeds}
    frontier = list(covs)
    while frontier:
        new = [g.apply_covector(c) for c in frontier for g in gens]
        frontier = [c for c in set(new) if c not in covs]
        covs.update(frontier)
    assume(len(covs) <= 30)
    order = draw(st.permutations(sorted(covs)))
    return Arrangement(d, order, weyl=blocks)


@settings(deadline=None, max_examples=100)
@given(st.one_of(integer_arrangements(), symmetric_arrangements()))
def test_weisner_mobius_matches_reference_random(arr):
    _assert_mobius_matches_reference(arr)


# ---------------------------------------------------------------------------
# The build on W-orbits of flats against the plain build


def _levels(lat):
    return lat.masks, lat.mobius


def _assert_matches_plain(arr):
    """Same masks per level, in the same order, with the same Mobius values
    as the build of the same covectors without a Weyl layout."""
    plain = Arrangement(arr.dim, arr.hyperplanes)
    assert _levels(build_lattice(arr)) == _levels(build_lattice(plain))


def test_orbit_build_matches_plain(corpus):
    arrs = [a for a in corpus if is_stable(a, a.weyl)]
    assert len(arrs) == len(corpus)
    for arr in arrs + [gen_coxeter_namikawa((6,)),
                       gen_coxeter_namikawa((3, 4)),
                       gen_wreath("A3", 4, 3), gen_wreath("A4", 5, 2)]:
        _assert_matches_plain(arr)


def _g8_minus_one():
    g8 = gen_G8()
    return Arrangement(3, g8.hyperplanes[1:], weyl=(4,))


def _g8_layout(weyl):
    return Arrangement(3, gen_G8().hyperplanes, weyl=weyl)


def test_orbit_build_falls_back_without_a_stable_fitting_layout():
    unstable = _g8_minus_one()
    assert not is_stable(unstable, (4,))
    _assert_matches_plain(unstable)
    _assert_matches_plain(_g8_layout((3,)))  # dimension 2, not 3


@settings(deadline=None, max_examples=60)
@given(symmetric_arrangements())
def test_orbit_build_matches_plain_random(arr):
    assert is_stable(arr, arr.weyl)
    _assert_matches_plain(arr)


@settings(deadline=None, max_examples=40)
@given(symmetric_arrangements())
def test_bad_primes_on_orbits_match_basis_scan(arr):
    """bad_primes scans one flat per W-orbit; the basis scan sees no W."""
    assert bad_primes(arr) == _bad_primes_by_bases(arr)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 30).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_mask_tables_map_each_byte_by_definition(perms):
    """tables[k][b] is the image of the mask b << 8k: the union of
    1 << perm[i] over its bits i.  Lengths 1..30 end in a partial byte."""
    for perm, tables in zip(perms, _mask_tables(perms)):
        assert len(tables) == (len(perm) + 7) // 8
        for k, table in enumerate(tables):
            assert len(table) == 1 << min(8, len(perm) - 8 * k)
            for b, image in enumerate(table):
                assert image == sum(1 << perm[i] for i in _bits(b << 8 * k))


def test_lattice_holds_masks_and_mobius_per_rank():
    """The lattice keeps each flat as a mask and a Mobius number in
    per-rank tuples, with no object per flat: under 80 bytes a flat on
    wreath-A4-3 (one Flat object per flat held about 130)."""
    arr = gen_wreath("A4", 5, 3)
    build_lattice(_g8_layout((4,)))  # first orbit build: imports symmetry
    tracemalloc.start()
    try:
        lat = build_lattice(arr)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    flats = sum(len(level) for level in lat.masks)
    assert held < 80 * flats


def _flat_children_calls(monkeypatch, arr):
    """The masks build_lattice hands to flat_children, and the lattice."""
    calls = []
    real = lattice_mod.flat_children

    def counting(covs, x, rows, done):
        calls.append(x)
        return real(covs, x, rows, done)

    monkeypatch.setattr(lattice_mod, "flat_children", counting)
    return calls, build_lattice(arr)


@pytest.mark.parametrize("make, orbits", [
    (lambda: gen_wreath("A4", 5, 2), 38),
    (lambda: gen_wreath("A3", 4, 3), 39),
    (gen_G8, 14)])
def test_orbit_build_reduces_one_flat_per_orbit(monkeypatch, make, orbits):
    calls, lat = _flat_children_calls(monkeypatch, make())
    assert len(calls) == orbits < len(lat.flats)
    # the representatives are the flats reduced, rank by rank
    assert len(lat.representatives) == len(lat.masks)
    assert [x for level in lat.representatives for x in level] == calls


@pytest.mark.parametrize("make", [
    _g8_minus_one, lambda: _g8_layout((3,)), lambda: _g8_layout(None)])
def test_plain_build_reduces_every_flat(monkeypatch, make):
    calls, lat = _flat_children_calls(monkeypatch, make())
    assert len(calls) == len(lat.flats)
    assert [sorted(level) for level in lat.representatives] == [
        sorted(level) for level in lat.masks]


def _reductions(arr):
    """The number of reduce_covector calls in build_lattice(arr), and the
    lattice."""
    calls = []
    real = lattice_mod.reduce_covector

    def counting(vec, rows):
        calls.append(vec)
        return real(vec, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_mod, "reduce_covector", counting)
        lat = build_lattice(arr)
    return len(calls), lat


def _assert_each_flat_reduced_once(arr):
    """Each flat Y is reduced into existence from one flat it covers, by one
    reduction per hyperplane of Y outside that flat, and never again."""
    n, lat = _reductions(arr)
    assert n <= sum(f.mask.bit_count() for f in lat.flats)


@pytest.mark.parametrize("make", [_g8_minus_one,
                                  lambda: gen_wreath("D4", 6, 2)])
def test_build_reduces_each_flat_once(make):
    _assert_each_flat_reduced_once(make())


@settings(deadline=None, max_examples=100)
@given(st.one_of(integer_arrangements(), symmetric_arrangements()))
def test_build_reduces_each_flat_once_random(arr):
    _assert_each_flat_reduced_once(arr)


def test_wreath_a4_3_golden():
    arr = gen_wreath("A4", 5, 3)
    p = poincare_polynomial(build_lattice(arr))
    assert p.coeffs == (1, 51, 985, 8685, 31774, 24024)
    assert terminalization_count(p, arr.weyl) == 273


# ---------------------------------------------------------------------------
# L(A) relabelled against the plain build of the relabelled hyperplanes


def _assert_relabelled_matches_plain(arr, order):
    """relabelled(order) has the levels of the build of the hyperplanes in
    that order, and the same pi, chi and bad primes as L(A)."""
    lat = build_lattice(arr)
    rel = lat.relabelled(order)
    moved = rel.arrangement
    assert moved.hyperplanes == tuple(arr.hyperplanes[h] for h in order)
    assert moved.tags == (None if arr.tags is None
                          else tuple(arr.tags[h] for h in order))
    assert moved.weyl is None and moved.rank == arr.rank
    plain = build_lattice(Arrangement(arr.dim, moved.hyperplanes))
    assert _levels(rel) == _levels(plain)
    assert [set(level) for level in rel.representatives] == [
        set(level) for level in plain.representatives]
    assert poincare_polynomial(rel) == poincare_polynomial(lat)
    assert characteristic_polynomial(rel) == characteristic_polynomial(lat)
    assert bad_primes(moved, rel) == bad_primes(arr, lat)


def test_relabelled_matches_plain(corpus):
    rng = random.Random(33)
    for arr in corpus:
        order = list(range(len(arr.hyperplanes)))
        rng.shuffle(order)
        _assert_relabelled_matches_plain(arr, order)


@settings(deadline=None, max_examples=60)
@given(st.one_of(integer_arrangements(), symmetric_arrangements()),
       st.randoms(use_true_random=False))
def test_relabelled_matches_plain_random(arr, rng):
    order = list(range(len(arr.hyperplanes)))
    rng.shuffle(order)
    _assert_relabelled_matches_plain(arr, order)


@pytest.mark.parametrize("order", [(0, 0, 1), (0, 1), (1, 2, 3),
                                   (0, 1, 2, 3)])
def test_relabelled_rejects_a_non_permutation(order):
    with pytest.raises(InvalidParams, match="permutation"):
        build_lattice(CONCURRENT3).relabelled(order)


def test_both_constructors_set_every_slot():
    """Arrangement(...) and Arrangement._trusted(...) leave no slot unset,
    so every field, the kept permutations included, is read directly."""
    built = Arrangement(2, [(1, 0), (0, 1), (2, 2)], label="x",
                        tags=["T", "F", "T"], weyl=(3,))
    trusted = Arrangement._trusted(2, built.hyperplanes, "x", built.tags,
                                   (3,))
    for arr in (built, trusted):
        values = {name: getattr(arr, name) for name in Arrangement.__slots__}
        assert values["_rank"] is None and values["_perms"] is None
        assert values["hyperplanes"] == ((1, 0), (0, 1), (1, 1))
