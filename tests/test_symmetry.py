import random

import pytest
from hypothesis import given, settings, strategies as st

from cmarr.errors import LayoutMismatch, NonIntegral, NotStable
from cmarr.exactlin import normalize_covector
from cmarr.generators import (gen_G4, gen_G8, gen_coxeter_namikawa,
                              gen_cyclic, gen_dihedral_even, gen_wreath,
                              table1_rows)
from cmarr.intpoly import IntPolynomial
from cmarr.lattice import Arrangement, build_lattice, poincare_polynomial
from cmarr.symmetry import (BlockPermutation, StabilityResult, act,
                            audit_table1, block_generators,
                            contains_subarrangement, generator_permutations,
                            group_order, hyperplane_orbits, is_stable,
                            terminalization_count)
from reference import symmetric_arrangements


def test_stability_result_api():
    assert bool(StabilityResult(True)) is True
    assert bool(StabilityResult(False)) is False
    res = StabilityResult(False, "g", (1, 0))
    assert (res.stable, res.witness_generator, res.witness_covector) \
        == (False, "g", (1, 0))
    assert res == StabilityResult(stable=False, witness_generator="g",
                                  witness_covector=(1, 0))
    assert res != StabilityResult(False, "g", (0, 1))
    assert hash(res) == hash(StabilityResult(False, "g", (1, 0)))
    ok = StabilityResult(stable=True)
    assert (ok.witness_generator, ok.witness_covector) == (None, None)
    assert ok == StabilityResult(True, None, None)
    with pytest.raises(AttributeError):
        ok.stable = False


def test_act_identity():
    g8 = gen_G8()
    out = act(BlockPermutation.identity((4,)), g8)
    assert out.hyperplanes == g8.hyperplanes


def test_act_swap_on_single_hyperplane():
    arr = gen_cyclic(2)
    swap = BlockPermutation((2,), [(1, 0)])
    assert act(swap, arr).hyperplanes == arr.hyperplanes


def test_act_four_cycle_permutes_g8():
    g8 = gen_G8()
    four_cycle = BlockPermutation((4,), [(1, 2, 3, 0)])
    out = act(four_cycle, g8)
    assert set(out.hyperplanes) == set(g8.hyperplanes)
    assert out.hyperplanes != g8.hyperplanes  # genuinely permuted


def test_act_layout_mismatch():
    with pytest.raises(LayoutMismatch):
        act(BlockPermutation.identity((3,)), gen_G8())
    for cov in [(1,), (1, 2, 3, 4)]:
        with pytest.raises(LayoutMismatch, match="does not fit blocks"):
            BlockPermutation.identity((2, 3)).apply_covector(cov)


@pytest.mark.parametrize("build, size", [
    (lambda: BlockPermutation([0, 4], [[], [0, 1, 2, 3]]), 0),
    (lambda: BlockPermutation([-1, 3], [[], [0, 1, 2]]), -1),
    (lambda: BlockPermutation.identity((0, 4)), 0),
    (lambda: block_generators((0, 3)), 0),
], ids=["empty-block", "negative-block", "identity", "generators"])
def test_block_below_one_is_rejected(build, size):
    # apply_covector would read the covector's last entry for an empty
    # block: the identity on (0, 4) would map (1, 2) to (2, 1, 2)
    with pytest.raises(LayoutMismatch,
                       match=r"bad permutation \[\] for block size %d$"
                       % size):
        build()


def _apply_by_lift(blocks, perms, cov):
    """The action spelled out: per block, lift to ambient coefficients
    (0, c_1, ..., c_{m-1}), move position i to sigma(i) and drop the
    block's index-0 coordinate, c_i - c_0; then normalize."""
    out = []
    pos = 0
    for m, p in zip(blocks, perms):
        amb = [0] + list(cov[pos:pos + m - 1])
        pos += m - 1
        moved = [0] * m
        for i in range(m):
            moved[p[i]] = amb[i]
        out.extend(moved[i] - moved[0] for i in range(1, m))
    return normalize_covector(out)


@st.composite
def layout_and_covector(draw):
    blocks = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)
                  .filter(lambda b: max(b) > 1))
    perms = [draw(st.permutations(range(m))) for m in blocks]
    dim = sum(m - 1 for m in blocks)
    cov = draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)
               .filter(any))
    return blocks, perms, tuple(cov)


@given(layout_and_covector())
def test_apply_covector_matches_lift(case):
    blocks, perms, cov = case
    assert BlockPermutation(blocks, perms).apply_covector(cov) \
        == _apply_by_lift(blocks, perms, cov)


def test_stability_g8_g4():
    assert is_stable(gen_G8()).stable
    assert is_stable(gen_G4()).stable
    assert is_stable(gen_dihedral_even()).stable


def test_stability_counterexample():
    # the single hyperplane kappa_1 = 0 inside the S3 layout
    arr = Arrangement(2, [(1, 0)], weyl=(3,))
    st = is_stable(arr)
    assert not st.stable
    assert st.witness_covector == (1, 0)
    assert st.witness_generator is not None


def test_orbits_cyclic3_transitive():
    assert hyperplane_orbits(gen_cyclic(3)) == ((0, 1, 2),)


def test_orbits_dihedral():
    assert hyperplane_orbits(gen_dihedral_even()) == \
        ((0,), (1,), (2, 3))


def test_orbits_g4_split_by_tag():
    g4 = gen_G4()
    orbits = hyperplane_orbits(g4)
    assert len(orbits) == 2
    for orbit in orbits:
        assert len({g4.tags[i] for i in orbit}) == 1


def test_orbits_require_stability():
    with pytest.raises(NotStable):
        hyperplane_orbits(Arrangement(2, [(1, 0)], weyl=(3,)))


@pytest.mark.parametrize("stage", [is_stable, hyperplane_orbits])
def test_weyl_stages_without_a_layout(stage):
    with pytest.raises(LayoutMismatch, match=r"^stage requires a Weyl "
                       r"layout \(weyl header or generator metadata\)$"):
        stage(Arrangement(3, gen_G8().hyperplanes))


def test_unstable_witness_and_message():
    # G8 minus its first hyperplane: the first generator is the first to
    # move a covector outside, and (1, 0, -1) the first covector it moves
    arr = Arrangement(3, gen_G8().hyperplanes[1:], weyl=(4,))
    st = is_stable(arr)
    assert st.witness_generator == block_generators((4,))[0]
    assert st.witness_covector == (1, 0, -1)
    with pytest.raises(NotStable) as exc:
        hyperplane_orbits(arr)
    assert str(exc.value) == (
        "arrangement is not stable under [4] (generator "
        "BlockPermutation([4], [[1, 0, 2, 3]]) moves (1, 0, -1) outside "
        "the set)")


def test_generator_permutations_follow_the_action():
    arr = gen_wreath("A2", 3, 2)
    perms = generator_permutations(arr)
    gens = block_generators(arr.weyl)
    assert len(perms) == len(gens)
    covs = arr.hyperplanes
    for g, perm in zip(gens, perms):
        assert sorted(perm) == list(range(len(covs)))
        assert [covs[j] for j in perm] \
            == [g.apply_covector(c) for c in covs]


def test_generator_permutations_are_kept_per_arrangement():
    from cmarr.freeness import deletion
    arr = gen_wreath("A2", 3, 2)
    perms = generator_permutations(arr)
    assert generator_permutations(arr) is perms
    # a deletion is a new arrangement, unstable here: nothing is inherited
    with pytest.raises(NotStable):
        generator_permutations(deletion(arr, 1))


def _orbits_by_search(arr):
    """Orbit partition by a breadth-first search over the generators' index
    permutations: the reference for hyperplane_orbits."""
    perms = generator_permutations(arr)
    unassigned = set(range(len(arr.hyperplanes)))
    orbits = []
    while unassigned:
        seed = min(unassigned)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            new = []
            for i in frontier:
                for p in perms:
                    j = p[i]
                    if j not in orbit:
                        orbit.add(j)
                        new.append(j)
            frontier = new
        orbits.append(tuple(sorted(orbit)))
        unassigned -= orbit
    orbits.sort()
    return tuple(orbits)


def test_hyperplane_orbits_match_search(corpus):
    extra = [gen_coxeter_namikawa((2, 3, 4)), gen_wreath("A4", 5, 2),
             gen_wreath("A1", 2, 4)]
    for arr in corpus + extra:
        assert hyperplane_orbits(arr) == _orbits_by_search(arr)


@settings(deadline=None, max_examples=60)
@given(symmetric_arrangements())
def test_hyperplane_orbits_match_search_random(arr):
    """Random layouts, blocks of size 1 and several blocks among them, in a
    random hyperplane order."""
    assert hyperplane_orbits(arr) == _orbits_by_search(arr)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_stability_verdict_on_deletions_random(data):
    """A symmetric arrangement less a random nonempty set of its
    hyperplanes, stable or not: the gate is stable exactly when every block
    generator maps the covector set onto itself, its witness is the first
    generator that does not and a covector it moves outside the set, and
    the lattice build is the layout-free one."""
    arr = data.draw(symmetric_arrangements())
    gone = data.draw(st.sets(st.sampled_from(arr.hyperplanes), min_size=1))
    sub = Arrangement(arr.dim, [c for c in arr.hyperplanes if c not in gone],
                      weyl=arr.weyl)
    covs = sub.covector_set()
    moving = [g for g in block_generators(sub.weyl)
              if act(g, sub).covector_set() != covs]
    verdict = is_stable(sub)
    assert verdict.stable == (not moving)
    if moving:
        assert verdict.witness_generator == moving[0]
        assert verdict.witness_covector in covs
        assert moving[0].apply_covector(verdict.witness_covector) not in covs
    lat = build_lattice(sub)
    plain = build_lattice(Arrangement(sub.dim, sub.hyperplanes))
    assert (lat.masks, lat.mobius) == (plain.masks, plain.mobius)


def test_contains_subarrangement():
    g8 = gen_G8()
    assert contains_subarrangement(g8, gen_coxeter_namikawa((4,)))
    assert contains_subarrangement(gen_G4(), gen_coxeter_namikawa((3,)))
    d = gen_dihedral_even()
    sub = Arrangement(2, [(1, 1)])
    assert contains_subarrangement(d, sub)
    assert not contains_subarrangement(sub, d)
    with pytest.raises(LayoutMismatch):
        contains_subarrangement(g8, d)


def test_terminalization_counts():
    assert terminalization_count(IntPolynomial([1, 6, 5]), (3,)) == 2
    assert terminalization_count(IntPolynomial([1, 4, 3]), (2, 2)) == 2
    g5 = [r for r in table1_rows() if r.group == "G5"][0]
    assert terminalization_count(g5.poincare, g5.weyl) == 92


def test_terminalization_nonintegral():
    with pytest.raises(NonIntegral):
        terminalization_count(IntPolynomial([1, 2]), (3,))


def test_terminalization_positive_on_corpus(corpus):
    for arr in corpus:
        if arr.weyl is None:
            continue
        p = poincare_polynomial(build_lattice(arr))
        assert terminalization_count(p, arr.weyl) >= 1


def test_generated_arrangements_stable(corpus):
    for arr in corpus:
        if arr.weyl is None:
            continue
        assert is_stable(arr).stable, arr.label


def test_action_composition_law():
    rng = random.Random(7)
    cases = [(gen_G8(), (4,)), (gen_G4(), (3,)),
             (gen_dihedral_even(), (2, 2)), (gen_wreath("A2", 3, 2), (2, 3))]
    for arr, blocks in cases:
        gens = block_generators(blocks)
        for _ in range(5):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
            composed = BlockPermutation.identity(blocks)
            stepwise = arr
            for g in word:
                composed = g.compose(composed)
                stepwise = act(g, stepwise)
            assert act(composed, arr).covector_set() \
                == stepwise.covector_set()
            assert poincare_polynomial(build_lattice(stepwise)) \
                == poincare_polynomial(build_lattice(arr))


def test_group_order():
    assert group_order((4,)) == 24
    assert group_order((2, 3, 4)) == 2 * 6 * 24


def test_audit_table1():
    reports = {r["group"]: r for r in audit_table1()}
    assert len(reports) == 15
    passing = [g for g, r in reports.items() if r["pass"]]
    assert len(passing) == 13
    assert set(reports) - set(passing) == {"G9", "G15"}
    g9 = reports["G9"]
    assert g9["check_degree"] and not g9["check_e"]
    assert g9["computed_e"] == 314 and g9["printed_e"] == 2
    g15 = reports["G15"]
    assert g15["check_degree"] and not g15["check_e"]
    assert g15["computed_e"] is None  # non-integral quotient
    for g, r in reports.items():
        assert r["check_degree"], "degree check must pass on every row"
        if r["check_exponents"] is not None:
            assert r["check_exponents"]
