import random

import pytest

from cmarr.errors import LayoutMismatch, NonIntegral, NotStable
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


def test_stability_g8_g4():
    assert is_stable(gen_G8(), (4,)).stable
    assert is_stable(gen_G4(), (3,)).stable
    assert is_stable(gen_dihedral_even(), (2, 2)).stable


def test_stability_counterexample():
    # the single hyperplane kappa_1 = 0 inside the S3 layout
    arr = Arrangement(2, [(1, 0)])
    st = is_stable(arr, (3,))
    assert not st.stable
    assert st.witness_covector == (1, 0)
    assert st.witness_generator is not None


def test_orbits_cyclic3_transitive():
    assert hyperplane_orbits(gen_cyclic(3), (3,)) == ((0, 1, 2),)


def test_orbits_dihedral():
    assert hyperplane_orbits(gen_dihedral_even(), (2, 2)) == \
        ((0,), (1,), (2, 3))


def test_orbits_g4_split_by_tag():
    g4 = gen_G4()
    orbits = hyperplane_orbits(g4, (3,))
    assert len(orbits) == 2
    for orbit in orbits:
        assert len({g4.tags[i] for i in orbit}) == 1


def test_orbits_require_stability():
    with pytest.raises(NotStable):
        hyperplane_orbits(Arrangement(2, [(1, 0)]), (3,))


def test_unstable_witness_and_message():
    # G8 minus its first hyperplane: the first generator is the first to
    # move a covector outside, and (1, 0, -1) the first covector it moves
    arr = Arrangement(3, gen_G8().hyperplanes[1:])
    st = is_stable(arr, (4,))
    assert st.witness_generator == block_generators((4,))[0]
    assert st.witness_covector == (1, 0, -1)
    with pytest.raises(NotStable) as exc:
        hyperplane_orbits(arr, (4,))
    assert str(exc.value) == (
        "arrangement is not stable under [4] (generator "
        "BlockPermutation([4], [[1, 0, 2, 3]]) moves (1, 0, -1) outside "
        "the set)")


def test_generator_permutations_follow_the_action():
    arr = gen_wreath("A2", 3, 2)
    perms = generator_permutations(arr, arr.weyl)
    gens = block_generators(arr.weyl)
    assert len(perms) == len(gens)
    covs = arr.hyperplanes
    for g, perm in zip(gens, perms):
        assert sorted(perm) == list(range(len(covs)))
        assert [covs[j] for j in perm] \
            == [g.apply_covector(c) for c in covs]


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
        assert is_stable(arr, arr.weyl).stable, arr.label


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
