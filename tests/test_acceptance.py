"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All assertions are exact; runtime limits are wall-clock bounds checked with
time.monotonic.  Everything runs single-threaded.
"""

import random
import time

import pytest

from cmarr.arrfile import emit_arrangement, parse_arrangement
from cmarr.cli import main as cli_main
from cmarr.freeness import exponents_from_poincare, inductive_freeness
from cmarr.generators import (gen_G4, gen_G8, gen_coxeter_namikawa,
                              gen_cyclic, gen_dihedral_even, gen_wreath)
from cmarr.intpoly import IntPolynomial
from cmarr.lattice import (admissible_primes, build_lattice,
                           char_poly_finite_field, characteristic_polynomial,
                           poincare_polynomial, whitney_numbers)
from cmarr.osalg import nbc_basis, os_dimension
from cmarr.symmetry import (BlockPermutation, act, audit_table1,
                            block_generators, contains_subarrangement,
                            hyperplane_orbits, is_stable,
                            terminalization_count)


def _report(number, label, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, "criterion %d exceeded %ds (%.1fs)" \
        % (number, limit, elapsed)
    print("ACCEPTANCE %d (%s): PASS in %.2fs" % (number, label, elapsed))


def test_criterion_1_g8_pipeline(capsys, tmp_path):
    started = time.monotonic()
    path = tmp_path / "g8.arr"
    assert cli_main(["gen", "g8"]) == 0
    path.write_text(capsys.readouterr().out)
    code = cli_main(["analyze", str(path), "--poincare", "--free",
                     "--stability", "--e-count", "--threads", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "poincare: 143t^3 + 167t^2 + 25t + 1" in out
    assert "exponents: 1 11 13" in out
    assert "freeness: InductivelyFree" in out
    assert "freeness-exponents: 1 11 13" in out
    assert "stability: stable" in out
    assert "contains-coxeter: true" in out
    assert "e-count: 14" in out
    # the same facts via the library, end to end
    g8 = gen_G8()
    p = poincare_polynomial(build_lattice(g8))
    assert p == IntPolynomial.from_factors([[1, 1], [1, 11], [1, 13]])
    v = inductive_freeness(g8)
    assert v.status == "InductivelyFree" and v.exponents == (1, 11, 13)
    assert is_stable(g8).stable
    assert contains_subarrangement(g8, gen_coxeter_namikawa((4,)))
    assert p(1) == 336 and terminalization_count(p, (4,)) == 14
    with capsys.disabled():
        _report(1, "G8 pipeline", started, 10)


def test_criterion_2_g4_pipeline(capsys):
    started = time.monotonic()
    g4 = gen_G4()
    p = poincare_polynomial(build_lattice(g4))
    assert p == IntPolynomial([1, 6, 5])
    assert terminalization_count(p, (3,)) == 2
    assert is_stable(g4).stable
    t_set = {c for c, t in zip(g4.hyperplanes, g4.tags) if t == "T"}
    assert t_set == set(gen_coxeter_namikawa((3,)).hyperplanes)
    with capsys.disabled():
        _report(2, "G4 pipeline", started, 1)


def test_criterion_3_dihedral_pipeline(capsys):
    started = time.monotonic()
    d = gen_dihedral_even()
    assert os_dimension(d) == 8
    assert nbc_basis(d).sizes == (1, 4, 3)
    p = poincare_polynomial(build_lattice(d))
    assert terminalization_count(p, (2, 2)) == 2
    # orbits {k1}, {k2}, {k1 +- k2} in the generator's hyperplane order
    assert hyperplane_orbits(d) == ((0,), (1,), (2, 3))
    with capsys.disabled():
        _report(3, "dihedral pipeline", started, 1)


def test_criterion_4_table1_audit(capsys):
    started = time.monotonic()
    reports = {r["group"]: r for r in audit_table1()}
    passing = {g for g, r in reports.items()
               if r["check_degree"] and r["check_e"]}
    assert len(reports) == 15
    assert passing == set(reports) - {"G9", "G15"}
    assert reports["G9"]["computed_e"] == 314
    assert reports["G9"]["printed_e"] == 2
    assert reports["G15"]["computed_e"] is None  # non-integral quotient
    with capsys.disabled():
        _report(4, "Table 1 audit 13/15", started, 1)


def _oracle_corpus():
    arrs = [gen_G8(), gen_G4(), gen_dihedral_even()]
    for ell in (2, 3, 4):
        arrs.append(gen_cyclic(ell))
        for n in (2, 3):
            arrs.append(gen_wreath("A%d" % (ell - 1), ell, n))
    return arrs


def test_criterion_5_oracle_equivalence(capsys):
    started = time.monotonic()
    for arr in _oracle_corpus():
        k = max(4, arr.dim + 1)  # interpolation needs dim+1 points
        primes = admissible_primes(arr, k)
        ff = char_poly_finite_field(arr, primes)
        chi = characteristic_polynomial(build_lattice(arr))
        assert ff == chi, arr.label
    with capsys.disabled():
        _report(5, "finite-field oracle equivalence", started, 60)


def test_criterion_6_property_suite(capsys, corpus):
    started = time.monotonic()
    rng = random.Random(20260824)
    for arr in corpus:
        lat = build_lattice(arr)
        p = poincare_polynomial(lat)
        # Mobius zero-sums on every flat above bottom
        flats = lat.flats
        for f in flats:
            below = sum(g.mobius for g in flats
                        if g.hyperplanes <= f.hyperplanes)
            assert below == (1 if f.rank == 0 else 0)
        # essentiality: deg pi = rank = dim for generator outputs
        assert p.degree == arr.rank == arr.dim
        # nbc counts = Whitney numbers under >= 3 random orders
        wn = whitney_numbers(lat)
        n = len(arr.hyperplanes)
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            assert nbc_basis(arr, tuple(order)).sizes == wn
        # exponent sum = hyperplane count on every positive verdict
        v = inductive_freeness(arr)
        if v.status == "InductivelyFree":
            assert sum(v.exponents) == n
            assert IntPolynomial.from_factors(
                [[1, b] for b in v.exponents]) == p
        # group-action composition on random words
        if arr.weyl is not None:
            gens = block_generators(arr.weyl)
            for _ in range(3):
                word = [rng.choice(gens)
                        for _ in range(rng.randint(1, 6))]
                composed = BlockPermutation.identity(arr.weyl)
                stepwise = arr
                for g in word:
                    composed = g.compose(composed)
                    stepwise = act(g, stepwise)
                assert act(composed, arr).covector_set() \
                    == stepwise.covector_set()
    with capsys.disabled():
        _report(6, "property suite", started, 60)


def test_criterion_7_wreath_crosscheck(capsys):
    started = time.monotonic()
    w = gen_wreath("A1", 2, 2)
    d = gen_dihedral_even()
    # the identification is the identity on (sign coordinate, k2 coordinate)
    assert set(w.hyperplanes) == set(d.hyperplanes)
    assert {c: t for c, t in zip(w.hyperplanes, w.tags)} \
        == {c: t for c, t in zip(d.hyperplanes, d.tags)}
    for ell in (2, 3, 4, 5):
        for n in (2, 3, 4):
            arr = gen_wreath("A%d" % (ell - 1), ell, n)
            assert len(arr) == 1 + ell * (ell - 1) // 2 \
                + (n - 1) * ell * (ell - 1)
    with capsys.disabled():
        _report(7, "wreath cross-check", started, 5)
