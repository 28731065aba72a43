import pytest

import cmarr.generators as gen_mod
from cmarr.errors import (GeneratorInvariant, InvalidN, InvalidOrder,
                          InvalidParams, UnsupportedType)
from cmarr.generators import (RootSystem, TableRow, default_group_order,
                              gen_G4, gen_G8, gen_coxeter_namikawa,
                              gen_cyclic, gen_dihedral_even, gen_wreath,
                              project_zero_sum, root_system, table1_rows)
from cmarr.intpoly import IntPolynomial
from cmarr.lattice import build_lattice, poincare_polynomial
from cmarr.exactlin import rank_of
from cmarr.symmetry import terminalization_count
from reference import _exponents_and_coxeter_number, _fuss_catalan


def poincare(arr):
    return poincare_polynomial(build_lattice(arr))


def test_table_row_api():
    row = TableRow("G8", 25, (4,), ((1, 1), (1, 11), (1, 13)), 96, True)
    assert row == TableRow(group="G8", n_hyperplanes=25, weyl=(4,),
                           poincare_factors=((1, 1), (1, 11), (1, 13)),
                           e_count=96, free_flag=True)
    assert (row.group, row.n_hyperplanes, row.weyl, row.e_count,
            row.free_flag) == ("G8", 25, (4,), 96, True)
    assert row != TableRow("G8", 25, (4,), ((1, 1), (1, 11), (1, 13)), 97,
                           True)
    assert hash(row) == hash(TableRow("G8", 25, (4,),
                                      ((1, 1), (1, 11), (1, 13)), 96, True))
    assert row.poincare == IntPolynomial.from_factors(row.poincare_factors)
    assert row.poincare.coeffs == (1, 25, 167, 143)
    with pytest.raises(TypeError):
        TableRow("G8", 25, (4,), ((1, 1),), 96)
    with pytest.raises(AttributeError):
        row.e_count = 1


def test_root_counts():
    assert len(root_system("A2").all_roots) == 6
    assert len(root_system("A4").all_roots) == 20
    assert len(root_system("D4").all_roots) == 24
    assert len(root_system("D5").all_roots) == 40
    assert len(root_system("E6").all_roots) == 72
    assert len(root_system("E7").all_roots) == 126
    assert len(root_system("E8").all_roots) == 240


def test_root_count_mismatch_is_typed(monkeypatch):
    counts = dict(gen_mod._ROOT_COUNTS, A=lambda n: n * (n + 1) + 2)
    monkeypatch.setattr(gen_mod, "_ROOT_COUNTS", counts)
    with pytest.raises(GeneratorInvariant):
        root_system("A2")


def test_g8_cardinality_is_typed(monkeypatch):
    ambient = list(gen_mod.G8_AMBIENT)
    monkeypatch.setattr(gen_mod, "G8_AMBIENT", ambient[:-1] + ambient[:1])
    with pytest.raises(GeneratorInvariant):
        gen_G8()


def test_root_system_closed_under_negation():
    rs = root_system("D4")
    roots = set(rs.all_roots)
    assert all(tuple(-x for x in c) in roots for c in roots)
    assert len(rs.positive_roots) * 2 == len(rs.all_roots)


def test_root_system_bad_labels():
    for label in ("B2", "E9", "D3", "A0", "X1", "foo"):
        with pytest.raises(UnsupportedType):
            root_system(label)


def test_group_order_reads_labels_as_root_system_does():
    """default_group_order rejects each label that root_system rejects,
    with the same message; a trailing newline is no part of a label."""
    for label in ("B2", "E9", "D3", "A0", "X1", "foo", "A1\n", "D4\n"):
        with pytest.raises(UnsupportedType) as built:
            root_system(label)
        with pytest.raises(UnsupportedType) as ordered:
            default_group_order(label)
        assert str(ordered.value) == str(built.value)
    assert [default_group_order(g) for g in ("A3", "D4", "E6", "E7", "E8")] \
        == [4, 8, 24, 48, 120]


def test_cyclic_small():
    assert len(gen_cyclic(2)) == 1
    assert poincare(gen_cyclic(2)) == IntPolynomial([1, 1])
    assert len(gen_cyclic(3)) == 3
    assert poincare(gen_cyclic(3)) == IntPolynomial.from_factors(
        [[1, 1], [1, 2]])
    assert len(gen_cyclic(5)) == 10
    assert poincare(gen_cyclic(5)) == IntPolynomial.from_factors(
        [[1, 1], [1, 2], [1, 3], [1, 4]])


def test_cyclic_rejects_small_order():
    with pytest.raises(InvalidOrder):
        gen_cyclic(1)


def test_wreath_z2_n2_is_dihedral():
    w = gen_wreath("A1", 2, 2)
    d = gen_dihedral_even()
    assert set(w.hyperplanes) == set(d.hyperplanes)
    tag_w = {c: t for c, t in zip(w.hyperplanes, w.tags)}
    tag_d = {c: t for c, t in zip(d.hyperplanes, d.tags)}
    assert tag_w == tag_d


def test_wreath_z3_n2():
    w = gen_wreath("A2", 3, 2)
    assert len(w) == 10
    assert w.tags.count("T") == 4 and w.tags.count("F") == 6


def test_wreath_z2_n3():
    w = gen_wreath("A1", 2, 3)
    assert set(w.hyperplanes) == {(1, 0), (0, 1), (1, 1), (1, -1),
                                  (1, 2), (1, -2)}


def test_wreath_counts():
    for ell in (2, 3, 4, 5):
        for n in (2, 3, 4):
            w = gen_wreath("A%d" % (ell - 1), ell, n)
            assert len(w) == 1 + ell * (ell - 1) // 2 + (n - 1) * ell * (ell - 1)


def test_wreath_validation():
    with pytest.raises(InvalidN):
        gen_wreath("A1", 2, 1)
    with pytest.raises(InvalidParams):
        gen_wreath("A2", 4, 2)  # order inconsistent with the cyclic type


def test_wreath_d_type():
    w = gen_wreath("D4", default_group_order("D4"), 2)
    assert len(w) == 1 + 12 + 24
    assert w.dim == 5 and rank_of(w.hyperplanes) == 5
    assert w.tags.count("T") == 13


def test_fuss_catalan_examples():
    assert [_fuss_catalan(label, n)
            for label, n in (("A2", 2), ("A3", 3), ("A4", 3))] \
        == [5, 55, 273]


@pytest.mark.parametrize("label, order, n", [
    ("A1", 2, 2), ("A2", 3, 2), ("A3", 4, 2), ("A4", 5, 2),
    ("A1", 2, 3), ("A2", 3, 3), ("A3", 4, 3), ("A4", 5, 3),
    ("D4", 6, 2), ("D4", 8, 2)])
def test_wreath_poincare_closed_form(label, order, n):
    # the cone over the extended Catalan arrangement of height n - 1 is free
    # with exponents 1 and m_i + (n - 1) h (conjectured by Edelman and
    # Reiner, proved by Yoshinaga); the sign coordinate is the cone's
    # extra hyperplane
    exponents, h = _exponents_and_coxeter_number(label)
    w = gen_wreath(label, order, n)
    p = poincare(w)
    assert p == IntPolynomial.from_factors(
        [(1, 1)] + [(1, m + (n - 1) * h) for m in exponents])
    if label[0] == "A":
        # pi(1) / |W| is the Fuss-Catalan number
        assert terminalization_count(p, w.weyl) == _fuss_catalan(label, n)


def test_dihedral():
    d = gen_dihedral_even()
    assert len(d) == 4 and d.rank == 2
    assert poincare(d) == IntPolynomial([1, 4, 3])
    assert d.tags == ("T", "T", "F", "F")


def test_g4():
    g4 = gen_G4()
    assert len(g4) == 6
    assert poincare(g4) == IntPolynomial([1, 6, 5])
    t_set = {c for c, t in zip(g4.hyperplanes, g4.tags) if t == "T"}
    assert t_set == set(gen_coxeter_namikawa((3,)).hyperplanes)


def test_g8():
    g8 = gen_G8()
    assert len(g8) == 25 and g8.rank == 3
    assert poincare(g8) == IntPolynomial.from_factors(
        [[1, 1], [1, 11], [1, 13]])
    cox = gen_coxeter_namikawa((4,))
    assert set(cox.hyperplanes) <= set(g8.hyperplanes)
    t_set = {c for c, t in zip(g8.hyperplanes, g8.tags) if t == "T"}
    assert t_set == set(cox.hyperplanes)


def test_project_zero_sum_blocks():
    assert project_zero_sum((-1, 0, 0, 1), (4,)) == (1, 1, 2)
    assert project_zero_sum((1, -1, 2, -2), (2, 2)) == (1, 2)


def test_coxeter_namikawa():
    assert len(gen_coxeter_namikawa((2,))) == 1
    boolean = gen_coxeter_namikawa((2, 2))
    assert poincare(boolean) == IntPolynomial([1, 2, 1])
    a3 = gen_coxeter_namikawa((4,))
    assert len(a3) == 6 and a3.rank == 3
    assert poincare(a3) == IntPolynomial.from_factors(
        [[1, 1], [1, 2], [1, 3]])


def test_generator_outputs_essential(corpus):
    for arr in corpus:
        assert arr.rank == arr.dim
        p = poincare(arr)
        assert p.degree == arr.dim


def test_table1_rows():
    rows = {r.group: r for r in table1_rows()}
    assert len(rows) == 15
    g4 = rows["G4"]
    assert (g4.n_hyperplanes, g4.weyl, g4.e_count, g4.free_flag) \
        == (6, (3,), 2, True)
    assert g4.poincare == IntPolynomial([1, 6, 5])
    g5 = rows["G5"]
    assert (g5.n_hyperplanes, g5.weyl, g5.e_count, g5.free_flag) \
        == (33, (3, 3), 92, False)
    assert g5.poincare == IntPolynomial.from_factors(
        [[1, 21, 116], [1, 11], [1, 1]])
    g28 = rows["G28"]
    assert (g28.n_hyperplanes, g28.weyl, g28.e_count, g28.free_flag) \
        == (8, (2, 2), 4, True)
    # printed hyperplane counts agree with the linear Poincare coefficient
    # except for the known-inconsistent G15 row
    for r in rows.values():
        w1 = r.poincare.coeffs[1]
        if r.group == "G15":
            assert w1 != r.n_hyperplanes
        else:
            assert w1 == r.n_hyperplanes
