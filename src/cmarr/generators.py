"""Constructors for the arrangements the toolkit analyzes.

Coordinate convention used everywhere: each symmetric-group block S_m acts on
m ambient coordinates kappa_{b,0..m-1} constrained to sum to zero; the block
is parametrized by dropping the index-0 coordinate, so it contributes m-1
essential coordinates (kappa_{b,0} = -sum_{i>=1} kappa_{b,i}).
"""

import re
from collections import namedtuple

from .errors import (GeneratorInvariant, InvalidN, InvalidOrder,
                     InvalidParams, UnsupportedType)
from .exactlin import normalize_covector, project_zero_sum
from .intpoly import IntPolynomial
from .lattice import Arrangement
from .symmetry import gen_coxeter_namikawa


# ---------------------------------------------------------------------------
# simply laced root systems, in simple-root coefficient coordinates

_LABEL_RE = re.compile(r"([ADE])(\d+)")


def _parse_label(label):
    """(family, rank) of a simply laced root system label such as "D4".
    The whole label must match, so "A1\n" is no label."""
    m = _LABEL_RE.fullmatch(label)
    if not m:
        raise UnsupportedType("bad root system label %r" % label)
    family, n = m.group(1), int(m.group(2))
    if family == "A" and n < 1:
        raise UnsupportedType("A_n needs n >= 1")
    if family == "D" and n < 4:
        raise UnsupportedType("D_n needs n >= 4")
    if family == "E" and n not in (6, 7, 8):
        raise UnsupportedType("E_n needs n in {6,7,8}")
    return family, n


def cartan_matrix(family, n):
    """Cartan matrix of the simply laced families A_n, D_n, E6/E7/E8."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if family == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        # chain 0-1-2-3-4(-5)(-6), extra node attached to index 2
        for i in range(n - 2):
            bond(i, i + 1)
        a[n - 2][n - 1] = 0
        a[n - 1][n - 2] = 0
        bond(2, n - 1)
    return tuple(tuple(row) for row in a)


_ROOT_COUNTS = {"A": lambda n: n * (n + 1),
                "D": lambda n: 2 * n * (n - 1),
                "E": {6: 72, 7: 126, 8: 240}}


class RootSystem:
    """Roots stored as integer coefficient vectors over the simple roots."""

    __slots__ = ("label", "family", "rank", "cartan", "simple_roots",
                 "all_roots")

    def __init__(self, label):
        family, n = _parse_label(label)
        self.label = label
        self.family = family
        self.rank = n
        self.cartan = cartan_matrix(family, n)
        self.simple_roots = tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))
        self.all_roots = self._closure()

    def _closure(self):
        a = self.cartan
        n = self.rank
        roots = set(self.simple_roots)
        frontier = list(roots)
        while frontier:
            new = []
            for c in frontier:
                pair = [sum(c[j] * a[j][i] for j in range(n))
                        for i in range(n)]
                for i in range(n):
                    refl = list(c)
                    refl[i] -= pair[i]
                    refl = tuple(refl)
                    if refl not in roots:
                        roots.add(refl)
                        new.append(refl)
            frontier = new
        roots |= {tuple(-x for x in c) for c in roots}
        return tuple(sorted(roots))

    @property
    def positive_roots(self):
        """One root per +- pair: those whose first nonzero coefficient > 0."""
        out = []
        for c in self.all_roots:
            for x in c:
                if x != 0:
                    if x > 0:
                        out.append(c)
                    break
        return tuple(out)


def root_system(label):
    rs = RootSystem(label)
    expect = (_ROOT_COUNTS[rs.family][rs.rank] if rs.family == "E"
              else _ROOT_COUNTS[rs.family](rs.rank))
    if len(rs.all_roots) != expect:
        raise GeneratorInvariant("%s closure gave %d roots, expected %d"
                                 % (label, len(rs.all_roots), expect))
    return rs


# ---------------------------------------------------------------------------
# block-coordinate helpers


def _block_difference(m, i, j):
    """Essential covector (length m-1) of kappa_i - kappa_j on a zero-sum
    block of size m."""
    amb = [0] * m
    amb[i] += 1
    amb[j] -= 1
    return tuple(amb[t] - amb[0] for t in range(1, m))


def gen_cyclic(ell):
    """Differences kappa_i - kappa_j on one zero-sum block of size ell.

    This is the type A_{ell-1} reflection arrangement in ell-1 essential
    coordinates; every hyperplane is a root hyperplane (tag T).
    """
    if ell < 2:
        raise InvalidOrder("cyclic order must be >= 2")
    arr = gen_coxeter_namikawa((ell,))
    return Arrangement(arr.dim, arr.hyperplanes, label="cyclic-%d" % ell,
                       tags=arr.tags, weyl=(ell,))


def gen_dihedral_even():
    """The four lines a, b, a+b, a-b in dim 2; first two are T."""
    covs = [(1, 0), (0, 1), (1, 1), (1, -1)]
    tags = ["T", "T", "F", "F"]
    return Arrangement(2, covs, label="dihedral", tags=tags, weyl=(2, 2))


def gen_wreath(g_label, group_order, n):
    """CM-hyperplanes of the wreath product of a Kleinian group with S_n.

    Coordinates: one sign coordinate a followed by the rank coordinates of
    the root block.  The T-forms are a and the root forms w; the F-forms
    are s a + scale m w, m in {+-1, ..., +-(n-1)}.  For cyclic groups (type
    A_{ell-1}) a is a zero-sum block of size 2 and the root block one of
    size ell, so that s = -2, scale = 1 and the emitted forms are, verbatim:
    T:  kappa_{1,0} - kappa_{1,1},  kappa_{2,i} - kappa_{2,j}
    F:  (kappa_{1,0} - kappa_{1,1}) + m (kappa_{2,i} - kappa_{2,j}).
    For D/E types the root block is the simple-coroot coordinate space, the
    root forms are the pairings <beta, .> with the positive roots beta,
    s = group_order and scale = 2; only the projective classes matter, so
    the overall scaling convention is free.
    """
    if n < 2:
        raise InvalidN("wreath degree n must be >= 2")
    rs = root_system(g_label)
    if rs.family == "A":
        ell = rs.rank + 1
        if group_order != ell:
            raise InvalidParams(
                "cyclic group order %d inconsistent with %s (needs %d)"
                % (group_order, g_label, ell))
        forms = [_block_difference(ell, i, j)
                 for j in range(ell) for i in range(j + 1, ell)]
        sign, scale, weyl = -2, 1, (2, ell)
    else:
        if group_order < 2 or group_order % 2:
            raise InvalidParams("group order must be a positive even "
                                "integer for type %s" % g_label)
        forms = [tuple(sum(beta[j] * rs.cartan[j][i]
                           for j in range(rs.rank))
                       for i in range(rs.rank))
                 for beta in rs.positive_roots]
        sign, scale, weyl = group_order, 2, None
    covs = [normalize_covector((sign,) + (0,) * rs.rank)]
    covs += [normalize_covector((0,) + w) for w in forms]
    tags = ["T"] * len(covs)
    for w in forms:
        for m in range(1, n):
            for sgn in (1, -1):
                covs.append(normalize_covector(
                    (sign,) + tuple(scale * sgn * m * x for x in w)))
                tags.append("F")
    return Arrangement(1 + rs.rank, covs, label="wreath-%s-%d" % (g_label, n),
                       tags=tags, weyl=weyl)


def default_group_order(g_label):
    """|G| of the Kleinian group matching each simply laced type."""
    family, n = _parse_label(g_label)
    if family == "A":
        return n + 1
    if family == "D":
        return 4 * (n - 2)
    return {6: 24, 7: 48, 8: 120}[n]


def gen_G4():
    """Six lines in the two essential coordinates of a zero-sum 3-block.

    T-hyperplanes: the three root lines kappa_i = kappa_j of the S3 action;
    F-hyperplanes: the three coordinate lines kappa_i = 0.  This is the
    unique S3-stable model with the root lines tagged T; together the six
    lines have Poincare polynomial 1 + 6t + 5t^2.
    """
    covs = list(gen_coxeter_namikawa((3,)).hyperplanes)
    covs += [project_zero_sum([int(i == t) for t in range(3)], (3,))
             for i in range(3)]
    tags = ["T"] * 3 + ["F"] * 3
    return Arrangement(2, covs, label="G4", tags=tags, weyl=(3,))


# The 25 forms of the G8 parameter arrangement, in the ambient coordinates
# (kappa_0, kappa_1, kappa_2, kappa_3) with sum(kappa) = 0.
G8_AMBIENT = (
    (-1, 0, 0, 1), (-1, 0, 1, 0), (1, 0, 1, -2), (0, 0, 1, -1),
    (1, -3, 1, 1), (-2, 0, 1, 1), (-1, 0, 2, -1), (-1, 1, 0, 0),
    (1, 1, 0, -2), (0, 1, 0, -1), (-2, 1, 0, 1), (1, 1, -3, 1),
    (1, 1, -2, 0), (0, 1, -2, 1), (0, 1, -1, 0), (1, 1, -1, -1),
    (-1, 1, -1, 1), (-2, 1, 1, 0), (1, 1, 1, -3), (0, 1, 1, -2),
    (-1, 1, 1, -1), (-3, 1, 1, 1), (-1, 2, 0, -1), (-1, 2, -1, 0),
    (0, 2, -1, -1),
)


def gen_G8():
    """The 25-hyperplane G8 parameter arrangement, essentialized to dim 3.

    The six root lines kappa_i = kappa_j (the type A3 sub-arrangement) are
    tagged T, the rest F.
    """
    covs = [project_zero_sum(c, (4,)) for c in G8_AMBIENT]
    roots = set(gen_coxeter_namikawa((4,)).hyperplanes)
    tags = ["T" if c in roots else "F" for c in covs]
    arr = Arrangement(3, covs, label="G8", tags=tags, weyl=(4,))
    if len(arr.hyperplanes) != 25:
        raise GeneratorInvariant("G8 essentialization kept %d of 25 "
                                 "hyperplanes" % len(arr.hyperplanes))
    return arr


# ---------------------------------------------------------------------------
# bundled reference table


class TableRow(namedtuple("TableRow", "group n_hyperplanes weyl "
                                      "poincare_factors e_count free_flag")):
    """One printed row; each Poincare factor is an ascending coefficient
    tuple."""

    __slots__ = ()

    @property
    def poincare(self):
        return IntPolynomial.from_factors(self.poincare_factors)


def table1_rows():
    """The 15 reference rows exactly as printed, factored Poincare included."""
    # only this function reads the bundled table, so its modules load here
    import json
    from importlib import resources
    text = resources.files("cmarr").joinpath("data/table1.json").read_text()
    data = json.loads(text)
    rows = []
    for r in data["rows"]:
        rows.append(TableRow(
            group=r["group"],
            n_hyperplanes=r["n_hyperplanes"],
            weyl=tuple(r["weyl"]),
            poincare_factors=tuple(tuple(f) for f in r["poincare_factors"]),
            e_count=r["e"],
            free_flag=r["free"]))
    return rows
