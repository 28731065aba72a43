"""Reference routes that only the tests call.

Each computes a fact that `src/cmarr` computes another way, from its
definition: the Mobius numbers by the O(F^2) recursion (Orlik-Terao,
Arrangements of Hyperplanes, Ch. 2), a localization by the span test on
its covectors, broken circuits by dropping each circuit's least element
(Bjorner, "The homology and shellability of matroids and geometric
lattices", 1992), the exponents and Coxeter number of a root system by
the heights of its positive roots (Kostant), and the Fuss-Catalan number
from them.  The tests compare the library's answers with these.  The
hypothesis strategy `symmetric_arrangements` draws the W-stable inputs
that more than one test module runs them on.
"""

from collections import Counter
from math import prod

from hypothesis import assume, strategies as st

from cmarr.errors import FlatNotInLattice, MobiusSignViolation
from cmarr.exactlin import echelon, normalize_covector, reduce_covector
from cmarr.generators import root_system
from cmarr.lattice import Arrangement
from cmarr.symmetry import block_generators


def mobius_by_rank(levels):
    """Mobius values mu(V, X) for flats given as bitmasks per rank.

    mu(bottom) = 1 and mu(X) = -sum of mu(Z) over the flats Z below X,
    which lie in lower ranks.  In a geometric lattice mu(X) is nonzero with
    sign (-1)^rank(X); a violation means the levels are not the lattice of
    an arrangement and raises MobiusSignViolation.
    """
    out = [[1] * len(levels[0])]
    below = [(z, 1) for z in levels[0]]
    for r in range(1, len(levels)):
        mus = []
        for x in levels[r]:
            mu = -sum(m for z, m in below if z & x == z)
            if mu * (-1) ** r <= 0:
                raise MobiusSignViolation(
                    "Mobius sign violation at rank %d" % r)
            mus.append(mu)
        out.append(mus)
        below.extend(zip(levels[r], mus))
    return out


def localization(arr, flat, owner=None):
    """Sub-arrangement of exactly the hyperplanes containing the flat.

    `owner` is the arrangement the flat is a flat of, arr when None.
    """
    held = flat.hyperplanes
    for i in held:
        if not 0 <= i < len(arr.hyperplanes):
            raise FlatNotInLattice("hyperplane index %d out of range" % i)
    # the flat is cut out by the listed covectors of its own arrangement,
    # and a hyperplane contains it iff its covector lies in their span; a
    # genuine flat of this arrangement lists *every* such hyperplane, so a
    # mismatch either way means the flat belongs to another lattice
    own = (arr if owner is None else owner).hyperplanes
    rows = echelon(own[i] for i in held)
    for i, cov in enumerate(arr.hyperplanes):
        contains = reduce_covector(cov, rows) is None
        if i in held and not contains:
            raise FlatNotInLattice(
                "hyperplane %d does not contain the flat" % i)
        if contains and i not in held:
            raise FlatNotInLattice(
                "hyperplane %d contains the flat but is not listed" % i)
    covs = [arr.hyperplanes[i] for i in sorted(held)]
    return Arrangement(arr.dim, covs)


def broken_circuits(circuit_set, order):
    """Each circuit minus its least element w.r.t. the given order."""
    pos = {h: i for i, h in enumerate(order)}
    out = []
    for c in circuit_set:
        least = min(c, key=lambda h: pos[h])
        out.append(frozenset(h for h in c if h != least))
    return out


def _exponents_and_coxeter_number(label):
    """The exponents m_i, the dual partition of the number of positive roots
    at each height, and the Coxeter number h, the largest height plus 1."""
    rs = root_system(label)
    by_height = Counter(sum(beta) for beta in rs.positive_roots)
    exponents = [sum(1 for count in by_height.values() if count >= i)
                 for i in range(1, rs.rank + 1)]
    return exponents, max(by_height) + 1


def _fuss_catalan(label, n):
    """prod (d_i + (n - 1) h) / d_i over the degrees d_i = m_i + 1."""
    exponents, h = _exponents_and_coxeter_number(label)
    degrees = [m + 1 for m in exponents]
    return prod(d + (n - 1) * h for d in degrees) // prod(degrees)


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
