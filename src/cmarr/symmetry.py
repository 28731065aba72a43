"""Permutation-group actions on arrangements and Table 1 auditing.

The group is a product of symmetric groups, one per Weyl block; sigma sends
the ambient coordinate kappa_{b,i} to kappa_{b,sigma(i)} and the induced map
on the essential coordinates (index-0 coordinate of each block eliminated)
is applied to covectors.
"""

from collections import namedtuple
from math import factorial

from .errors import LayoutMismatch, NonIntegral, NotStable
from .exactlin import project_zero_sum
from .intpoly import exponents_from_poincare
from .lattice import Arrangement, _bits, _mask_tables, _orbit


class BlockPermutation:
    """One permutation per block; perms[b][i] is the image of position i."""

    __slots__ = ("blocks", "perms")

    def __init__(self, blocks, perms):
        self.blocks = tuple(int(b) for b in blocks)
        self.perms = tuple(tuple(p) for p in perms)
        if len(self.blocks) != len(self.perms):
            raise LayoutMismatch("need one permutation per block")
        for m, p in zip(self.blocks, self.perms):
            if sorted(p) != list(range(m)):
                raise LayoutMismatch("bad permutation %r for block size %d"
                                     % (list(p), m))

    @classmethod
    def identity(cls, blocks):
        return cls(blocks, [tuple(range(m)) for m in blocks])

    def compose(self, other):
        """self after other: (self*other)(i) = self(other(i))."""
        if self.blocks != other.blocks:
            raise LayoutMismatch("block layouts differ")
        return BlockPermutation(
            self.blocks,
            [tuple(p[q[i]] for i in range(m))
             for m, p, q in zip(self.blocks, self.perms, other.perms)])

    def apply_covector(self, cov):
        """Pull a covector on the essential coordinates through the action.

        Per block: lift to ambient coefficients (0, c_1, ..., c_{m-1}) and
        move the coefficient at position i to position sigma(i); then
        `exactlin.project_zero_sum` eliminates each block's index-0
        coordinate again.
        """
        if len(cov) != sum(m - 1 for m in self.blocks):
            raise LayoutMismatch("covector length %d does not fit blocks %r"
                                 % (len(cov), list(self.blocks)))
        amb = []
        pos = 0
        for m, p in zip(self.blocks, self.perms):
            moved = [0] * m
            for i in range(1, m):
                moved[p[i]] = cov[pos + i - 1]
            amb.extend(moved)
            pos += m - 1
        return project_zero_sum(amb, self.blocks)

    def __eq__(self, other):
        return (isinstance(other, BlockPermutation)
                and self.blocks == other.blocks
                and self.perms == other.perms)

    def __hash__(self):
        return hash((self.blocks, self.perms))

    def __repr__(self):
        return "BlockPermutation(%r, %r)" % (list(self.blocks),
                                             [list(p) for p in self.perms])


def _check_layout(arr, blocks):
    blocks = tuple(int(b) for b in blocks)
    dim = sum(m - 1 for m in blocks)
    if dim != arr.dim:
        raise LayoutMismatch(
            "blocks %r give essential dimension %d, arrangement has %d"
            % (list(blocks), dim, arr.dim))
    return blocks


def block_generators(blocks):
    """Adjacent transpositions of each block: generators of the group."""
    gens = []
    for b, m in enumerate(blocks):
        for i in range(m - 1):
            perms = [tuple(range(mm)) for mm in blocks]
            p = list(range(m))
            p[i], p[i + 1] = p[i + 1], p[i]
            perms[b] = tuple(p)
            gens.append(BlockPermutation(blocks, perms))
    return gens


def act(perm, arr):
    """The image arrangement: every covector pulled through the action."""
    _check_layout(arr, perm.blocks)
    covs = [perm.apply_covector(c) for c in arr.hyperplanes]
    return Arrangement(arr.dim, covs, label=arr.label, tags=arr.tags,
                       weyl=arr.weyl)


class StabilityResult(namedtuple("StabilityResult",
                                 "stable witness_generator witness_covector",
                                 defaults=(None, None))):
    """True when stable; otherwise the violating generator and a covector
    it maps outside the set."""

    __slots__ = ()

    def __bool__(self):
        return self.stable


def generator_permutations(arr, spec):
    """The block generators as index permutations of arr's hyperplanes.

    Entry k maps each hyperplane index i to the index of its image under the
    k-th generator of `block_generators`.  Raises LayoutMismatch when the
    layout does not fit arr.dim, and NotStable, carrying the first generator
    and the first covector it moves outside the set, when arr is not stable.
    """
    blocks = _check_layout(arr, spec)
    index_of = {c: i for i, c in enumerate(arr.hyperplanes)}
    perms = []
    for g in block_generators(blocks):
        perm = []
        for c in arr.hyperplanes:
            j = index_of.get(g.apply_covector(c))
            if j is None:
                raise NotStable(
                    "arrangement is not stable under %r (generator %r "
                    "moves %r outside the set)" % (list(blocks), g, c), g, c)
            perm.append(j)
        perms.append(tuple(perm))
    return perms


def is_stable(arr, spec):
    """Set-wise invariance under each adjacent-transposition generator."""
    try:
        generator_permutations(arr, spec)
    except NotStable as e:
        return StabilityResult(False, e.generator, e.covector)
    return StabilityResult(True)


def hyperplane_orbits(arr, spec):
    """Orbit partition of hyperplane indices under the generated group.

    The orbit of hyperplane i is read off the orbit of the mask 1 << i under
    the generators' mask maps, the closure the lattice build runs on flats;
    its masks are single bits, so their sum is their union.  Each orbit is
    closed once, from its least index, so the orbits come out sorted.
    """
    tables = _mask_tables(generator_permutations(arr, spec))
    orbits = []
    placed = 0
    for i in range(len(arr.hyperplanes)):
        if not placed >> i & 1:
            orbit = sum(_orbit(1 << i, tables))
            placed |= orbit
            orbits.append(tuple(_bits(orbit)))
    return tuple(orbits)


def contains_subarrangement(arr, sub):
    """True iff every covector of sub occurs in arr (same coordinates)."""
    if arr.dim != sub.dim:
        raise LayoutMismatch("ambient dimensions differ: %d vs %d"
                             % (arr.dim, sub.dim))
    return set(sub.hyperplanes) <= set(arr.hyperplanes)


def group_order(spec):
    out = 1
    for m in spec:
        out *= factorial(m)
    return out


def terminalization_count(p, spec):
    """E = p(1) / |W|; NonIntegral flags inconsistent (polynomial, group)."""
    total = p(1)
    order = group_order(spec)
    if total % order:
        raise NonIntegral("dim H = %d is not divisible by |W| = %d"
                          % (total, order))
    return total // order


def audit_table1(rows=None):
    """Consistency checks on the reference table; reports, never repairs.

    Per row: (i) deg(pi) equals the essential dimension of the Weyl layout;
    (ii) pi(1)/|W| is an integer equal to the printed E; (iii) for rows
    printed free with rank 2, the exponents exist.  Returns a list of dicts.
    """
    if rows is None:
        from .generators import table1_rows
        rows = table1_rows()
    reports = []
    for row in rows:
        p = row.poincare
        expected_dim = sum(m - 1 for m in row.weyl)
        check_degree = (p.degree == expected_dim)
        total = p(1)
        order = group_order(row.weyl)
        if total % order:
            computed_e = None
            check_e = False
        else:
            computed_e = total // order
            check_e = (computed_e == row.e_count)
        check_exponents = None
        if row.free_flag and p.degree == 2:
            check_exponents = exponents_from_poincare(p).factors_integrally
        reports.append({
            "group": row.group,
            "check_degree": check_degree,
            "check_e": check_e,
            "computed_e": computed_e,
            "printed_e": row.e_count,
            "check_exponents": check_exponents,
            "pass": check_degree and check_e
                    and check_exponents is not False,
        })
    return reports
