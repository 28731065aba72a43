"""Permutation-group actions on arrangements, the Coxeter arrangement of a
block layout (its root lines, which `--stability` looks for) and Table 1
auditing.

The group is a product of symmetric groups, one per Weyl block; sigma sends
the ambient coordinate kappa_{b,i} to kappa_{b,sigma(i)} and the induced map
on the essential coordinates (index-0 coordinate of each block eliminated)
is applied to covectors.
"""

from collections import namedtuple
from math import factorial

from .arrfile import format_weyl
from .errors import InvalidParams, LayoutMismatch, NonIntegral, NotStable
from .exactlin import project_zero_sum
from .intpoly import exponents_from_poincare
from .lattice import Arrangement, _orbit


class BlockPermutation:
    """One permutation per block; perms[b][i] is the image of position i."""

    __slots__ = ("blocks", "perms")

    def __init__(self, blocks, perms):
        self.blocks = tuple(int(b) for b in blocks)
        self.perms = tuple(tuple(p) for p in perms)
        if len(self.blocks) != len(self.perms):
            raise LayoutMismatch("need one permutation per block")
        for m, p in zip(self.blocks, self.perms):
            if m < 1 or sorted(p) != list(range(m)):
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


def _layout_verdict(arr):
    """The one gate for arr's own block layout: does it act on arr?

    Raises LayoutMismatch when arr has no layout; `Arrangement` checked
    that one it has fits arr.dim.  Otherwise returns the verdict: when arr
    is stable, the block generators as index permutations of arr's
    hyperplanes (entry k maps each index i to the index of i's image under
    the k-th generator of `block_generators`); when it is not, the unstable
    StabilityResult, carrying the first generator and the first covector it
    moves outside the set.  Either verdict is kept on arr (its `_perms`
    slot), so a job decides stability once.
    """
    if arr.weyl is None:
        raise LayoutMismatch(
            "stage requires a Weyl layout (weyl header or generator "
            "metadata)")
    if arr._perms is None:
        arr._perms = _index_permutations(arr)
    return arr._perms


def _index_permutations(arr):
    index_of = {c: i for i, c in enumerate(arr.hyperplanes)}
    perms = []
    for g in block_generators(arr.weyl):
        perm = [index_of.get(g.apply_covector(c)) for c in arr.hyperplanes]
        if None in perm:
            return StabilityResult(False, g, arr.hyperplanes[perm.index(None)])
        perms.append(tuple(perm))
    return tuple(perms)


def layout_permutations(arr):
    """The index permutations by which arr's own layout acts on it, for the
    lattice build: the gate's when arr has a layout that leaves it stable,
    and none, the trivial group, otherwise."""
    verdict = () if arr.weyl is None else _layout_verdict(arr)
    return () if isinstance(verdict, StabilityResult) else verdict


def generator_permutations(arr):
    """The gate's verdict when it is stable: the block generators as index
    permutations of arr's hyperplanes.  Raises LayoutMismatch as the gate
    does, and NotStable, carrying the witness, when arr is not stable."""
    verdict = _layout_verdict(arr)
    if isinstance(verdict, StabilityResult):
        g, c = verdict.witness_generator, verdict.witness_covector
        raise NotStable(
            "arrangement is not stable under %r (generator %r moves %r "
            "outside the set)" % (list(g.blocks), g, c), g, c)
    return verdict


def is_stable(arr):
    """Set-wise invariance under each adjacent-transposition generator of
    arr's layout: the gate's verdict, with its witness when arr is not
    stable."""
    verdict = _layout_verdict(arr)
    return verdict if isinstance(verdict, StabilityResult) \
        else StabilityResult(True)


def hyperplane_orbits(arr):
    """Orbit partition of hyperplane indices under the group arr's layout
    generates.

    The orbit of hyperplane i is closed by `_orbit`, the closure the lattice
    build runs on flat masks, here on indices under the generators' index
    permutations, so no mask map is built.  Each orbit is closed once, from
    its least index, and sorted, so the orbits come out sorted.
    """
    maps = [p.__getitem__ for p in generator_permutations(arr)]
    orbits, placed = [], set()
    for i in range(len(arr.hyperplanes)):
        if i not in placed:
            orbits.append(tuple(sorted(_orbit(i, maps))))
            placed.update(orbits[-1])
    return tuple(orbits)


def gen_coxeter_namikawa(spec):
    """All hyperplanes kappa_{b,i} = kappa_{b,j} per block, essentialized.

    A layout with no block of size >= 2 has no such hyperplane, and raises
    InvalidParams: an arrangement file needs a hyperplane line.
    """
    blocks = tuple(int(b) for b in spec)
    if not blocks or any(b < 1 for b in blocks):
        raise InvalidParams("weyl spec must be nonempty with sizes >= 1")
    if max(blocks) < 2:
        raise InvalidParams("weyl spec needs a block of size >= 2")
    dim = sum(b - 1 for b in blocks)
    covs = []
    pos = 0
    for m in blocks:
        for j in range(m):
            for i in range(j + 1, m):
                amb = [0] * sum(blocks)
                amb[pos + i] = 1
                amb[pos + j] = -1
                covs.append(project_zero_sum(amb, blocks))
        pos += m
    return Arrangement(dim, covs, label="coxeter-" + format_weyl(blocks),
                       tags=["T"] * len(covs), weyl=blocks)


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
        check_degree = (p.degree == sum(m - 1 for m in row.weyl))
        try:
            computed_e = terminalization_count(p, row.weyl)
        except NonIntegral:
            computed_e = None
        check_e = computed_e == row.e_count
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
