"""Orlik-Solomon combinatorics: circuits, broken circuits, nbc sets.

Only the graded dimensions of the cohomology of the complement are computed;
the algebra itself is represented combinatorially through nbc sets.
"""

# rref is unused here but stays bound in this module: bench/trace_job.py
# wraps it by name.
from .exactlin import rref  # noqa: F401
from .lattice import _bits, lattice_of


class CircuitSet:
    """All minimal dependent subsets of the arrangement's covectors.

    The search emits its circuits in groups `(base, tops)`: the circuits
    of a group are `base | t` for each bit t of `tops`, and every top bit
    lies above every base bit, so t is the circuit's largest index.
    `groups` keeps them that way.  `masks`, each circuit as the int
    bitmask of its hyperplane indices in the order the search found them,
    and `circuits`, the same sets as sorted index tuples in lexicographic
    order, are built on first read.
    """

    __slots__ = ("groups", "_masks", "_circuits")

    def __init__(self, groups):
        self.groups = tuple(groups)
        self._masks = None
        self._circuits = None

    @property
    def masks(self):
        if self._masks is None:
            self._masks = tuple(base | 1 << t for base, tops in self.groups
                                for t in _bits(tops))
        return self._masks

    @property
    def circuits(self):
        if self._circuits is None:
            self._circuits = tuple(sorted(tuple(_bits(m))
                                          for m in self.masks))
        return self._circuits

    def __iter__(self):
        return iter(self.circuits)

    def __len__(self):
        return sum(tops.bit_count() for _, tops in self.groups)


class NbcBasis:
    """Independent index sets containing no broken circuit, by cardinality."""

    __slots__ = ("order", "sets_by_size")

    def __init__(self, order, sets_by_size):
        self.order = tuple(order)
        self.sets_by_size = tuple(tuple(s) for s in sets_by_size)

    @property
    def sizes(self):
        return tuple(len(s) for s in self.sets_by_size)

    @property
    def total(self):
        return sum(self.sizes)


def circuits(arr, lattice=None):
    """Minimal dependent subsets, found by a DFS over independent subsets.

    No circuit exceeds rank+1 elements in a central arrangement.  Joins
    are read off `lattice`, L(arr), built when absent.  The circuits a
    node finds share all but their largest element, so each emission is
    one group `(base, tops)` of the returned `CircuitSet`, every bit of
    `tops` above every bit of `base`.
    """
    n = len(arr.hyperplanes)
    joins = lattice_of(arr, lattice).joins
    top = (1 << n) - 1  # the center lies on every hyperplane
    found = []
    # DFS over independent subsets I in increasing index order, each kept
    # as the bitmask `current`.  A node keeps the closure x = cl(I) and the
    # closures cl(I - s), s in I, as flat masks.  For a later h in x,
    # I + h is dependent, and it is a circuit iff every I + h - s is
    # independent, i.e. iff h lies in no cl(I - s); every circuit is met
    # exactly once this way (at I = circuit minus its largest element).  A
    # later h outside x extends I, and the child's closures are join(x, h)
    # and join(cl(I - s), h) for each s, with cl(I) itself for s = h.  A
    # child closing to the top flat only emits circuits: that is inlined.
    # Every h is later than all of I, so each group's tops lie above its
    # base.

    def dfs(current, x, minus, start):
        later = -1 << start
        closed = x & later
        for m in minus:
            closed &= ~m
        if closed:
            found.append((current, closed))
        free = top & ~x & later
        if not free:
            return
        jx = joins(x)
        jm = [joins(m) for m in minus]
        while free:
            low = free & -free
            free ^= low
            h = low.bit_length() - 1
            if jx[h] == top:
                closed = top & ~x & -2 << h
                for j in jm:
                    closed &= ~j[h]
                if closed:
                    found.append((current | low, closed))
            else:
                dfs(current | low, jx[h], [j[h] for j in jm] + [x], h + 1)

    dfs(0, 0, [], 0)
    return CircuitSet(found)


def nbc_basis(arr, order=None, lattice=None):
    """Enumerate the nbc sets of the arrangement under a hyperplane order.

    DFS over hyperplanes in index order, never adding an element that
    would complete a broken circuit.  That also cuts every dependent set:
    it contains a circuit C, so the broken circuit C - min(C), completed
    when the largest element of C is added.  `lattice` is L(arr) or None.

    Each broken circuit is filed under its rest (the circuit minus its
    least and top elements): `tops_by_rest[rest]` is the mask of the tops
    filed there.  A circuit group's tops lie above its base, so its
    circuits share their least element and their rest.  A set S may not
    take next the top of any broken circuit whose rest lies inside S; the
    DFS carries that mask `forbid`.  Adding p to S forbids, besides what S
    forbids, the tops filed under each rest that contains p, i.e. under
    R + p for each submask R of S: at most 2^|S| lookups.  The root forbids
    the tops of the empty rest, those of the 2-element circuits.

    Under another order, the nbc sets are those of the same hyperplanes
    relabelled, position p holding hyperplane order[p], in index order.
    They are read off L(arr) relabelled by `order`, so a `lattice` handed
    in is read and no lattice is built again; the sets are mapped back
    through `order`.  The rank is the top level of the lattice, so no
    elimination runs for it.
    """
    n = len(arr.hyperplanes)
    lat = lattice_of(arr, lattice)
    order = tuple(range(n)) if order is None else tuple(order)
    if order != tuple(range(n)):
        moved = lat.relabelled(order)
        return NbcBasis(order, [
            sorted(tuple(sorted(order[p] for p in s)) for s in bucket)
            for bucket in nbc_basis(moved.arrangement,
                                    lattice=moved).sets_by_size])
    rank = len(lat.masks) - 1
    tops_by_rest = {}
    for base, tops in circuits(arr, lattice=lat).groups:
        rest = base & base - 1
        tops_by_rest[rest] = tops_by_rest.get(rest, 0) | tops
    sets_by_size = [[] for _ in range(rank + 1)]
    every = (1 << n) - 1

    def dfs(current, mask, forbid, start):
        sets_by_size[len(current)].append(current)
        if len(current) == rank:
            return  # every further hyperplane is dependent
        free = every & -1 << start & ~forbid
        while free:
            low = free & -free
            free ^= low
            p = low.bit_length() - 1
            f = forbid
            sub = mask
            while True:
                f |= tops_by_rest.get(sub | low, 0)
                if not sub:
                    break
                sub = sub - 1 & mask
            dfs(current + (p,), mask | low, f, p + 1)

    # the DFS lists each size's sets sorted
    dfs((), 0, tops_by_rest.get(0, 0), 0)
    return NbcBasis(order, sets_by_size)


def os_dimension(arr):
    """Total number of nbc sets = pi(arr, 1)."""
    return nbc_basis(arr).total
