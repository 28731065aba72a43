"""Orlik-Solomon combinatorics: circuits, broken circuits, nbc sets.

Only the graded dimensions of the cohomology of the complement are computed;
the algebra itself is represented combinatorially through nbc sets.
"""

# rref is unused here but stays bound in this module: bench/trace_job.py
# wraps it by name.
from .errors import InvalidParams
from .exactlin import rref  # noqa: F401
from .lattice import _bits, lattice_of


class CircuitSet:
    """All minimal dependent subsets of the arrangement's covectors.

    `masks` holds each circuit as the int bitmask of its hyperplane
    indices; `circuits` is the same sets as sorted index tuples in
    lexicographic order, built on first read.
    """

    __slots__ = ("masks", "_circuits")

    def __init__(self, masks):
        self.masks = tuple(masks)
        self._circuits = None

    @property
    def circuits(self):
        if self._circuits is None:
            self._circuits = tuple(sorted(tuple(_bits(m))
                                          for m in self.masks))
        return self._circuits

    def __iter__(self):
        return iter(self.circuits)

    def __len__(self):
        return len(self.masks)


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
    are read off `lattice`, L(arr), built when absent.
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

    def dfs(current, x, minus, start):
        later = -1 << start
        closed = x & later
        for m in minus:
            closed &= ~m
        while closed:
            low = closed & -closed
            found.append(current | low)
            closed ^= low
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
                while closed:
                    bit = closed & -closed
                    found.append(current | low | bit)
                    closed ^= bit
            else:
                dfs(current | low, jx[h], [j[h] for j in jm] + [x], h + 1)

    dfs(0, 0, [], 0)
    return CircuitSet(found)


def broken_circuits(circuit_set, order):
    """Each circuit minus its least element w.r.t. the given order."""
    pos = {h: i for i, h in enumerate(order)}
    out = []
    for c in circuit_set:
        least = min(c, key=lambda h: pos[h])
        out.append(frozenset(h for h in c if h != least))
    return out


def nbc_basis(arr, order=None, lattice=None):
    """Enumerate the nbc sets of the arrangement under a hyperplane order.

    DFS over hyperplanes in order position, cutting a branch as soon as the
    set contains a broken circuit.  That also cuts every dependent set: it
    contains a circuit C, so the broken circuit C - min(C), found when the
    order-largest element of C is added.  `lattice` is L(arr) or None.
    """
    lattice = lattice_of(arr, lattice)
    n = len(arr.hyperplanes)
    if order is None:
        order = tuple(range(n))
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise InvalidParams("order must be a permutation of 0..%d" % (n - 1))
    rank = arr.rank
    pos = [0] * n
    for i, h in enumerate(order):
        pos[h] = i
    # broken circuits (a circuit minus its order-least element) indexed by
    # their order-largest element, the rest kept as a bitmask: a violation
    # can only appear when that element is added, and then exactly when
    # some submask of the current set's mask is the rest of a broken
    # circuit with that top
    rest_by_top = {}
    natural = order == tuple(range(n))
    for c in circuits(arr, lattice=lattice).masks:
        if natural:
            least = c & -c
            top = c.bit_length() - 1
        else:
            bits = _bits(c)
            least = 1 << min(bits, key=pos.__getitem__)
            top = max(bits, key=pos.__getitem__)
        rest_by_top.setdefault(top, set()).add(c ^ least ^ 1 << top)
    sets_by_size = [[] for _ in range(rank + 1)]

    def dfs(start_pos, current, mask):
        sets_by_size[len(current)].append(tuple(sorted(current)))
        if len(current) == rank:
            return  # every further hyperplane is dependent
        for p in range(start_pos, n):
            h = order[p]
            rests = rest_by_top.get(h)
            if rests and _some_submask_in(mask, rests):
                continue  # contains a broken circuit
            current.append(h)
            dfs(p + 1, current, mask | (1 << h))
            current.pop()

    dfs(0, [], 0)
    for bucket in sets_by_size:
        bucket.sort()
    return NbcBasis(order, sets_by_size)


def _some_submask_in(mask, masks):
    """Whether some submask of `mask`, the empty one included, is in the
    set `masks`; walks the submasks from `mask` down to 0."""
    sub = mask
    while sub not in masks:
        if not sub:
            return False
        sub = (sub - 1) & mask
    return True


def os_dimension(arr):
    """Total number of nbc sets = pi(arr, 1)."""
    return nbc_basis(arr).total
