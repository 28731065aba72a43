"""Orlik-Solomon combinatorics: circuits, broken circuits, nbc sets.

Only the graded dimensions of the cohomology of the complement are computed;
the algebra itself is represented combinatorially through nbc sets.
"""

# rref is unused here but stays bound in this module: bench/trace_job.py
# wraps it by name.
from .exactlin import echelon_insert, reduce_covector, rref  # noqa: F401


class CircuitSet:
    """All minimal dependent subsets of the arrangement's covectors."""

    __slots__ = ("circuits",)

    def __init__(self, circuits):
        self.circuits = tuple(tuple(sorted(c)) for c in circuits)

    def __iter__(self):
        return iter(self.circuits)

    def __len__(self):
        return len(self.circuits)


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


def circuits(arr):
    """Minimal dependent subsets, found by a DFS over independent subsets.

    No circuit exceeds rank+1 elements in a central arrangement.
    """
    covs = arr.hyperplanes
    n = len(covs)
    width = arr.rank + 1
    found = []
    # DFS over independent subsets in increasing index order.  At a node I,
    # a later covector h lying in span(I) closes the unique circuit inside
    # I + {h}; it equals I + {h} exactly when the representation of h over
    # I uses every element, and every circuit is met exactly once this way
    # (at I = circuit minus its largest element).  The element at depth k
    # is augmented by the unit vector e_k in `width` extra columns, so the
    # integer kernel's residual of h's augmented vector against the rows of
    # I carries, after the covector part, the coefficients of h and of each
    # element of I in the combination it eliminated.  The covector part is
    # zero exactly when h lies in span(I), and then the nonzero depth
    # coefficients name the circuit.

    def dfs(current, rows, start):
        depth = len(current)
        unit = (0,) * depth + (1,) + (0,) * (width - depth - 1)
        for h in range(start, n):
            res = reduce_covector(covs[h] + unit, rows)
            if not any(res[:arr.dim]):
                if all(res[arr.dim:arr.dim + depth]):
                    found.append(tuple(current) + (h,))
                continue
            current.append(h)
            dfs(current, echelon_insert(rows, res), h + 1)
            current.pop()

    dfs([], (), 0)
    return CircuitSet(sorted(found))


def broken_circuits(circuit_set, order):
    """Each circuit minus its least element w.r.t. the given order."""
    pos = {h: i for i, h in enumerate(order)}
    out = []
    for c in circuit_set:
        least = min(c, key=lambda h: pos[h])
        out.append(frozenset(h for h in c if h != least))
    return out


def nbc_basis(arr, order=None):
    """Enumerate the nbc sets of the arrangement under a hyperplane order.

    DFS over hyperplanes in order position, maintaining an incremental row
    basis for the independence test; branches are cut as soon as a set is
    dependent or contains a broken circuit, since both defects persist in
    supersets.
    """
    n = len(arr.hyperplanes)
    if order is None:
        order = tuple(range(n))
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..%d" % (n - 1))
    covs = arr.hyperplanes
    rank = arr.rank
    bcs = broken_circuits(circuits(arr), order)
    pos = {h: i for i, h in enumerate(order)}
    # broken circuits indexed by their order-largest element, the rest kept
    # as a bitmask: a violation can only appear when that element is added,
    # and then exactly when some submask of the current set's mask is the
    # rest of a broken circuit with that top
    rest_by_top = {}
    for bc in bcs:
        top = max(bc, key=lambda h: pos[h])
        rest = 0
        for h in bc:
            if h != top:
                rest |= 1 << h
        rest_by_top.setdefault(top, set()).add(rest)
    sets_by_size = [[] for _ in range(rank + 1)]

    def dfs(start_pos, current, mask, basis_rows):
        sets_by_size[len(current)].append(tuple(sorted(current)))
        if len(current) == rank:
            return  # every further hyperplane is dependent
        for p in range(start_pos, n):
            h = order[p]
            rests = rest_by_top.get(h)
            if rests and _some_submask_in(mask, rests):
                continue  # contains a broken circuit
            res = reduce_covector(covs[h], basis_rows)
            if res is None:
                continue  # dependent; supersets stay dependent
            current.append(h)
            dfs(p + 1, current, mask | (1 << h),
                echelon_insert(basis_rows, res))
            current.pop()

    dfs(0, [], 0, ())
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
