"""Freeness diagnostics via the addition-deletion recursion.

The verdict lattice is {InductivelyFree, NotFree, Unknown}: sound but
incomplete.  NotFree certificates come from a Poincare polynomial that does
not factor into integral linear factors, either for the arrangement itself
or for one of its localizations; InductivelyFree certificates are removal
chains for the addition-deletion triple.
"""

from collections import Counter

from .errors import (DimensionMismatch, ExponentMismatch, IndexOutOfRange,
                     InvalidParams)
# common_kernel and restrict_covectors_to are unused here but stay bound in
# this module: bench/trace_job.py wraps them by name.
from .exactlin import common_kernel, restrict_covectors_to  # noqa: F401
from .intpoly import IntPolynomial, exponents_from_poincare
from .lattice import (Arrangement, _bits, build_lattice, essentialize,
                      lattice_of, localization_poincare, poincare_polynomial)

DEFAULT_BUDGET = 10 ** 6


def deletion(arr, h):
    """The arrangement with hyperplane h removed; same ambient dimension.

    arr's covectors are already normalized and distinct, so the node is
    built from slices of them by `Arrangement._trusted`, with no second
    pass of the constructor.
    """
    if not 0 <= h < len(arr.hyperplanes):
        raise IndexOutOfRange("hyperplane index %d out of range" % h)
    return Arrangement._trusted(
        arr.dim, arr.hyperplanes[:h] + arr.hyperplanes[h + 1:], arr.label,
        None if arr.tags is None else arr.tags[:h] + arr.tags[h + 1:],
        arr.weyl)


def restriction(arr, h):
    """The arrangement {H ∩ K : K != H} inside hyperplane h (dim - 1).

    Coordinates are those of the reduced echelon basis of H = ker(a): it
    has a pivot at every column except q, the last with a_q != 0, so K
    restricts to (a_q c_j - c_q a_j) for j != q, up to the scalar that
    normalization removes.  Forms vanishing on H are dropped and duplicates
    keep their first occurrence.
    """
    if not 0 <= h < len(arr.hyperplanes):
        raise IndexOutOfRange("hyperplane index %d out of range" % h)
    if arr.dim < 2:
        raise DimensionMismatch(
            "cannot restrict to a zero-dimensional subspace")
    a = arr.hyperplanes[h]
    q = max(j for j, x in enumerate(a) if x)
    covs = []
    for i, c in enumerate(arr.hyperplanes):
        if i == h:
            continue
        coords = [a[q] * cj - c[q] * aj
                  for j, (cj, aj) in enumerate(zip(c, a)) if j != q]
        if any(coords):
            covs.append(coords)
    return Arrangement(arr.dim - 1, covs)


class FreenessVerdict:
    """status is "InductivelyFree", "NotFree" or "Unknown"; nodes_used is
    set once the search that produced the verdict ends."""

    __slots__ = ("status", "exponents", "witness", "nodes_used")

    def __init__(self, status, exponents=(), witness=None, nodes_used=0):
        self.status = status
        self.exponents = exponents
        self.witness = witness
        self.nodes_used = nodes_used

    def _fields(self):
        return self.status, self.exponents, self.witness, self.nodes_used

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("FreenessVerdict(status=%r, exponents=%r, witness=%r, "
                "nodes_used=%r)" % self._fields())

    def to_dict(self):
        return {"status": self.status,
                "exponents": list(self.exponents),
                "witness": self.witness,
                "nodes_used": self.nodes_used}


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0


def inductive_freeness(arr, budget=DEFAULT_BUDGET, lattice=None):
    """Decide inductive freeness by the addition-deletion recursion.

    The triple (A, A' = deletion, A'' = restriction) certifies A when both
    A' and A'' are inductively free and exp(A'') is a sub-multiset of
    exp(A'); then exp(A) = exp(A'') + {|A| - |A''|}.  Candidate hyperplanes
    are filtered through the exponents of the Poincare factorization
    (|A| - |A''| must itself be an exponent) and tried with the largest
    restriction first.  A `lattice` handed in must be L(arr); the root node
    then uses it instead of building its own.

    Every search node is essential, so its rank is its dim.  The root is
    essentialized.  `restriction` maps V* onto H* with kernel span(a_h), so
    a spanning set of covectors still spans.  A' has rank deg p(A'), below
    dim only when h is a coloop; that deletion alone is essentialized, and
    exp(A') gets a 0 for the rank it lost.

    Each node decided costs one unit of `budget`, and its verdict is
    memoized by canonical key.  An Unknown verdict's witness gives its
    reason: "budget" when the budget ran out at the node or at a child it
    read (such a verdict is not memoized), "no_chain" when every candidate
    was searched to the end and none gave a chain.
    """
    if budget <= 0:
        raise InvalidParams("budget must be positive")
    if lattice is not None:
        lattice_of(arr, lattice)  # rejects another arrangement's lattice
    memo = {}
    bud = _Budget(budget)
    ess = essentialize(arr)
    verdict = _inductive(ess, memo, bud, lat=lattice)
    verdict.nodes_used = bud.used
    return verdict


def _deletion_lines(lines, h0):
    """Rank-2 flat masks of A - h0 from those of A: bit h0 is removed, the
    bits above it move down, and masks left with one hyperplane go."""
    low = (1 << h0) - 1
    shifted = ((m & low) | (m >> (h0 + 1) << h0) for m in lines)
    return [m for m in shifted if m & (m - 1)]


def _inductive(arr, memo, bud, known=None, lat=None):
    """The verdict on arr: read from the memo, or decided at the cost of one
    node of the budget and memoized unless the budget cut it short."""
    key = arr.canonical_key()
    if key in memo:
        return memo[key]
    if bud.used >= bud.limit:
        return FreenessVerdict("Unknown", witness={"reason": "budget"})
    bud.used += 1
    v = _decide(arr, memo, bud, known, lat)
    if not _cut_short(v):
        memo[key] = v
    return v


def _cut_short(v):
    return v.status == "Unknown" and v.witness["reason"] == "budget"


def _decide(arr, memo, bud, known, lat):
    """One node's verdict, its children searched through _inductive."""
    n = len(arr.hyperplanes)
    if n == 0:
        return FreenessVerdict("InductivelyFree", ())
    if arr.dim <= 2:
        # every central rank <= 2 arrangement peels one line at a time
        exps = (1,) if n == 1 else (1, n - 1)
        return FreenessVerdict("InductivelyFree", exps,
                               witness={"reason": "rank<=2"})
    # Each node owns its lattice: the root (unless handed one) and every
    # restriction build it here, once past the memo, budget and rank checks.
    # A deletion gets (p, lines) from its parent instead: p(A') from the
    # identity p(A) = p(A') + t p(A''), and its rank-2 flats as masks.
    if known is None:
        lat = lat or build_lattice(arr)
        known = poincare_polynomial(lat), lat.masks[2]
    p, lines = known
    rep = exponents_from_poincare(p)
    if not rep.factors_integrally:
        return FreenessVerdict("NotFree", witness=_residual_witness(p, rep))
    target_exps = rep.exponents
    # candidate removals: |A| - |A''| must be one of the exponents, where
    # |A''| for H is the number of rank-2 flats above H; only the candidates
    # tried are restricted
    sizes = [0] * n
    for m in lines:
        for h in _bits(m):
            sizes[h] += 1
    candidates = sorted((-sizes[h], h) for h in range(n)
                        if n - sizes[h] in target_exps)
    cut_short = False
    for _, h in candidates:
        rst = restriction(arr, h)
        v2 = _inductive(rst, memo, bud)
        cut_short |= _cut_short(v2)
        if v2.status != "InductivelyFree":
            continue
        exp2 = v2.exponents
        # a free child's exponents factor its Poincare polynomial: a chain
        # was checked against it (ExponentMismatch), and the rank <= 2 ones
        # hold for every central arrangement
        p_rst = IntPolynomial.from_factors([[1, e] for e in exp2])
        p_del = p - p_rst.shift(1)
        # only a coloop's deletion loses rank (see inductive_freeness)
        dl = deletion(arr, h)
        if p_del.degree < arr.dim:
            dl = essentialize(dl)
        v1 = _inductive(dl, memo, bud,
                        known=(p_del, _deletion_lines(lines, h)))
        cut_short |= _cut_short(v1)
        if v1.status != "InductivelyFree":
            continue
        exp1 = (0,) * (arr.dim - p_del.degree) + v1.exponents
        if not Counter(exp2) <= Counter(exp1):
            continue
        exps = tuple(sorted(exp2 + (n - len(rst.hyperplanes),)))
        step = {"removed": list(arr.hyperplanes[h]),
                "deletion_exponents": list(exp1),
                "restriction_exponents": list(exp2),
                "exponents": list(exps)}
        if exps != target_exps:
            raise ExponentMismatch(
                "chain exponents %r disagree with Poincare factorization %r"
                % (exps, target_exps))
        # a deletion keeps at least two hyperplanes, so its witness is a
        # chain or the rank <= 2 reason
        return FreenessVerdict("InductivelyFree", exps, witness={
            "chain": [step] + v1.witness.get("chain", [])})
    # the search failed: look for a cheap non-freeness certificate among
    # proper localizations of rank >= 3 before giving up
    found = _nonfree_localization(lat or build_lattice(arr))
    if found is not None:
        flat, inner = found
        return FreenessVerdict("NotFree", witness=dict(
            inner, reason="nonfree_localization", flat_hyperplanes=flat))
    return FreenessVerdict("Unknown", witness={
        "reason": "budget" if cut_short else "no_chain"})


def _residual_witness(p, rep):
    return {"reason": "poincare_residual", "poincare": list(p.coeffs),
            "residual": list(rep.residual.coeffs)}


def _nonfree_localization(lat):
    """(sorted hyperplanes of X, residual witness of pi(A_X)) for the first
    proper flat X of rank >= 3, in the order of lat.masks, whose
    localization's Poincare polynomial does not factor, or None.  The last
    level holds only the top, the flat on every hyperplane, so it is not
    scanned; rank <= 2 localizations are always free."""
    for r in range(3, len(lat.masks) - 1):
        for x in lat.masks[r]:
            p = localization_poincare(lat, x, r)
            rep = exponents_from_poincare(p)
            if not rep.factors_integrally:
                return _bits(x), _residual_witness(p, rep)
    return None

