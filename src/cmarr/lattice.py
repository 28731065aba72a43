"""Intersection lattice of a central arrangement and its polynomials.

Includes a finite-field point-counting fast path for the characteristic
polynomial, cross-validated against the Mobius-sum definition.
"""

import itertools
from fractions import Fraction
from math import gcd

from .errors import (BadPrime, DimensionMismatch, InconsistentCounts,
                     MobiusSignViolation)
# rref and in_row_span are unused here but stay bound in this module:
# bench/trace_job.py wraps them by name.
from .exactlin import (common_kernel, echelon_insert, in_row_span,  # noqa: F401
                       normalize_covector, rank_of, reduce_covector, rref,
                       span_coordinates)
from .intpoly import IntPolynomial, lagrange_interpolate


class Arrangement:
    """Ambient dimension plus an ordered, deduplicated list of covectors.

    Optional metadata: a label, per-hyperplane 'T'/'F' tags, and a Weyl block
    layout (tuple of symmetric-group sizes m, each acting on a zero-sum block
    contributing m-1 essential coordinates).
    """

    __slots__ = ("dim", "hyperplanes", "label", "tags", "weyl", "_rank")

    def __init__(self, dim, covectors, label=None, tags=None, weyl=None):
        self.dim = int(dim)
        hyps = []
        kept_tags = []
        seen = set()
        covectors = list(covectors)
        if tags is not None and len(tags) != len(covectors):
            raise ValueError("tags length %d != covector count %d"
                             % (len(tags), len(covectors)))
        for i, c in enumerate(covectors):
            if len(c) != self.dim:
                raise DimensionMismatch(
                    "covector length %d != dim %d" % (len(c), self.dim))
            nc = normalize_covector(c)
            if nc in seen:
                continue
            seen.add(nc)
            hyps.append(nc)
            if tags is not None:
                kept_tags.append(tags[i])
        self.hyperplanes = tuple(hyps)
        self.label = label
        self.tags = tuple(kept_tags) if tags is not None else None
        self.weyl = tuple(weyl) if weyl is not None else None
        self._rank = None

    def __len__(self):
        return len(self.hyperplanes)

    @property
    def rank(self):
        if self._rank is None:
            self._rank = rank_of(self.hyperplanes, dim=self.dim) \
                if self.hyperplanes else 0
        return self._rank

    def covector_set(self):
        return frozenset(self.hyperplanes)

    def canonical_key(self):
        return (self.dim, tuple(sorted(self.hyperplanes)))

    def __repr__(self):
        return "Arrangement(dim=%d, n=%d%s)" % (
            self.dim, len(self.hyperplanes),
            ", label=%r" % self.label if self.label else "")


class Flat:
    """A flat of the lattice: an intersection of some of the hyperplanes.

    `mask` has bit i set iff hyperplane i contains the flat; `hyperplanes`
    is the same set as a frozenset of indices.  The subspace is computed
    from the owning arrangement's covectors on first read.
    """

    __slots__ = ("mask", "hyperplanes", "rank", "mobius", "_arr",
                 "_subspace")

    def __init__(self, arrangement, mask, rank, mobius=None):
        self.mask = mask
        self.hyperplanes = frozenset(_bits(mask))
        self.rank = rank
        self.mobius = mobius
        self._arr = arrangement
        self._subspace = None

    @property
    def subspace(self):
        if self._subspace is None:
            covs = self._arr.hyperplanes
            self._subspace = common_kernel(
                [covs[i] for i in sorted(self.hyperplanes)],
                dim=self._arr.dim)
        return self._subspace

    def __repr__(self):
        return "Flat(rank=%d, hyperplanes=%s, mobius=%r)" % (
            self.rank, sorted(self.hyperplanes), self.mobius)


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class IntersectionLattice:
    __slots__ = ("arrangement", "flats", "by_rank", "bottom")

    def __init__(self, arrangement, flats, by_rank):
        self.arrangement = arrangement
        self.flats = flats
        self.by_rank = by_rank
        self.bottom = by_rank[0][0]


def build_lattice(arr):
    """Rank-level closure of intersections, with Mobius numbers.

    A flat is the int bitmask of the hyperplanes containing it, so flat Z
    lies below flat X iff Z & ~X == 0; this is valid because every flat of a
    central arrangement is the intersection of the hyperplanes containing
    it.  While its level is built, a flat also carries its span as integer
    echelon rows (see `exactlin.reduce_covector`).

    The children of a flat X are found from one reduction per hyperplane
    outside X.  Hyperplane i reduces to a primitive residual that is zero at
    every pivot of X's rows; residuals are compared as tuples, and two
    hyperplanes give the same residual exactly when they span the same
    child together with X.  So the first hyperplane with a new residual
    starts a child, and every later one with that residual is absorbed into
    it and starts none (the skip rule).  Children reached from several
    parents are merged by mask.  The reduction stays in the integers and
    only multiplies by nonzero scalars and subtracts span elements, so
    membership in a span is decided exactly, with no modulus or prime.

    Within a level flats are ordered by their sorted hyperplane indices.
    """
    covs = arr.hyperplanes
    n = len(covs)
    levels = [[0]]
    level = {0: ()}
    while True:
        next_level = {}
        for x, rows in level.items():
            children = {}
            for i in range(n):
                if x >> i & 1:
                    continue
                res = reduce_covector(covs[i], rows)
                if res in children:
                    children[res] |= 1 << i
                else:
                    children[res] = x | 1 << i
            for res, y in children.items():
                if y not in next_level:
                    next_level[y] = echelon_insert(rows, res)
        if not next_level:
            break
        levels.append(sorted(next_level, key=_bits))
        level = next_level
    mobius = mobius_by_rank(levels)
    by_rank = [[Flat(arr, x, r, mu) for x, mu in zip(masks, mus)]
               for r, (masks, mus) in enumerate(zip(levels, mobius))]
    flats = [f for lvl in by_rank for f in lvl]
    return IntersectionLattice(arr, flats, by_rank)


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


def _poincare(flats, rank):
    coeffs = [0] * (rank + 1)
    for f in flats:
        coeffs[f.rank] += f.mobius * (-1) ** f.rank
    return IntPolynomial(coeffs)


def poincare_polynomial(lat):
    """pi(A, t) = sum_X mu(X) (-t)^rank(X)."""
    return _poincare(lat.flats, len(lat.by_rank) - 1)


def localization_poincare(lat, flat):
    """pi(A_X, t) for the localization at flat X, read off L(A).

    The lower interval [V, X] of L(A) is the lattice of A_X, with the same
    Mobius values (Orlik-Terao, Arrangements of Hyperplanes, Ch. 2), so
    pi(A_X, t) = sum over flats Z <= X of mu(Z) (-t)^rank(Z) and no
    lattice is rebuilt.
    """
    x = flat.mask
    return _poincare([z for z in lat.flats if z.mask & x == z.mask],
                     flat.rank)


def characteristic_polynomial(lat):
    """chi(A, t) = sum_X mu(X) t^{dim X}."""
    d = lat.arrangement.dim
    coeffs = [0] * (d + 1)
    for f in lat.flats:
        coeffs[d - f.rank] += f.mobius
    return IntPolynomial(coeffs)


def whitney_numbers(lat):
    """(|w_0|, ..., |w_r|): absolute Mobius sums per rank."""
    return tuple(poincare_polynomial(lat).coeffs)


def essentialize(arr):
    """Rewrite the covectors in a basis of their own span.

    The result has dim = rank(arr) and the identical dependency structure
    (same matroid, same lattice combinatorics).  Hyperplane order, tags and
    label are preserved; the Weyl layout is dropped because the block
    structure has no meaning in the new coordinates.
    """
    if arr.rank == arr.dim:
        return arr
    return Arrangement(arr.rank, span_coordinates(arr.hyperplanes),
                       label=arr.label, tags=arr.tags)


# ---------------------------------------------------------------------------
# finite-field fast path


def _int_det(rows):
    """Determinant of a small square integer matrix (Bareiss elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def bad_primes(arr):
    """Primes modulo which the covector matroid degenerates.

    A prime q preserves every subset rank iff every Q-independent subset S
    of covectors stays independent mod q, i.e. q does not divide the gcd of
    the maximal minors of S.  Returns the set of all primes dividing such a
    gcd for some independent subset of size <= dim.  Point counts over any
    prime outside this set follow the characteristic polynomial.
    """
    covs = arr.hyperplanes
    d = arr.dim
    n = len(covs)
    bad = set()
    max_k = min(d, n)
    for k in range(2, max_k + 1):
        for idx in itertools.combinations(range(n), k):
            sub = [covs[i] for i in idx]
            g = 0
            for cols in itertools.combinations(range(d), k):
                det = _int_det([[row[c] for c in cols] for row in sub])
                g = gcd(g, abs(det))
                if g == 1:
                    break
            if g > 1:
                # subset independent over Q but all minors share a factor
                bad |= _prime_factors(g)
    return bad


def _prime_factors(x):
    out = set()
    p = 2
    while p * p <= x:
        if x % p == 0:
            out.add(p)
            while x % p == 0:
                x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        out.add(x)
    return out


def _is_prime(q):
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def admissible_primes(arr, count):
    """The `count` smallest primes admissible for finite-field counting."""
    bad = bad_primes(arr)
    out = []
    q = 2
    while len(out) < count:
        if _is_prime(q) and q not in bad:
            out.append(q)
        q += 1
    return out


def complement_count(arr, q):
    """Number of points of F_q^dim lying on none of the hyperplanes.

    Iterates over the fibers of the last coordinate: for each prefix in
    F_q^{dim-1}, collect the forbidden last-coordinate values.
    """
    d = arr.dim
    if d == 0:
        return 1
    covs = [tuple(x % q for x in c) for c in arr.hyperplanes]
    if d == 1:
        return q - (1 if covs else 0)
    pre = []
    for c in covs:
        head = [(i, c[i]) for i in range(d - 1) if c[i]]
        last = c[d - 1]
        inv = pow(last, -1, q) if last else None
        pre.append((head, last, inv))
    total = 0
    for point in itertools.product(range(q), repeat=d - 1):
        forbidden = set()
        alive = True
        for head, last, inv in pre:
            s = 0
            for i, ci in head:
                s += ci * point[i]
            s %= q
            if last:
                forbidden.add((-s * inv) % q)
            elif s == 0:
                alive = False
                break
        if alive:
            total += q - len(forbidden)
    return total


def char_poly_finite_field(arr, primes):
    """Characteristic polynomial via point counts over several primes.

    Interpolates through the first dim+1 pairs (q, count) and checks the
    remaining primes against the interpolated polynomial, so a degenerate
    prime that slipped through is caught rather than silently wrong.
    """
    d = arr.dim
    primes = list(primes)
    if len(primes) < d + 1:
        raise ValueError("need at least dim+1 = %d primes, got %d"
                         % (d + 1, len(primes)))
    if len(set(primes)) != len(primes):
        raise BadPrime("primes must be distinct")
    bad = bad_primes(arr)
    for q in primes:
        if not _is_prime(q):
            raise BadPrime("%d is not prime" % q)
        if q in bad:
            raise BadPrime("%d divides a critical minor gcd" % q)
    counts = [(q, complement_count(arr, q)) for q in primes]
    coeffs = lagrange_interpolate(counts[:d + 1])
    if any(c.denominator != 1 for c in coeffs):
        raise InconsistentCounts("interpolant has non-integer coefficients")
    poly = IntPolynomial([int(c) for c in coeffs])
    for q, cnt in counts[d + 1:]:
        if poly(q) != cnt:
            raise InconsistentCounts(
                "count at q=%d is %d, interpolant predicts %d"
                % (q, cnt, poly(q)))
    return poly
