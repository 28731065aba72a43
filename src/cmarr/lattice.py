"""Intersection lattice of a central arrangement and its polynomials.

Includes a finite-field point-counting fast path for the characteristic
polynomial, cross-validated against the Mobius-sum definition.
"""

import itertools
from math import gcd

from .errors import (BadPrime, DimensionMismatch, InconsistentCounts,
                     LayoutMismatch, MobiusSignViolation, NotStable)
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
        self._fill(arrangement, mask, _bits(mask), rank, mobius)

    def _fill(self, arrangement, mask, bits, rank, mobius):
        # bits: _bits(mask), for a caller that already has it
        self.mask = mask
        self.hyperplanes = frozenset(bits)
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
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class IntersectionLattice:
    __slots__ = ("arrangement", "flats", "by_rank", "bottom")

    def __init__(self, arrangement, flats, by_rank):
        self.arrangement = arrangement
        self.flats = flats
        self.by_rank = by_rank
        self.bottom = by_rank[0][0]


def flat_children(covs, x, rows):
    """The flats covering flat x, as {residual: child mask}.

    `rows` are integer echelon rows spanning x's covectors, and the rows of
    a child are `echelon_insert(rows, residual)`.  Each hyperplane i outside
    x is reduced once, to a primitive residual that is zero at every pivot
    of `rows`; residuals are compared as tuples, and two hyperplanes give
    the same residual exactly when they span the same child together with
    x.  So the first hyperplane with a new residual starts a child, and
    every later one with that residual is absorbed into it and starts none
    (the skip rule).  The reduction stays in the integers and only
    multiplies by nonzero scalars and subtracts span elements, so
    membership in a span is decided exactly, with no modulus or prime.
    """
    children = {}
    for i in range(len(covs)):
        if x >> i & 1:
            continue
        res = reduce_covector(covs[i], rows)
        if res in children:
            children[res] |= 1 << i
        else:
            children[res] = x | 1 << i
    return children


def _generator_tables(arr):
    """Per-generator byte tables of the mask maps by which the block
    generators of arr.weyl permute the flats; an empty list without a
    layout that fits arr.dim and leaves arr stable.

    tables[k][b] is the image of the mask b << 8k, so a mask's image is the
    union of one lookup per byte.
    """
    if arr.weyl is None:
        return []
    # symmetry imports this module, so the import waits for the call
    from .symmetry import generator_permutations
    try:
        perms = generator_permutations(arr, arr.weyl)
    except (LayoutMismatch, NotStable):
        return []
    gens = []
    for perm in perms:
        tables = []
        for base in range(0, len(perm), 8):
            table = [0] * (1 << min(8, len(perm) - base))
            for b in range(1, len(table)):
                low = b & -b
                table[b] = table[b ^ low] \
                    | 1 << perm[base + low.bit_length() - 1]
            tables.append(table)
        gens.append(tables)
    return gens


def _orbit(y, gens):
    """The masks of y's orbit under the generator tables, y first."""
    orbit = [y]
    seen = {y}
    for z in orbit:
        for tables in gens:
            w = 0
            v = z
            for table in tables:
                w |= table[v & 255]
                v >>= 8
            if w not in seen:
                seen.add(w)
                orbit.append(w)
    return orbit


def build_lattice(arr):
    """Rank-level closure of intersections, with Mobius numbers.

    A flat is the int bitmask of the hyperplanes containing it, so flat Z
    lies below flat X iff Z & ~X == 0; this is valid because every flat of a
    central arrangement is the intersection of the hyperplanes containing
    it.

    The block generators of a stable `weyl` layout permute the hyperplanes,
    hence the flats, as linear automorphisms.  Each level is kept as orbits
    of flats under the group W they generate: only an orbit's representative
    carries its span as integer echelon rows (see `exactlin.reduce_covector`)
    and has its children found by `flat_children`.  A child outside every
    known orbit starts a new one, closed under the generators as mask
    images.  Every flat of the next level covers some g x with x a
    representative, so lies in the orbit of a child of x.  Without a stable
    layout W is trivial and every flat is its own orbit.

    Mobius numbers are constant on orbits.  Summing Weisner's theorem
    (Stanley, EC I, 3.9) over the n(Y) hyperplanes containing Y gives
    n(Y) mu(Y) = -sum of (n(Y) - n(X)) mu(X) over the covers X < Y, a sum
    invariant under W; over an orbit it is the sum over representatives x
    of |orbit of x| times the terms of x's children in the orbit, which is
    then divided by |orbit| n(Y).  A remainder or a sign other than
    (-1)^rank raises MobiusSignViolation.  Within a level flats are ordered
    by their sorted hyperplane indices.
    """
    covs = arr.hyperplanes
    gens = _generator_tables(arr)
    by_rank = [[Flat(arr, 0, 0, 1)]]
    reps = [(0, (), 1, 1)]  # (mask, echelon rows, orbit size, mu)
    while True:
        orbit_of = {}
        orbits = []  # [mask, rows, size, weighted sum of cover terms]
        for x, rows, size, mu in reps:
            weight = size * mu
            n_x = x.bit_count()
            for res, y in flat_children(covs, x, rows).items():
                k = orbit_of.get(y)
                if k is None:
                    k = len(orbits)
                    orbit = _orbit(y, gens)
                    orbit_of.update(dict.fromkeys(orbit, k))
                    orbits.append([y, echelon_insert(rows, res), len(orbit),
                                   0])
                orbits[k][3] += weight * (y.bit_count() - n_x)
        if not orbits:
            break
        r = len(by_rank)
        reps = []
        for y, rows, size, acc in orbits:
            mu, rem = divmod(-acc, size * y.bit_count())
            if rem or mu * (-1) ** r <= 0:
                raise MobiusSignViolation(
                    "Mobius sign violation at rank %d" % r)
            reps.append((y, rows, size, mu))
        # each flat's bit list is both its sort key and its hyperplanes
        bits_of = {y: _bits(y) for y in orbit_of}
        level = []
        for y in sorted(bits_of, key=bits_of.__getitem__):
            f = Flat.__new__(Flat)
            f._fill(arr, y, bits_of[y], r, reps[orbit_of[y]][3])
            level.append(f)
        by_rank.append(level)
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
    the maximal minors of S; bases suffice, since S extends to one.  Returns
    the primes dividing such a gcd for some basis (none below rank 2, as
    covectors are primitive).  Point counts over any prime outside this set
    follow the characteristic polynomial.
    """
    covs = arr.hyperplanes
    k = arr.rank
    bad = set()
    if k < 2:
        return bad
    shared = set()  # the minor gcds above 1, each factored once
    for idx in itertools.combinations(range(len(covs)), k):
        sub = [covs[i] for i in idx]
        g = 0
        for cols in itertools.combinations(range(arr.dim), k):
            det = _int_det([[row[c] for c in cols] for row in sub])
            g = gcd(g, abs(det))
            if g == 1:
                break
        if g > 1:
            # a basis over Q whose minors all share a factor
            shared.add(g)
    for g in shared:
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

    A central arrangement's complement misses 0 and is stable under
    scaling by F_q^*, so the count is (q - 1) times the number of
    complement points whose first nonzero coordinate is 1.  Those are the
    points (0,)*lead + (1,) + rest, lead < dim - 1, plus the single point
    e_dim.  With dim > 3, each lead < dim - 3 has q^(dim-3-lead) prefixes
    before the last two coordinates, each counted a (y, x) plane at a time
    by `_count_planes`; the other leads are counted a fiber of the last
    coordinate at a time by `_count_fibers`.
    """
    d = arr.dim
    if d == 0:
        return 1
    covs = [tuple(x % q for x in c) for c in arr.hyperplanes]
    if not covs:
        return q ** d
    if d == 1:
        return q - 1
    # e_dim lies on a hyperplane iff its last coefficient vanishes mod q
    total = 1 if all(c[d - 1] for c in covs) else 0
    if d > 3:
        total += _count_planes(covs, q)
    for lead in range(max(d - 3, 0), d - 1):
        total += _count_fibers(covs, q, lead)
    return (q - 1) * total


def _count_fibers(covs, q, lead):
    """Complement points (0,)*lead + (1,) + rest + (x,), rest in
    F_q^(dim-2-lead): over each rest, q minus the forbidden values of x."""
    d = len(covs[0])
    total = 0
    # the covector's value is c[lead] + sum c[lead+1+i]*rest[i] + c[d-1]*x
    pre = []
    for c in covs:
        head = [(i, c[lead + 1 + i]) for i in range(d - 2 - lead)
                if c[lead + 1 + i]]
        last = c[d - 1]
        inv = pow(last, -1, q) if last else None
        pre.append((c[lead], head, last, inv))
    for rest in itertools.product(range(q), repeat=d - 2 - lead):
        forbidden = set()
        alive = True
        for s, head, last, inv in pre:
            for i, ci in head:
                s += ci * rest[i]
            s %= q
            if last:
                forbidden.add((-s * inv) % q)
            elif s == 0:
                alive = False
                break
        if alive:
            total += q - len(forbidden)
    return total


def _count_planes(covs, q):
    """Complement points (0,)*lead + (1,) + rest + (y, x) over every lead
    < dim - 3, rest in F_q^(dim-3-lead), one (y, x) plane per prefix.

    A plane is an int with "doubled rows": point (y, x) is bit y*2q + x,
    and bits y*2q + q .. y*2q + 2q - 1 are spare.  At a prefix where a
    covector takes the value s, it cuts the plane along the line
    x = alpha + beta*y when its x coefficient is nonzero, along the row
    y = gamma when only its y coefficient is, and otherwise nowhere
    (s != 0) or everywhere (s == 0, a dead prefix).  base[beta] holds bits
    y*2q + (beta*y mod q) and the same bit + q, so base[beta] >> (q - alpha)
    has bit y*2q + (alpha + beta*y mod q) in the low q bits of each row,
    and `low` keeps those bits.  beta depends on the covector only, so a
    base is built once per distinct beta and shared by every prefix; the
    prefix count is q^2 minus the bits of the union of the cuts.
    """
    d = len(covs[0])
    width = 2 * q
    full_row = (1 << q) - 1
    # bit y*2q for every row y is (2^(2q*q) - 1) / (2^(2q) - 1)
    low = ((1 << width * q) - 1) // ((1 << width) - 1) * full_row
    bases = {}
    lines, rows, constant = [], [], []
    for c in covs:
        cy, cx = c[d - 2], c[d - 1]
        if cx:
            neg = -pow(cx, -1, q) % q
            beta = cy * neg % q
            if beta not in bases:
                base = 0
                for y in range(q):
                    base |= (1 | 1 << q) << (y * width + beta * y % q)
                bases[beta] = base
            lines.append((c, neg, bases[beta]))
        elif cy:
            rows.append((c, -pow(cy, -1, q) % q))
        else:
            constant.append((c,))

    def at(lead, group):
        # per covector: its value at the lead, its nonzero prefix
        # coefficients (i, c[lead+1+i]) and the rest of its entry
        m = d - 3 - lead
        return [(c[lead], [(i, c[lead + 1 + i]) for i in range(m)
                           if c[lead + 1 + i]], *more)
                for c, *more in group]

    total = 0
    for lead in range(d - 3):
        pre_lines = at(lead, lines)
        pre_rows = at(lead, rows)
        pre_constant = at(lead, constant)
        for rest in itertools.product(range(q), repeat=d - 3 - lead):
            dead = False
            for s, head in pre_constant:
                for i, ci in head:
                    s += ci * rest[i]
                if s % q == 0:
                    dead = True
                    break
            if dead:
                continue
            cut = 0
            for s, head, neg, base in pre_lines:
                for i, ci in head:
                    s += ci * rest[i]
                # alpha = s * neg = -s/cx
                cut |= base >> q - s * neg % q
            for s, head, neg in pre_rows:
                for i, ci in head:
                    s += ci * rest[i]
                cut |= full_row << width * (s * neg % q)
            total += q * q - (cut & low).bit_count()
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
