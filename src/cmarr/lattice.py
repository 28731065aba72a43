"""Intersection lattice of a central arrangement and its polynomials.

Includes a finite-field point-counting fast path for the characteristic
polynomial, cross-validated against the Mobius-sum definition.
"""

import itertools
from math import gcd
from operator import mul

from .errors import (BadPrime, DimensionMismatch, FlatNotInLattice,
                     InconsistentCounts, InvalidParams, LayoutMismatch,
                     MobiusSignViolation, NotStable)
# common_kernel, rref and in_row_span are unused here but stay bound in this
# module: bench/trace_job.py wraps them by name.
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
            raise InvalidParams("tags length %d != covector count %d"
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
    """A view of one flat of a lattice: an intersection of some of the
    hyperplanes.

    `mask` has bit i set iff hyperplane i contains the flat; `hyperplanes`
    reads the same set as a frozenset of indices.
    """

    __slots__ = ("mask", "rank", "mobius", "_arr")

    def __init__(self, arrangement, mask, rank, mobius=None):
        self.mask = mask
        self.rank = rank
        self.mobius = mobius
        self._arr = arrangement

    @property
    def hyperplanes(self):
        return frozenset(_bits(self.mask))

    def __repr__(self):
        return "Flat(rank=%d, hyperplanes=%s, mobius=%r)" % (
            self.rank, _bits(self.mask), self.mobius)


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class IntersectionLattice:
    """The flats of an arrangement as bitmasks, one level per rank.

    `masks[r]` is the tuple of the rank-r flat masks, ordered by their
    sorted hyperplane indices, and `mobius[r]` their Mobius numbers in the
    same positions.  `representatives[r]` holds one mask per W-orbit of
    rank-r flats, the flats `build_lattice` reduced; under the trivial
    group, every flat.  `flats` builds a new `Flat` view of every flat, rank
    by rank, on each read.
    """

    __slots__ = ("arrangement", "masks", "mobius", "representatives",
                 "_joins", "_rank", "_holding", "_indices")

    def __init__(self, arrangement, masks, mobius, representatives):
        self.arrangement = arrangement
        self.masks = masks
        self.mobius = mobius
        self.representatives = representatives
        self._joins = {}
        self._rank = None
        self._holding = {}  # rank -> per hyperplane, the masks holding it
        self._indices = None  # frozenset, filled by _critical_indices

    @property
    def flats(self):
        return [Flat(self.arrangement, x, r, mu)
                for r, level in enumerate(self.masks)
                for x, mu in zip(level, self.mobius[r])]

    def joins(self, x):
        """The tuple whose entry h is join(x, h), the least flat holding flat
        x and hyperplane h (x itself when h is in x).  Built on the first
        call per flat from masks alone: x's covers are the atoms when x is
        the bottom, else the next rank's flats y with x & ~y == 0 among
        those holding x's lowest hyperplane; each h outside x is in one."""
        jx = self._joins.get(x)
        if jx is not None:
            return jx
        if self._rank is None:
            self._rank = {y: r for r, level in enumerate(self.masks)
                          for y in level}
        if x not in self._rank:
            raise FlatNotInLattice("mask %#x is not a flat" % x)
        jx = [x] * len(self.arrangement.hyperplanes)
        r = self._rank[x] + 1
        if r < len(self.masks):
            if r not in self._holding:
                self._holding[r] = [[] for _ in jx]
                for y in self.masks[r]:
                    for h in _bits(y):
                        self._holding[r][h].append(y)
            for y in self._holding[r][(x & -x).bit_length() - 1] if x \
                    else self.masks[1]:
                if not x & ~y:
                    for h in _bits(y & ~x):
                        jx[h] = y
        jx = self._joins[x] = tuple(jx)
        return jx


def flat_children(covs, x, rows, done):
    """The flats covering flat x that hold no hyperplane of `done` outside
    x, as {residual: child mask}.

    `done` is x together with the covers of x found so far.  Two covers of
    x share no hyperplane outside x, so every other cover of x holds none
    of `done` outside x, and the hyperplanes outside `done` give its whole
    mask.  `rows` are integer echelon rows spanning x's covectors, and the
    rows of a child are `echelon_insert(rows, residual)`.  Each hyperplane
    i outside `done` is reduced once, to a primitive residual that is zero
    at every pivot of `rows`; residuals are compared as tuples, and two
    hyperplanes give the same residual exactly when they span the same
    child together with x.  So the first hyperplane with a new residual
    starts a child, and every later one with that residual is absorbed
    into it and starts none (the skip rule).  The reduction stays in the
    integers and only multiplies by nonzero scalars and subtracts span
    elements, so membership in a span is decided exactly, with no modulus
    or prime.
    """
    children = {}
    for i in range(len(covs)):
        if done >> i & 1:
            continue
        res = reduce_covector(covs[i], rows)
        if res in children:
            children[res] |= 1 << i
        else:
            children[res] = x | 1 << i
    return children


def _generator_tables(arr):
    """`_mask_tables` of the block generators of arr.weyl, by which they
    permute the flats; an empty list without a layout that fits arr.dim and
    leaves arr stable."""
    if arr.weyl is None:
        return []
    # symmetry imports this module, so the import waits for the call
    from .symmetry import generator_permutations
    try:
        perms = generator_permutations(arr, arr.weyl)
    except (LayoutMismatch, NotStable):
        return []
    return _mask_tables(perms)


def _mask_tables(perms):
    """Per-permutation byte tables of the mask maps that the index
    permutations `perms` induce.

    tables[k][b] is the image of the mask b << 8k, so a mask's image is the
    union of one lookup per byte.
    """
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

    Each flat is reduced into existence once.  A known mask y of the next
    level with x & ~y == 0 is a cover of the representative x, and holds
    x's lowest hyperplane.  So while a level is filled, every mask found
    for it, orbit members included, is listed under each of its hyperplanes
    that is the lowest hyperplane of a representative, and x's known covers
    are read off one list.  Their hyperplanes are left out of x's
    reductions, and `flat_children` finds only the covers not known yet.

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
    # format(y, digits)[::-1] is y's bits, lowest first; sorted largest
    # first, these strings give the order of the sorted hyperplane indices,
    # because within one level no flat's index list is a prefix of another's
    digits = "0%db" % len(covs)
    masks, mobius = [(0,)], [(1,)]
    reps = [(0, (), 1, 1)]  # (mask, echelon rows, orbit size, mu)
    rep_masks = [(0,)]
    while True:
        orbit_of = {}
        orbits = []  # [mask, rows, size, weighted sum of cover terms]
        holding = [[] for _ in covs]  # per hyperplane in lows, masks found
        lows = 0  # the lowest hyperplane of each representative
        for x, *_ in reps:
            lows |= x & -x
        for x, rows, size, mu in reps:
            weight = size * mu
            n_x = x.bit_count()
            covers = [y for y in holding[(x & -x).bit_length() - 1]
                      if not x & ~y] if x else []
            done = x
            for y in covers:
                done |= y
            for res, y in flat_children(covs, x, rows, done).items():
                if y not in orbit_of:
                    orbit = _orbit(y, gens)
                    orbit_of.update(dict.fromkeys(orbit, len(orbits)))
                    for z in orbit:
                        for h in _bits(z & lows):
                            holding[h].append(z)
                    orbits.append([y, echelon_insert(rows, res), len(orbit),
                                   0])
                covers.append(y)
            for y in covers:
                orbits[orbit_of[y]][3] += weight * (y.bit_count() - n_x)
        if not orbits:
            break
        r = len(masks)
        reps = []
        for y, rows, size, acc in orbits:
            mu, rem = divmod(-acc, size * y.bit_count())
            if rem or mu * (-1) ** r <= 0:
                raise MobiusSignViolation(
                    "Mobius sign violation at rank %d" % r)
            reps.append((y, rows, size, mu))
        masks.append(tuple(sorted(
            orbit_of, key=lambda y: format(y, digits)[::-1], reverse=True)))
        mobius.append(tuple(reps[orbit_of[y]][3] for y in masks[r]))
        rep_masks.append(tuple(y for y, *_ in reps))
    return IntersectionLattice(arr, tuple(masks), tuple(mobius),
                               tuple(rep_masks))


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


def poincare_polynomial(lat):
    """pi(A, t) = sum_X mu(X) (-t)^rank(X)."""
    return IntPolynomial([(-1) ** r * sum(mus)
                          for r, mus in enumerate(lat.mobius)])


def localization_poincare(lat, x, rank):
    """pi(A_X, t) for the localization at the flat X of mask x and rank
    `rank`, read off L(A).

    The lower interval [V, X] of L(A) is the lattice of A_X, with the same
    Mobius values (Orlik-Terao, Arrangements of Hyperplanes, Ch. 2), so
    pi(A_X, t) = sum over flats Z <= X of mu(Z) (-t)^rank(Z), from the
    levels up to X's rank, and no lattice is rebuilt.
    """
    return IntPolynomial([
        (-1) ** r * sum(mu for z, mu in zip(lat.masks[r], lat.mobius[r])
                        if z & x == z)
        for r in range(rank + 1)])


def characteristic_polynomial(lat):
    """chi(A, t) = sum_X mu(X) t^{dim X}."""
    return IntPolynomial([0] * (lat.arrangement.dim + 1 - len(lat.mobius))
                         + [sum(mus) for mus in reversed(lat.mobius)])


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


def lattice_of(arr, lattice=None):
    """`lattice`, checked to be L(arr) itself, or a new build of L(arr)."""
    if lattice is None:
        return build_lattice(arr)
    if lattice.arrangement is not arr:
        raise FlatNotInLattice("lattice was built from another arrangement")
    return lattice


def bad_primes(arr, lattice=None):
    """Primes modulo which the covector matroid degenerates.

    A prime keeps every subset rank iff it divides no basis's maximal-minor
    gcd, the index of the basis's row lattice in its saturation.  For a flat X,
    N_X its integer points, L_X the saturated lattice of covectors vanishing
    on X and h not in X, the gcd d(X, h) of h.p over a Z-basis p of N_X is
    the index [L_{X v h} : L_X + Z h].  Along the closures X_0 < ... < X_k
    of a basis h_1..h_k these indices multiply to its minor gcd, and every
    pair (X, h) occurs in some basis.  So the bad primes divide some d(X, h)
    with 0 < rank X < rank A (d = 1 at the bottom: covectors are primitive);
    each distinct d > 1 (`_critical_indices`) is factored once.  Point counts
    over any other prime follow the characteristic polynomial.
    """
    bad = set()
    for g in _critical_indices(arr, lattice):
        bad |= _prime_factors(g)
    return bad


def _critical_indices(arr, lattice=None):
    """The distinct indices d(X, h) > 1 of `bad_primes`, as a frozenset.

    A prime q is bad iff it divides one of them, which `admissible_primes`
    and `char_poly_finite_field` test by q's remainders, so they factor no
    index: trial division of a large one can take arbitrarily long.

    Only the flats in `lat.representatives`, one per W-orbit, are scanned.
    A block generator g of a stable layout acts on covectors by an integer
    map of finite order (a coordinate permutation modulo (1, ..., 1)), so
    its inverse is integral too and g is unimodular.  Acting on points by
    the inverse transpose, g keeps every pairing, (g c).(g p) = c.p, and so
    maps N_X onto N_gX; hence d(gX, gh) = d(X, h), whatever sign the
    normalized gh takes.  g permutes the hyperplanes, so the flats of one
    orbit give the same set of indices d(X, h) and the representatives
    give them all.

    The scan runs once per lattice and keeps its result on it.
    """
    lat = lattice_of(arr, lattice)
    if lat._indices is not None:
        return lat._indices
    covs = arr.hyperplanes
    d = arr.dim
    shared = set()  # every d(X, h), and 0 for h in X
    for r, level in enumerate(lat.representatives[1:-1], 1):
        for x in level:
            # N_X: kernel steps from the unit vectors to d - rank X vectors
            basis = [[int(i == j) for j in range(d)] for i in range(d)]
            for h in _bits(x):
                if len(basis) == d - r:
                    break
                basis = _kernel_step(basis, covs[h])
            shared.update(map(gcd, *([sum(map(mul, c, p)) for c in covs]
                                     for p in basis)))
    lat._indices = frozenset(shared - {0, 1})
    return lat._indices


def _kernel_step(basis, c):
    """The Z-basis `basis` of some integer points cut to those where c
    vanishes, by unimodular Euclid steps p, q <- q, p - k q on the values
    under c, which leave one vector of value gcd and the others at 0."""
    out = []
    p = None
    for q in basis:
        b = sum(map(mul, c, q))
        if p is None and b:
            p, a = q, b
            continue
        while b:
            k = a // b
            p, q = q, [x - k * y for x, y in zip(p, q)]
            a, b = b, a - k * b
        out.append(q)
    return out


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


def admissible_primes(arr, count, lattice=None):
    """The `count` smallest primes admissible for finite-field counting,
    those outside `bad_primes(arr, lattice)`."""
    indices = _critical_indices(arr, lattice)
    out = []
    q = 2
    while len(out) < count:
        if all(g % q for g in indices) and _prime_factors(q) == {q}:
            out.append(q)
        q += 1
    return out


def complement_count(arr, q):
    """Number of points of F_q^dim lying on none of the hyperplanes.

    With dim >= 2 a point is a prefix in F_q^(dim-2) followed by a point
    (y, x) of the last two coordinates, and the points over one prefix are
    counted a (y, x) plane at a time.  A central arrangement's complement
    is stable under scaling by F_q^*, so a nonzero prefix is normalized to
    (0,)*lead + (1,) + rest, lead < dim - 2, and its plane counts q - 1
    times; the zero prefix's plane counts once, and its origin lies on
    every hyperplane.

    A plane is an int with "doubled rows": point (y, x) is bit y*2q + x,
    and bits y*2q + q .. y*2q + 2q - 1 are spare; `low` holds the q low
    bits of each row, the plane's points.  At a prefix where a covector
    takes the value s, it cuts the plane along the line x = alpha + beta*y
    when its x coefficient is nonzero, along the row y = gamma when only
    its y coefficient is, and otherwise nowhere (s != 0) or everywhere
    (s == 0, a dead prefix).  Each distinct (y, x) coefficient pair gets
    one int `base` and q shifts, indexed by s, and its cut at s is the low
    bits of base >> shifts[s]:
    - a line: the base of slope beta, built once per distinct beta, holds
      bits y*2q + (beta*y mod q) and the same bit + q, so shifting it by
      q - alpha puts bit y*2q + (alpha + beta*y mod q) in the low bits of
      each row;
    - a row: full_row << 2q*q, one row past the plane, shifted by
      2q*(q - gamma);
    - the dead case: `low`, shifted by 0 at s = 0 and by 2q*q, out of the
      plane, elsewhere.
    A plane's count is q^2 minus the low bits of the union of its shifted
    bases.

    A q that is not prime raises BadPrime: Z/q is then not a field.
    """
    if _prime_factors(q) != {q}:
        raise BadPrime("%d is not prime" % q)
    d = arr.dim
    if d == 0:
        return 1
    covs = [tuple(x % q for x in c) for c in arr.hyperplanes]
    if not covs:
        return q ** d
    if d == 1:
        return q - 1
    width = 2 * q
    full_row = (1 << q) - 1
    # bit y*2q for every row y is (2^(2q*q) - 1) / (2^(2q) - 1)
    low = ((1 << width * q) - 1) // ((1 << width) - 1) * full_row
    lines = {}  # beta -> the base of slope beta
    tables = {}
    for cy, cx in {c[d - 2:] for c in covs}:
        if cx:
            neg = -pow(cx, -1, q) % q
            beta = cy * neg % q
            if beta not in lines:
                base = 0
                for y in range(q):
                    base |= (1 | 1 << q) << (y * width + beta * y % q)
                lines[beta] = base
            # alpha = s * neg = -s/cx
            table = lines[beta], [q - s * neg % q for s in range(q)]
        elif cy:
            neg = -pow(cy, -1, q) % q
            table = full_row << width * q, [width * (q - s * neg % q)
                                            for s in range(q)]
        else:
            table = low, [0] + [width * q] * (q - 1)
        tables[cy, cx] = table
    total = 0
    for lead in range(d - 2):
        # per covector: its value at the lead, its nonzero coefficients
        # (i, c[lead+1+i]) on rest, its base and its shifts
        pre = [(c[lead], [(i, c[lead + 1 + i]) for i in range(d - 3 - lead)
                          if c[lead + 1 + i]], *tables[c[d - 2:]])
               for c in covs]
        for rest in itertools.product(range(q), repeat=d - 3 - lead):
            cut = 0
            for s, head, base, shifts in pre:
                for i, ci in head:
                    s += ci * rest[i]
                cut |= base >> shifts[s % q]
            total += q * q - (cut & low).bit_count()
    cut = 0
    for base, shifts in tables.values():
        cut |= base >> shifts[0]
    return (q - 1) * total + q * q - (cut & low).bit_count()


def char_poly_finite_field(arr, primes, lattice=None):
    """Characteristic polynomial via point counts over several primes.

    Interpolates through the first dim+1 pairs (q, count) and checks the
    remaining primes against the interpolated polynomial, so a degenerate
    prime that slipped through is caught rather than silently wrong.  The
    primes are checked against `bad_primes(arr, lattice)`.
    """
    d = arr.dim
    primes = list(primes)
    if len(primes) < d + 1:
        raise InvalidParams("need at least dim+1 = %d primes, got %d"
                            % (d + 1, len(primes)))
    if len(set(primes)) != len(primes):
        raise BadPrime("primes must be distinct")
    indices = _critical_indices(arr, lattice)
    for q in primes:
        if _prime_factors(q) != {q}:
            raise BadPrime("%d is not prime" % q)
        if not all(g % q for g in indices):
            raise BadPrime("%d divides a critical minor gcd" % q)
    return _interpolate_counts(arr, primes,
                               [complement_count(arr, q) for q in primes])


def _interpolate_counts(arr, primes, counts):
    """The polynomial through the first dim+1 pairs, checked on the rest."""
    pairs = list(zip(primes, counts))
    poly = lagrange_interpolate(pairs[:arr.dim + 1])
    for q, cnt in pairs[arr.dim + 1:]:
        if poly(q) != cnt:
            raise InconsistentCounts(
                "count at q=%d is %d, interpolant predicts %d"
                % (q, cnt, poly(q)))
    return poly
