"""Exact linear algebra for central hyperplane arrangements.

Covectors (hyperplane normals) are stored as primitive integer tuples with a
positive leading nonzero entry, so equality of hyperplanes is tuple equality.
No floating point anywhere.

Two eliminations live here.  The integer kernel (`reduce_covector`,
`echelon_insert`, `echelon`) keeps a span as echelon rows of primitive
integers and reduces a covector against them by fraction-free row
operations v <- a*v - b*row followed by division by the content.  Every step
multiplies v by a nonzero integer and subtracts an element of the span, so
the residual is zero exactly when v lies in the span: the kernel is exact by
construction and needs no modulus, no determinant bound and no choice of
prime.  The intersection lattice, `rank_of` and `span_coordinates` run on
it.  The lattice build reduces each flat into existence once, against the
rows of one flat it covers, and reduces no hyperplane of a cover it already
knows; circuits and nbc sets read joins off the lattice and run no
elimination.  `rref` over Fraction runs only where the unique reduced
echelon basis is itself the output: `Subspace` and `common_kernel`.  Those
rational functions import `fractions` when called, so a job on integer
covectors never loads it.  `project_zero_sum` essentializes covectors
written in the ambient coordinates of zero-sum blocks.
"""

from math import gcd, lcm

from .errors import DimensionMismatch, InvalidParams, ZeroCovector


def normalize_covector(raw):
    """Return the canonical integer covector defining the same hyperplane.

    Accepts any iterable of ints / Fractions.  Clears denominators, divides
    by the gcd and flips sign so the first nonzero entry is positive.  Ints
    have denominator 1, so integer input never leaves the integers.
    """
    vals = tuple(raw)
    denom_lcm = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (denom_lcm // v.denominator) for v in vals]
    g = gcd(*ints)
    if not g:
        raise ZeroCovector("covector has no nonzero entry")
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def project_zero_sum(ambient_covector, blocks):
    """Essentialize an ambient covector: per block, substitute the index-0
    coordinate by minus the sum of the others and drop it."""
    out = []
    pos = 0
    for m in blocks:
        seg = ambient_covector[pos:pos + m]
        out.extend(seg[i] - seg[0] for i in range(1, m))
        pos += m
    if pos != len(ambient_covector):
        raise InvalidParams("blocks %r do not cover length %d"
                            % (list(blocks), len(ambient_covector)))
    return normalize_covector(out)


def _check_same_dim(covectors):
    dims = {len(c) for c in covectors}
    if len(dims) > 1:
        raise DimensionMismatch("covectors of mixed lengths %s" % sorted(dims))
    return dims.pop() if dims else None


def rref(rows):
    """Reduced row echelon form; returns the nonzero rows as Fraction tuples.

    The output is the canonical basis of the row span.
    """
    from fractions import Fraction
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        pv = mat[pivot_row][col]
        mat[pivot_row] = [x / pv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    out = [tuple(row) for row in mat[:pivot_row]]
    return out


def rank_of(covectors, dim=None):
    """Dimension of the span of the given covectors (0 for the empty set)."""
    covectors = list(covectors)
    d = _check_same_dim(covectors)
    if d is None:
        return 0
    if dim is not None and d != dim:
        raise DimensionMismatch("expected length %d, got %d" % (dim, d))
    return len(echelon(normalize_covector(c) for c in covectors
                       if any(c)))


def reduce_covector(vec, rows):
    """Reduce an integer covector against integer echelon rows.

    `rows` are primitive integer rows with strictly increasing pivots (first
    nonzero columns), as built by `echelon_insert`.  Each row with a pivot
    where v is nonzero is eliminated by v <- a*v - b*row (a/b the pivot
    ratio in lowest terms), then v is divided by its content.  Returns None
    when vec lies in the span of the rows, otherwise the primitive residual
    with a positive leading entry.  The residual is zero at every pivot of
    `rows`, and two covectors give the same residual exactly when they span
    the same space together with the rows.
    """
    v = vec
    p = 0
    for row in rows:
        while not row[p]:
            p += 1
        b = v[p]
        if b:
            a = row[p]
            g = gcd(a, b)
            a //= g
            b //= g
            v = [a * x - b * y for x, y in zip(v, row)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
        p += 1
    g = gcd(*v)
    if not g:
        return None
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(x // g for x in v)


def _pivot(row):
    for j, x in enumerate(row):
        if x:
            return j


def echelon_insert(rows, residual):
    """Echelon rows (a tuple) with a residual of `reduce_covector` added.

    The residual is zero at every existing pivot, so placing it by its own
    pivot keeps the pivots strictly increasing.
    """
    q = _pivot(residual)
    i = 0
    while i < len(rows) and _pivot(rows[i]) < q:
        i += 1
    return rows[:i] + (residual,) + rows[i:]


def echelon(covectors):
    """Primitive integer echelon rows spanning the given integer covectors."""
    rows = ()
    for c in covectors:
        r = reduce_covector(c, rows)
        if r is not None:
            rows = echelon_insert(rows, r)
    return rows


class Subspace:
    """A linear subspace of Q^dim_ambient with its canonical echelon basis."""

    __slots__ = ("dim_ambient", "basis")

    def __init__(self, dim_ambient, rows):
        self.dim_ambient = dim_ambient
        self.basis = tuple(rref(rows))
        for row in self.basis:
            if len(row) != dim_ambient:
                raise DimensionMismatch(
                    "basis row length %d != ambient %d" % (len(row), dim_ambient))

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.dim_ambient == other.dim_ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.dim_ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim_ambient=%d, basis=%r)" % (self.dim_ambient, self.basis)

    @classmethod
    def full(cls, dim_ambient):
        rows = [[int(i == j) for j in range(dim_ambient)]
                for i in range(dim_ambient)]
        return cls(dim_ambient, rows)


def common_kernel(covectors, dim=None):
    """Canonical basis of the intersection of the kernels of the covectors.

    common_kernel([], dim=d) is the full space Q^d.
    """
    from fractions import Fraction
    covectors = list(covectors)
    d = _check_same_dim(covectors)
    if d is None:
        if dim is None:
            raise DimensionMismatch("ambient dimension required for empty input")
        d = dim
    elif dim is not None and d != dim:
        raise DimensionMismatch("expected length %d, got %d" % (dim, d))
    reduced = rref(covectors)
    pivots = []
    for row in reduced:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    pivot_set = set(pivots)
    free_cols = [j for j in range(d) if j not in pivot_set]
    kernel_rows = []
    for f in free_cols:
        vec = [Fraction(0)] * d
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        kernel_rows.append(vec)
    return Subspace(d, kernel_rows)


def restrict_covectors_to(sub, covectors):
    """Express covectors in the coordinates of sub's basis.

    Drops forms vanishing identically on sub, normalizes and deduplicates
    (first occurrence wins).  Output covectors have length sub.dim.  The
    basis is scaled by its common denominator; normalization removes that
    positive factor, and integer covectors stay in the integers.
    """
    if sub.dim < 1:
        raise DimensionMismatch("cannot restrict to a zero-dimensional subspace")
    denom = lcm(*(x.denominator for row in sub.basis for x in row))
    basis = [[x.numerator * (denom // x.denominator) for x in row]
             for row in sub.basis]
    out = []
    seen = set()
    for c in covectors:
        if len(c) != sub.dim_ambient:
            raise DimensionMismatch(
                "covector length %d != ambient %d" % (len(c), sub.dim_ambient))
        coords = [sum(ci * bi for ci, bi in zip(c, row)) for row in basis]
        if not any(coords):
            continue
        nc = normalize_covector(coords)
        if nc not in seen:
            seen.add(nc)
            out.append(nc)
    return tuple(out)


def in_row_span(vec, reduced_rows):
    """True iff vec lies in the span of rows already in reduced echelon form."""
    from fractions import Fraction
    residual = [Fraction(x) for x in vec]
    for row in reduced_rows:
        lead = None
        for j, x in enumerate(row):
            if x != 0:
                lead = j
                break
        if lead is None:
            continue
        if residual[lead] != 0:
            f = residual[lead]
            residual = [a - f * b for a, b in zip(residual, row)]
    return all(x == 0 for x in residual)


def span_coordinates(covectors):
    """Coordinates of each covector in the canonical basis of their joint span.

    Returns coords where coords[i] is the tuple of coefficients expressing
    covectors[i] over the reduced echelon basis of the span.
    That basis has a 1 at its own pivot column and 0 at every other pivot,
    so the coefficients are the entries at the pivot columns, and these are
    an invariant of the span: they are read off the integer `echelon`.  This
    change of coordinates preserves every linear dependency, so it realizes
    the essentialization of an arrangement.
    """
    covectors = list(covectors)
    pivots = [_pivot(row) for row in echelon(covectors)]
    return [tuple(c[p] for p in pivots) for c in covectors]
