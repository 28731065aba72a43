"""Integer-coefficient polynomials in one variable t, exact arithmetic only:
the factoring of a Poincare polynomial into (1 + bt) pieces and the
interpolation of point counts both run in the integers."""

from collections import namedtuple

from .errors import InconsistentCounts, InexactDivision, MalformedPolynomial


class IntPolynomial:
    """Immutable polynomial; coeffs[i] is the coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        # polynomials only: equal objects must hash equal, and an int
        # hashes apart from the coefficient tuple
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # polynomials only, so that Python tries the other operand's reflected
    # operation and raises its own TypeError when there is none
    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + -other

    def shift(self, k=1):
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return IntPolynomial([0] * k + list(self.coeffs))

    def __repr__(self):
        return "IntPolynomial(%r)" % (list(self.coeffs),)

    def __str__(self):
        return self.format()

    def format(self, var="t"):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                tpow = var if i == 1 else "%s^%d" % (var, i)
                body = tpow if mag == 1 else "%d%s" % (mag, tpow)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    @classmethod
    def from_factors(cls, factor_coeff_lists):
        """Product of polynomials given as ascending coefficient lists."""
        acc = cls([1])
        for coeffs in factor_coeff_lists:
            acc = acc * cls(coeffs)
        return acc


class ExponentReport(namedtuple("ExponentReport",
                                "factors_integrally exponents residual",
                                defaults=((), None))):
    """Whether p factors into (1 + b t) pieces, the b found, and the
    IntPolynomial left unfactored (None when it factors)."""

    __slots__ = ()


def exponents_from_poincare(p):
    """Factor p into (1 + b t) pieces with nonnegative integer b.

    Greedy root-stripping: the admissible b are divisors of the current
    leading coefficient with p(-1/b) = 0; since the roots of a full
    factorization are determined, stripping any valid b at a time finds the
    factorization whenever one exists.  On failure the unfactorable residual
    is reported.  A full strip ends at [1]: the constant term is 1, and
    _divide_linear keeps it.
    """
    if not p.coeffs or p.coeffs[0] != 1:
        raise MalformedPolynomial("constant term must be 1, got %r"
                                  % (p.coeffs[:1] or 0,))
    exps = []
    current = list(p.coeffs)
    while len(current) > 1:
        lead = abs(current[-1])
        b_found = None
        for b in sorted(_divisors(lead)):
            if _vanishes_at_minus_inverse(current, b):
                b_found = b
                break
        if b_found is None:
            return ExponentReport(False, tuple(sorted(exps)),
                                  IntPolynomial(current))
        current = _divide_linear(current, b_found)
        exps.append(b_found)
    return ExponentReport(True, tuple(sorted(exps)))


def _divisors(x):
    out = set()
    d = 1
    while d * d <= x:
        if x % d == 0:
            out.add(d)
            out.add(x // d)
        d += 1
    return out


def _vanishes_at_minus_inverse(coeffs, b):
    """Whether p(-1/b) = 0 for p with ascending coefficients and b != 0.

    (-b)^d p(-1/b) = sum of c_k (-b)^(d-k), an integer that Horner's rule
    computes from the constant term up, with no fractions.
    """
    acc = 0
    for c in coeffs:
        acc = acc * -b + c
    return acc == 0


def _divide_linear(coeffs, b):
    """Exact quotient of the polynomial by (1 + b t), else InexactDivision."""
    # coeffs[k] = q[k] + b*q[k-1], solved from the constant term up; every
    # coefficient but the top one then matches, so only that is checked
    q = [coeffs[0]]
    for c in coeffs[1:-1]:
        q.append(c - b * q[-1])
    if coeffs[-1] != b * q[-1]:
        raise InexactDivision("1 + %dt does not divide %r" % (b, coeffs))
    return q


def lagrange_interpolate(points):
    """The IntPolynomial through distinct-node (x, y) integer pairs, by
    Newton's divided differences in integer division.

    The divided differences of an integer polynomial at integer nodes are
    integers, and integer divided differences expand to integer
    coefficients; so a division that leaves a remainder raises
    InconsistentCounts exactly when the interpolant has a non-integer
    coefficient.  The route is Newton's, but the name stays: the
    `bench/trace_job.WRAPS` sites in `lattice` and `intpoly` name it, until
    ROADMAP direction 1 replaces those wraps.
    """
    xs = [x for x, _ in points]
    diffs = [y for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - k])
            if rem:
                raise InconsistentCounts(
                    "interpolant has non-integer coefficients")
    # Horner's rule on the Newton form d_0 + (t - x_0)(d_1 + ...)
    poly = IntPolynomial([])
    for x, d in zip(reversed(xs), reversed(diffs)):
        poly = poly * IntPolynomial([-x, 1]) + IntPolynomial([d])
    return poly
