"""Integer-coefficient polynomials in one variable t, exact arithmetic only."""


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
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == IntPolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __mul__(self, other):
        other = _coerce(other)
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

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


def _coerce(x):
    if isinstance(x, IntPolynomial):
        return x
    if isinstance(x, int):
        return IntPolynomial([x])
    raise TypeError("cannot combine IntPolynomial with %r" % (x,))


def lagrange_interpolate(points):
    """Interpolate the unique polynomial through (x, y) pairs.

    Returns a list of Fraction coefficients (ascending).  Exact arithmetic;
    callers decide whether non-integer coefficients are an error.
    """
    from fractions import Fraction
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (t - xj), built incrementally
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k] -= c * xj
                new[k + 1] += c
            num = new
            denom *= (xi - xj)
        scale = Fraction(yi) / denom
        for k, c in enumerate(num):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
