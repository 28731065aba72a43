"""Exception hierarchy for the toolkit.

Every error raised on purpose by the library derives from CmarrError, so
callers (in particular the CLI) can distinguish library signals from bugs.
"""


class CmarrError(Exception):
    pass


class ZeroCovector(CmarrError):
    """All entries of a covector are zero."""


class DimensionMismatch(CmarrError):
    """Covectors or subspaces with inconsistent ambient dimensions."""


class BadPrime(CmarrError):
    """Prime fails the admissibility check for finite-field counting."""


class InconsistentCounts(CmarrError):
    """Finite-field point counts do not fit a single polynomial."""


class MalformedPolynomial(CmarrError):
    """Polynomial does not have constant term 1."""


class IndexOutOfRange(CmarrError, IndexError):
    """Hyperplane index outside the arrangement."""


class FlatNotInLattice(CmarrError):
    """Flat does not belong to the arrangement's intersection lattice."""


class MobiusSignViolation(CmarrError):
    """A Mobius value is zero or has a sign other than (-1)^rank: the
    computed poset is not a geometric lattice."""


class InexactDivision(CmarrError):
    """A linear factor (1 + b t) does not divide the polynomial."""


class ExponentMismatch(CmarrError):
    """Freeness chain exponents differ from the Poincare factorization."""


class GeneratorInvariant(CmarrError):
    """A generator built a root system or G8 model of the wrong size."""


class UnsupportedType(CmarrError):
    """Root system label outside the simply laced A/D/E families."""


class InvalidOrder(CmarrError):
    """Cyclic group order below 2."""


class InvalidN(CmarrError):
    """Wreath product symmetric-group degree below 2."""


class InvalidParams(CmarrError):
    """Generator parameters inconsistent or out of range."""


class LayoutMismatch(CmarrError):
    """Weyl block layout does not match the arrangement's coordinates."""


class NotStable(CmarrError):
    """Orbit computation requested on a non-stable arrangement."""


class NonIntegral(CmarrError):
    """dim H / |W| is not an integer: inconsistent (polynomial, group) data."""


class ParseError(CmarrError):
    """Arrangement file syntax error; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class EmptyBody(CmarrError):
    """Arrangement file contains no hyperplane lines."""


class UnknownGenerator(CmarrError):
    """CLI asked for a generator that does not exist."""
