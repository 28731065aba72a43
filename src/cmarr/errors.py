"""Exception hierarchy for the toolkit.

Every error raised on purpose by the library derives from CmarrError, so
callers (in particular the CLI) can distinguish library signals from bugs.
Each class carries the exit code `cmarr` returns for it: 1 for bad input
(`InputError`), 2 for a failed mathematical audit (`AuditFailure`), 3 for
an `Unknown` freeness verdict under `--strict` (`StrictUnknown`), and 4 for
any other CmarrError, an internal check that failed.
"""


class CmarrError(Exception):
    exit_code = 4


class InputError(CmarrError):
    """The input, a generator request or an option is malformed."""
    exit_code = 1


class AuditFailure(CmarrError):
    """A mathematical audit of well-formed input failed."""
    exit_code = 2


class StrictUnknown(CmarrError):
    """A freeness verdict is Unknown and `--strict` was given."""
    exit_code = 3


class ZeroCovector(InputError):
    """All entries of a covector are zero."""


class DimensionMismatch(InputError):
    """Covectors or subspaces with inconsistent ambient dimensions."""


class BadPrime(AuditFailure):
    """Prime fails the admissibility check for finite-field counting."""


class InconsistentCounts(AuditFailure):
    """Finite-field point counts do not fit a single polynomial."""


class MalformedPolynomial(CmarrError):
    """Polynomial does not have constant term 1."""


class IndexOutOfRange(InputError, IndexError):
    """Hyperplane index outside the arrangement."""


class UnknownName(CmarrError, AttributeError):
    """A name the package does not export."""


class FlatNotInLattice(CmarrError):
    """A flat or lattice does not belong to the arrangement at hand."""


class MobiusSignViolation(CmarrError):
    """A Mobius value is zero or has a sign other than (-1)^rank: the
    computed poset is not a geometric lattice."""


class InexactDivision(CmarrError):
    """A linear factor (1 + b t) does not divide the polynomial."""


class ExponentMismatch(CmarrError):
    """Freeness chain exponents differ from the Poincare factorization."""


class GeneratorInvariant(CmarrError):
    """A generator built a root system or G8 model of the wrong size."""


class UnsupportedType(InputError):
    """Root system label outside the simply laced A/D/E families."""


class InvalidOrder(InputError):
    """Cyclic group order below 2."""


class InvalidN(InputError):
    """Wreath product symmetric-group degree below 2."""


class InvalidParams(InputError, ValueError):
    """Arguments inconsistent or out of range: generator parameters, CLI
    options, a covector entry's exponent, or a library call's tags, primes,
    budget or hyperplane order."""


class LayoutMismatch(AuditFailure):
    """Weyl block layout does not match the arrangement's coordinates."""


class NotStable(AuditFailure):
    """An arrangement is not stable under a Weyl block layout; carries the
    first generator and the first covector it moves outside the set."""

    def __init__(self, message, generator=None, covector=None):
        self.generator = generator
        self.covector = covector
        super().__init__(message)


class NonIntegral(AuditFailure):
    """dim H / |W| is not an integer: inconsistent (polynomial, group) data."""


class ParseError(InputError):
    """Arrangement file syntax error, or an input that cannot be read or
    is not UTF-8 text; carries a line number when there is one."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class EmptyBody(InputError):
    """Arrangement file contains no hyperplane lines."""


class UnknownGenerator(InputError):
    """CLI asked for a generator that does not exist."""
