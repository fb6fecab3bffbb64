"""Typed errors shared across the package."""


class LogvfError(Exception):
    """Base class for all package errors."""


class ParseError(LogvfError):
    """Malformed polynomial expression."""


class UnknownVariable(LogvfError):
    """Identifier not among the declared variables."""


class IndexOutOfRange(LogvfError):
    """Variable index outside 0..n-1."""


class VariableMismatch(LogvfError):
    """Operands live over different variable tuples."""


class PrecisionRequired(LogvfError):
    """Local-order certificate does not terminate and no precision was given."""


class NotLogarithmic(LogvfError):
    """Candidate field fails delta(f) in <f>."""


class WrongCount(LogvfError):
    """Candidate basis does not have exactly n fields."""


class NotAtOrigin(LogvfError):
    """f does not vanish at the origin."""


class NotFree(LogvfError):
    """Operation requires a basis certified free."""


class HasConstantPart(LogvfError):
    """Vector field has a nonzero constant coefficient where none is allowed."""


class NonRationalEigenvalues(LogvfError):
    """Characteristic polynomial has an irreducible factor of degree >= 2."""


class ProductInput(LogvfError):
    """Operation requires is_product(f) = false; split the smooth factor first."""


class CertificateFailure(LogvfError):
    """An internally produced certificate failed re-verification."""


class PreconditionViolated(LogvfError):
    """Input does not satisfy a documented structural precondition."""


class VanishesAtOrigin(LogvfError):
    """Field vanishes at the origin where a unit field is required."""


class TruncationTooSmall(LogvfError):
    """Truncation order too small for the requested computation."""
