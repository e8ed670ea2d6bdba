"""Exception types raised by the bccanon library."""

__all__ = [
    "BccanonError",
    "NotUnitary",
    "ConvergenceFailure",
    "PartitionMismatch",
    "NotSelfAdjoint",
    "RankDeficient",
    "UnsupportedOrder",
    "InvalidTarget",
    "ParseError",
    "DimensionMismatch",
]


class BccanonError(Exception):
    """Base class for all library-specific failures."""


class NotUnitary(BccanonError):
    """Input matrix fails the unitarity residual check."""


class ConvergenceFailure(BccanonError):
    """A backend eigenvalue/SVD/CSD iteration did not converge."""


class PartitionMismatch(BccanonError):
    """CS-decomposition partition (p, q) is inconsistent with the matrix."""


class NotSelfAdjoint(BccanonError):
    """Boundary pair violates the rank or Gram self-adjointness criterion."""


class RankDeficient(BccanonError):
    """No unitary W is within reach of the Newton-Schulz steps from P^-1 R."""


class UnsupportedOrder(BccanonError):
    """Operation is undefined for the requested matrix order/parity."""


class InvalidTarget(BccanonError):
    """Requested seed or unit-cosine count is outside the admissible range."""


class ParseError(BccanonError):
    """Matrix file is malformed or contains non-finite entries."""


class DimensionMismatch(ParseError):
    """Matrix file data does not match its declared shape."""
