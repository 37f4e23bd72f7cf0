"""Exception types shared across the package."""


class FfmzvError(Exception):
    """Base class for package-specific failures."""


class PrecisionError(FfmzvError):
    """An operation cannot be certified at the available precision.

    Distinct from ZeroDivisionError: inverting a series that is merely
    zero *to its precision* raises PrecisionError, while dividing by an
    exact zero polynomial raises ZeroDivisionError.
    """


class BudgetError(FfmzvError):
    """An enumeration, or the estimated size of a computation, exceeded its
    budget cap; the message names the estimate."""


class ConventionError(FfmzvError):
    """An internal normalization convention was violated (loud abort)."""


class ShapeParseError(FfmzvError):
    """A matrix does not parse back into the expected block shape."""


class CertificateError(FfmzvError):
    """A series lacks the tail certificate needed for the operation."""


class FieldSizeError(FfmzvError, ValueError):
    """A finite field is too large for precomputed arithmetic tables."""
