"""Exception types shared across the package."""


class CoherenceLabError(Exception):
    """Base class for all errors raised by coherence_lab."""


class NonSquareError(CoherenceLabError):
    """Matrix operation requires a square matrix."""


class NonHermitianError(CoherenceLabError):
    """Matrix is not Hermitian within tolerance."""


class NotPSDError(CoherenceLabError):
    """Matrix has an eigenvalue below the allowed negative floor."""


class NotNormalizedError(CoherenceLabError):
    """State vector does not have unit norm, or density matrix does not have unit trace."""


class NonFiniteError(CoherenceLabError):
    """Matrix has a NaN or infinite entry."""


class BadDimError(CoherenceLabError):
    """Dimension argument out of range."""


class BadRankError(CoherenceLabError):
    """Requested rank is not between 1 and the dimension."""


class BadParamsError(CoherenceLabError):
    """Sampler parameters out of range."""


class BadPayloadError(CoherenceLabError):
    """State, channel or unitary payload has a missing, mistyped or wrongly sized field."""


class DimMismatchError(CoherenceLabError):
    """Operands act on different dimensions."""


class IncompleteChannelError(CoherenceLabError):
    """Kraus operators do not satisfy the completeness relation."""


class NotIncoherentError(CoherenceLabError):
    """Channel is not incoherent (some Kraus column has two or more entries)."""


class OptimizerFailedError(CoherenceLabError):
    """Numerical optimizer could not produce a usable result."""
