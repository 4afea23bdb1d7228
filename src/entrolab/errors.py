"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ValidationError and subclasses map to 2,
ConvergenceError (NonFiniteOrbitError and UnderflowError included) and
SaturationError to 3,
uncertified results (a report flag, not an exception) to 4 when
--require-certified is set.
"""


class EntropyLabError(Exception):
    """Base class for all package errors."""


class ValidationError(EntropyLabError):
    """Bad input: violated precondition, malformed schema, invalid config."""


class DimensionError(ValidationError):
    """Incompatible vector / operator dimensions."""


class HeadroomError(DimensionError):
    """A forward shift would push support past the truncation length."""


class ScheduleError(ValidationError):
    """Segment schedule violates the ordering or gap constraints."""


class AdmissibilityError(ValidationError):
    """Weight sequence fails the summability (tail-ratio) test."""


class SingularMatrixError(ValidationError):
    """Matrix numerically singular where invertibility is required."""


class AmbiguousSpectrumError(ValidationError):
    """Eigenvalue modulus falls inside the forbidden annulus around 1."""


class SampleSizeError(ValidationError):
    """Sample or family too large for the requested exact computation."""


class UnsupportedOperatorError(ValidationError):
    """Operation has no closed form for this operator kind."""


class UncertifiedSpectrumError(ValidationError):
    """Spectral data has an uncertified infinite tail."""


class ConvergenceError(EntropyLabError):
    """Iterative numerical procedure failed to converge within its budget."""


class NonFiniteOrbitError(ConvergenceError):
    """An orbit left the floating-point range (inf or nan coordinates)."""


class UnderflowError(ConvergenceError):
    """A forward shift would give a nonzero coordinate an image of modulus
    below the normal range, so B_w could not restore it exactly."""


class SaturationError(EntropyLabError):
    """Every table entry saturated: the sample is too coarse, refine it."""
