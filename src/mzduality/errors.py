"""Semantic exception hierarchy shared by all modules."""


class MZDualityError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(MZDualityError):
    """Input matrix is not Hermitian within tolerance."""


class NotUnitary(MZDualityError):
    """Input matrix is not unitary within tolerance."""


class DimensionMismatch(MZDualityError):
    """Matrix dimensions are incompatible with the requested operation."""


class BadDimension(MZDualityError):
    """Detector dimension outside the supported range."""


class InvalidState(MZDualityError):
    """Matrix is not a valid density operator."""


class InvalidEffect(MZDualityError):
    """Matrix or (bias, vector) pair is not a valid effect."""


class InvalidInstance(MZDualityError):
    """Observable-pair parameters violate their constraints."""


class NotMeasurable(MZDualityError):
    """No joint observable exists for the given pair."""


class DegenerateFidelity(MZDualityError):
    """Fidelity too close to zero for the requested ratio."""


class InvalidArgument(MZDualityError, ValueError):
    """Numeric argument outside the range an operation accepts."""


class ScenarioError(MZDualityError):
    """Scenario file cannot be parsed into a valid setup."""
