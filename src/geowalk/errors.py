"""Exception and warning types shared across the package, and the one
positivity rule every layer applies to its positive real settings."""


class GeoWalkError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(GeoWalkError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatch(PreconditionError):
    """Array shapes do not match the manifold or body they are used with."""


class InvalidStart(PreconditionError):
    """A chain was asked to start from a point outside the body."""


class NotConvex(PreconditionError):
    """A body parameter or test function fails its convexity requirement."""


class AcceptanceTooLow(GeoWalkError):
    """The uniform rejection sampler hit its consecutive-rejection budget."""


class OracleError(GeoWalkError):
    """A numerical oracle failed: non-finite objective value, quadrature
    that cannot reach its tolerance, and similar breakdowns."""


class SeparationViolated(GeoWalkError):
    """An isoperimetry partition's outer pieces are closer than claimed."""


class ScheduleTooAggressive(PreconditionError):
    """Temperature pair too far apart for the importance-sampling warmness
    estimator (the tilted exponent 2/T_hot - 1/T_cold is not positive)."""


class ConfigError(GeoWalkError):
    """A run configuration file or override cannot be parsed or validated."""


class DegenerateSchedule(UserWarning):
    """The requested start temperature is already at or below the final
    target, so the schedule collapses to a single phase."""


class StepSizeWarning(UserWarning):
    """A walk is being run with a step size above the validated bound."""


def _require_positive(value: float, what: str) -> None:
    """Raise :class:`PreconditionError` unless ``value`` is positive and
    finite: zero, negatives, NaN and +inf all fail ``0 < value < inf``."""
    if not 0.0 < value < float("inf"):
        raise PreconditionError(f"{what} must be positive and finite, got {value}")
