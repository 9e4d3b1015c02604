"""Exception types raised across the package."""


class SkfnavError(Exception):
    """Base class for package errors.

    A check that runs on many points at once (a dynamics map on a stack's
    sigma points) names the points that failed it: ``points`` holds their
    indices in increasing order, or None when the error names none."""

    def __init__(self, *args, points=None):
        super().__init__(*args)
        self.points = points


class CovarianceError(SkfnavError):
    """Covariance is not positive semi-definite."""


class DynamicsDivergedError(SkfnavError):
    """A dynamics map returned non-finite values."""


class SingularInnovationError(SkfnavError):
    """Innovation covariance is singular or too ill-conditioned to invert."""


class InvalidMeasurementError(SkfnavError):
    """Measurement vector contains non-finite entries or has the wrong shape."""


class GimbalLockError(SkfnavError):
    """Pitch magnitude reached the Euler-rate singularity guard."""


class PolarSingularityError(SkfnavError):
    """Position update hit the cos-term singularity."""


class FieldDomainError(SkfnavError):
    """Velocity-field query outside the gridded domain."""


class ConfigError(SkfnavError):
    """Invalid configuration (schema violation, dimension mismatch, bad value)."""
