"""Exception hierarchy shared by all ldsmdl modules."""


class LdsError(Exception):
    """Base class for all ldsmdl errors."""


class DimensionError(LdsError, ValueError):
    """Inputs have inconsistent or invalid shapes/values."""


class InstabilityError(LdsError):
    """Spectral radius of the transition matrix is >= 1 where stability is required."""


class SingularityError(LdsError):
    """A matrix that must be positive definite is (numerically) singular."""


class DegeneracyError(LdsError):
    """A fitted noise covariance collapsed towards the parameter-space boundary."""


class RankDeficiencyError(LdsError):
    """M-step accumulators are rank deficient (redundant latent dimensions)."""


class DivergenceError(LdsError):
    """A generated sequence diverged numerically."""


class DegenerateDataError(LdsError):
    """Preprocessing left no usable data."""


class InsufficientDataError(LdsError):
    """The sequence is too short for the requested operation."""


class WorkerDiedError(RuntimeError):
    """A process that fitted buckets ended without handing back its results
    (killed, say, by the kernel when memory ran out)."""
