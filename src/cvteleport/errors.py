"""Exception hierarchy shared across the package."""


class CVTeleportError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(CVTeleportError, ValueError):
    """An argument is outside the documented domain of an operation."""


class CapacityError(CVTeleportError):
    """A configurable capacity limit was exceeded: a photon cutoff or top photon
    number past ``N_MAX_FOCK``."""


class AccuracyError(CVTeleportError):
    """A numerical routine cannot certify the requested tolerance.

    Carries the offending error estimate in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConsistencyError(CVTeleportError):
    """An internal cross-check failed, signalling misuse or a numerical fault."""


class DegenerateStateError(CVTeleportError):
    """A state-dependent quantity is undefined for the given state."""


class EvaluationError(CVTeleportError):
    """An objective or an overlap produced a non-finite or unrepresentable value."""
