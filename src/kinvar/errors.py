"""Exception types shared across the package."""


class KinvarError(Exception):
    """Base class for all package-specific errors."""


class NetworkValidationError(KinvarError):
    """A reaction network violates a structural constraint."""


class BalanceError(KinvarError):
    """Cycle conditions cannot be satisfied by rescaling rate constants."""


class ConservationError(KinvarError):
    """No positive conservation vector exists, or paired initial states
    carry different conserved totals."""


class MultipleEquilibriaError(KinvarError):
    """The rate matrix kernel has dimension > 1 (disconnected network)."""


class NoReversiblePathError(KinvarError):
    """The requested species pair is not connected by reversible steps."""


class IntegrationError(KinvarError):
    """Adaptive integration failed; carries the time of failure."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t={t:.6g})")
        self.t = t


class DegenerateExperimentError(KinvarError):
    """Every grid point of an invariant evaluation was excluded."""


class ConfigError(KinvarError):
    """Scenario or network configuration file is malformed."""
