"""Exception hierarchy shared across the package.

Two roots matter for the CLI exit-code contract: ``UsageError`` (bad config
or arguments, exit 1) and ``NumericalError`` (a computation that started but
failed or degenerated, exit 2).
"""


class FeatpdeError(Exception):
    """Base class for all package errors."""


class UsageError(FeatpdeError):
    """Invalid configuration, arguments, or preconditions."""


class ConfigError(UsageError):
    """Config file failed schema validation."""


class NumericalError(FeatpdeError):
    """A numerical procedure failed or produced a degenerate result."""


class SimulationError(NumericalError):
    """Non-finite drift/diffusion during path simulation."""


class DomainError(NumericalError):
    """A reduced diffusion coefficient left its admissible range."""


class AssumptionViolationError(NumericalError):
    """Level-set constancy / positivity assumptions violated."""


class DegenerateEstimateError(NumericalError):
    """All Monte Carlo weights vanished or became non-finite."""


class RiccatiBlowupError(NumericalError):
    """Riccati flow escaped before reaching the requested horizon."""


class TrainingError(NumericalError):
    """Non-finite loss or gradient during optimization."""


class DegenerateThresholdError(NumericalError):
    """Feature threshold collapsed to zero (all samples identical)."""
