"""Exception types shared across the package."""


class ScanLoopError(Exception):
    """Base class for all package-specific errors."""


class DivergentLoop(ScanLoopError):
    """The re-scan recursion has no finite fixed point (precision <= alpha * recall)."""


class UndefinedRatio(ScanLoopError):
    """Cost ratio requested at alpha = 0, where the baseline cost is zero."""


class QuadratureFailure(ScanLoopError):
    """Two Gauss rules of different order disagree on a population integral."""


class ModeMismatch(ScanLoopError):
    """A report produced in one simulation mode was passed to the other mode's analysis."""


class ConfigError(ScanLoopError):
    """Invalid experiment configuration; the message names the offending key."""
