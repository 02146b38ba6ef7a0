"""Exception types shared across the package."""


class ScanLoopError(Exception):
    """Base class for all package-specific errors."""


class DivergentLoop(ScanLoopError):
    """The re-scan recursion has no finite fixed point (precision <= alpha * recall)."""


class UndefinedRatio(ScanLoopError):
    """A cost ratio with no value in doubles: at alpha = 0, where the baseline
    cost is zero, or beyond the range of doubles."""


class UndefinedDraw(ScanLoopError):
    """A failure rate drawn as NaN, as ``betaincinv`` gives at some Beta shapes."""


class QuadratureFailure(ScanLoopError):
    """Two Gauss rules of different order disagree on a population integral."""


class ConfigError(ScanLoopError):
    """Invalid experiment configuration; the message names the offending key."""
