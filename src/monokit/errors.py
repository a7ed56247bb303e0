"""Exception types shared across the package."""


class MonokitError(Exception):
    """Base class for package errors."""


class DimensionMismatch(MonokitError):
    """Primal and dual components, or two points, disagree in dimension."""


class ToleranceError(MonokitError):
    """A tolerance bundle violates its ordering or positivity constraints."""


class RegionError(MonokitError):
    """A region literal or construction is malformed."""


class ValidationError(MonokitError):
    """An operator description fails its construction-time checks."""


class LPNumericalError(MonokitError):
    """The simplex solver hit a numerical failure, distinct from infeasibility."""


class BelowCoupling(MonokitError):
    """A candidate representative dips below the coupling by more than the
    strict margin, so it is outside the representable class."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsatisfiedHypothesis(MonokitError):
    """A precondition of a gated construction failed; names which one."""

    def __init__(self, hypothesis, detail=""):
        msg = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(msg)
        self.hypothesis = hypothesis


class SpecFormatError(MonokitError):
    """A problem-description file failed to parse or validate."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
