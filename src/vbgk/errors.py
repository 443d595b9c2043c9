"""Exception types shared across the package.

The CLI maps these onto exit codes: config/parse problems -> 1,
constraint violations -> 2, solver aborts (blow-up) -> 3.
"""


class VbgkError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(VbgkError):
    """Field shape does not match the grid it is used with."""


class NonPositiveInput(VbgkError):
    """A parameter that must be positive was zero or negative."""


class ConstraintViolation(VbgkError):
    """A structural parameter constraint failed (e.g. a outside (0, 1/4))."""


class NonPositiveDensity(VbgkError):
    """Density component reached zero or below; never clamped."""


class NotDivergenceFree(VbgkError):
    """Velocity field violates the divergence-free requirement."""


class CflViolation(VbgkError):
    """Time step too large for the requested non-spectral transport."""


class NonPositiveError(VbgkError):
    """Rate fitting requires strictly positive error values."""


class TooFewPoints(VbgkError):
    """Rate fitting requires at least three data points."""


class ConfigError(VbgkError):
    """Malformed run configuration; carries the offending line number, if any."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BlowupDetected(VbgkError):
    """Simulation aborted on NaN/Inf or lost density positivity.

    Carries the last time at which the state was still valid, so callers can
    flush partial output.
    """

    def __init__(self, message, t_last_good):
        self.message = message
        self.t_last_good = t_last_good
        super().__init__(f"{message} (last good time t={t_last_good:.6g})")

    def __reduce__(self):
        # Exception's own reduce passes only the formatted text to __init__;
        # a sweep member that blows up in a forked child is sent back pickled
        return type(self), (self.message, self.t_last_good)
