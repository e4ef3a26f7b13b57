"""Exception hierarchy shared by all spinoracle modules.

The CLI maps these onto process exit codes, each with a one-line message
on stderr: ConfigError -> 2, ResourceLimitError -> 3, InvariantError -> 4,
NumericsError -> 4.
"""


class SpinOracleError(Exception):
    """Base class for all library errors."""


class ConfigError(SpinOracleError):
    """Invalid argument, option, or precondition supplied by the caller."""


class DegenerateInstanceError(ConfigError):
    """The requested problem-instance class is empty."""


class ResourceLimitError(SpinOracleError):
    """The request exceeds the built-in desk-scale resource guards."""


class InvariantError(SpinOracleError):
    """A verified structural invariant failed (flag check, symmetry, norm)."""


class NumericsError(SpinOracleError):
    """A numerical routine failed; carries diagnostic context.

    Attributes:
        trace: optional list of (x, f(x)) samples or other diagnostics
            collected before the failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
