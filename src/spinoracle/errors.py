"""Exception hierarchy and the immutable value base shared by all spinoracle modules.

The CLI maps the exceptions onto process exit codes, each with a one-line
message on stderr: ConfigError -> 2, ResourceLimitError -> 3,
InvariantError -> 4, NumericsError -> 4.
"""

import numpy as np


class Frozen:
    """Base of the value types: fields in __slots__, set once in __init__.

    A subclass lists its fields in __slots__, and its __init__ sets each one
    with object.__setattr__ before running its checks.  Afterwards setting
    or deleting a field raises AttributeError.  Equality, hash and repr are
    taken over the fields; a type compared by identity sets __eq__ and
    __hash__ back to object's.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __setstate__(self, state):
        # pickle and copy restore the fields here: state is (None, {field: value});
        # neither keeps an array's writeable flag, so each array is frozen again
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
