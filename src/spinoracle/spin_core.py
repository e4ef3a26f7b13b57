"""Spin systems, collective spin operators, and coherent spin states.

A system of 2s elementary 1/2-spins with fixed total spin s spans an
N = 2s + 1 dimensional Hilbert space.  We only use N = 2^n so that length-N
bit strings index the basis, which makes 2s odd and s a half-integer.

Index convention (used by every module in this package):

    qudit index i = 0 .. N-1   <->   spin projection m = i - s

so ``i = 0`` is the ground state ``|-s>`` and ``i = N-1`` is ``|s>``.
The coherent-state expansion below runs over ``|s-k>``, i.e. k = N-1-i.

The dense spin operators are read-only complex matrices, the reference the
structured squeezing path is checked against.  States are unit-norm complex
vectors.  Everything is immutable after construction and all functions are
pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

from .errors import ConfigError, Frozen, InvariantError, NumericsError

NORM_TOL = 1e-12

MIN_EXPONENT = 2
MAX_EXPONENT = 14  # also bounds every codeword length: N = 4 .. 16384


def _check_exponent(n) -> int:
    """The exponent as an int; ConfigError unless it is an integer in
    [MIN_EXPONENT, MAX_EXPONENT].  The cap is a resource guard: squeezing,
    whose one dense step is an N/4 x N/4 SVD, runs to N = 1024; fast
    transforms remain cheap beyond."""
    if not isinstance(n, (int, np.integer)):
        raise ConfigError(f"exponent must be an integer, got {n!r}")
    if not MIN_EXPONENT <= n <= MAX_EXPONENT:
        raise ConfigError(
            f"exponent n={n} outside supported range [{MIN_EXPONENT}, {MAX_EXPONENT}]"
        )
    return int(n)


class SpinSystem(Frozen):
    """Problem dimensions: exponent n, dimension N = 2^n, spin s = (N-1)/2."""

    __slots__ = ("n", "dim")

    def _check(self):
        n = _check_exponent(self.n)
        if not isinstance(self.dim, (int, np.integer)) or self.dim != 2**n:
            raise ConfigError(f"inconsistent spin system (n={n}, dim={self.dim!r})")

    @property
    def two_s(self) -> int:
        return self.dim - 1

    @property
    def s(self) -> float:
        # half-integer, exact in binary floating point
        return (self.dim - 1) / 2

    def m_values(self) -> np.ndarray:
        """Spin projections m = i - s for qudit indices i = 0..N-1."""
        return np.arange(self.dim) - self.s


def _expect(value, kind: type, name: str):
    """The one argument-type check of the entry points: ConfigError unless value is a kind."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def make_spin_system(n: int) -> SpinSystem:
    """Build the spin system for N = 2^n basis states (the exponent read as
    SpinSystem reads it, before 2^n is formed)."""
    n = _check_exponent(n)
    return SpinSystem(n=n, dim=2**n)


class StateVector(Frozen):
    """Unit-norm complex amplitude vector over the qudit basis; states compare
    by identity."""

    __slots__ = ("amps",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, amps: np.ndarray):
        try:
            amps = np.asarray(amps)
        except ValueError as exc:  # ragged nesting
            raise ConfigError(f"amplitudes must be a 1-D numeric array: {exc}") from None
        if amps.ndim != 1 or not np.issubdtype(amps.dtype, np.number):
            raise ConfigError(f"amplitudes must be a 1-D numeric array, got {amps.dtype} "
                              f"of shape {amps.shape}")
        super().__init__(np.ascontiguousarray(amps, dtype=complex))

    def _check(self):
        norm_sq = float(np.sum(np.abs(self.amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails too
            raise InvariantError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


class SpinOperators(Frozen):
    """Sx, Sy and Sz as read-only N x N complex arrays; compared by identity."""

    __slots__ = ("sx", "sy", "sz")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _ladder_coefficients(sys: SpinSystem) -> np.ndarray:
    """sqrt(s(s+1) - m(m+1)) for m = -s .. s-1: the S+ element from index i to i+1."""
    s = sys.s
    m = sys.m_values()[:-1]
    return np.sqrt(s * (s + 1) - m * (m + 1))


def spin_operators(sys: SpinSystem) -> SpinOperators:
    """Collective spin operators in the qudit basis.

    Sz is diagonal with entries m = -s..s; the ladder operators have the
    standard matrix elements sqrt(s(s+1) - m(m+-1)); Sx = (S+ + S-)/2 and
    Sy = (S+ - S-)/(2i).  The su(2) relations [Sx,Sy] = iSz (and cyclic) and
    S^2 = s(s+1) I hold to round-off.  The arrays are read-only because the
    cache hands the same ones to every caller.
    """
    _expect(sys, SpinSystem, "spin system")  # before the cache hashes it
    return _spin_operators(sys)


@lru_cache(maxsize=None)
def _spin_operators(sys: SpinSystem) -> SpinOperators:
    sz = np.diag(sys.m_values().astype(complex))
    splus = np.zeros((sys.dim, sys.dim), dtype=complex)
    # S+|m> = sqrt(s(s+1) - m(m+1)) |m+1>, i.e. entry (i+1, i)
    splus[np.arange(1, sys.dim), np.arange(sys.dim - 1)] = _ladder_coefficients(sys)
    sminus = splus.conj().T
    return SpinOperators(sx=(splus + sminus) / 2, sy=(splus - sminus) / 2j, sz=sz)


def expi_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i t H) for Hermitian H via eigendecomposition.

    Exactly unitary up to round-off; no series truncation involved.
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(h))) if h.size else 0.0
        raise NumericsError(
            f"eigendecomposition failed: dim={h.shape[0]}, max|H|={scale:.3e}: {exc}"
        ) from exc
    return (v * np.exp(1j * t * w)) @ v.conj().T


@lru_cache(maxsize=None)
def _half_log_binomials(m: int) -> np.ndarray:
    """0.5 * ln C(m, k) for k = 0..m, stable for large m.

    Read-only and cached: every coherent state of a system shares one row.
    """
    lg = math.lgamma(m + 1)
    out = np.array(
        [0.5 * (lg - math.lgamma(k + 1) - math.lgamma(m - k + 1)) for k in range(m + 1)]
    )
    out.flags.writeable = False
    return out


def _coherent_magnitudes(theta: float, two_s: int) -> np.ndarray:
    """C(2s,k)^(1/2) sin(theta/2)^k cos(theta/2)^(2s-k) for k = 0..2s.

    Evaluated in log space so the binomial weights stay representable up to
    N = 16384; at a pole the one surviving term is exactly 1.  The south pole
    is found by theta itself: cos(pi/2) is 6.1e-17 in floating point, not 0.
    """
    sin_h, cos_h = math.sin(theta / 2), math.cos(theta / 2)
    if sin_h == 0.0 or theta == math.pi:
        mags = np.zeros(two_s + 1)
        mags[0 if sin_h == 0.0 else two_s] = 1.0
        return mags
    k = np.arange(two_s + 1)
    return np.exp(
        _half_log_binomials(two_s) + k * math.log(sin_h) + (two_s - k) * math.log(cos_h)
    )


def coherent_state(sys: SpinSystem, theta: float, phi: float) -> StateVector:
    """Coherent spin state |theta, phi>.

    Amplitude on |s-k> is C(2s,k)^(1/2) cos(theta/2)^(2s-k) sin(theta/2)^k
    e^(i k phi), the product form of the normalized tan expansion; it is
    finite for every theta including the poles.  Note the expansion places
    theta = 0 on |s>, the top of the ladder rather than the |-s> ground
    state; the equatorial states used downstream are symmetric between the
    poles, so nothing depends on that labeling.  The magnitudes come from
    _coherent_magnitudes, then the state is renormalized (relative
    correction ~1e-13).
    """
    _expect(sys, SpinSystem, "spin system")
    if not isinstance(theta, numbers.Real) or not 0.0 <= theta <= math.pi:
        raise ConfigError(f"theta={theta} outside [0, pi]")
    if not isinstance(phi, numbers.Real) or not 0.0 <= phi < 2 * math.pi:
        raise ConfigError(f"phi={phi} outside [0, 2*pi)")
    k = np.arange(sys.dim)
    mags = _coherent_magnitudes(theta, sys.two_s)
    amps = np.empty(sys.dim, dtype=complex)
    # |s-k> lives at qudit index N-1-k
    amps[sys.dim - 1 - k] = mags * np.exp(1j * phi * k)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return StateVector(amps)
