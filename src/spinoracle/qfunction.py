"""Spherical Q-function evaluation on a (theta, phi) grid.

The quasi-probability at (theta, phi) is Q(theta, phi) = |<theta, phi|psi>|^2
with the coherent state of spin_core.coherent_state, whose amplitude on
|s-k> (qudit index N-1-k) is C(2s,k)^(1/2) cos(theta/2)^(2s-k)
sin(theta/2)^k e^(i k phi); both take the magnitudes from
spin_core._coherent_magnitudes:

    Q(theta, phi) = | sum_k C(2s,k)^(1/2) sin(theta/2)^k cos(theta/2)^(2s-k)
                      e^(-i k phi) a_(N-1-k) |^2

with a_i the qudit amplitudes.  So Q of |s> (index N-1) is 1 at theta = 0,
Q of |-s> (index 0) is 1 at theta = pi, and Q of any coherent state is 1 at
its own angles.  With the measure sin(theta) dtheta dphi Q integrates to
4 pi / (2s+1) for any normalized state.

Grid layout: theta in [0, pi] inclusive, phi in [0, 2 pi) exclusive,
row-major over theta then phi.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, Frozen, InvariantError, ResourceLimitError
from .spin_core import SpinSystem, StateVector, _coherent_magnitudes, _half_log_binomials

MAX_GRID_CELLS = 2**20  # Q values per grid, each one output row
MAX_PHASE_ENTRIES = 2**24  # the (phi_steps x N) complex phase matrix: 256 MiB


class SphericalGrid(Frozen):
    """Non-negative Q values sampled on the standard spherical grid.

    values has shape (len(thetas), len(phis)); the arrays are read-only.
    """

    __slots__ = ("dim", "thetas", "phis", "values")

    def __init__(self, dim: int, thetas: np.ndarray, phis: np.ndarray, values: np.ndarray):
        super().__init__(dim, *(np.asarray(a, dtype=float) for a in (thetas, phis, values)))

    def _check(self):
        if self.values.shape != (len(self.thetas), len(self.phis)):
            raise InvariantError("grid shape mismatch")
        if float(self.values.min()) < 0:
            raise InvariantError("Q-function values must be non-negative")

    def quadrature_total(self) -> float:
        """(2s+1)/(4 pi) x integral of Q over the sphere; ~1 for any state.

        Trapezoid in theta (the sin(theta) weight vanishes at both poles),
        rectangle rule in phi, which is exact for trigonometric polynomials
        once len(phis) exceeds the state's bandwidth.
        """
        d_theta = float(self.thetas[1] - self.thetas[0])
        d_phi = 2 * math.pi / len(self.phis)
        w_theta = np.full(len(self.thetas), d_theta)
        w_theta[0] = w_theta[-1] = d_theta / 2
        integral = float((w_theta * np.sin(self.thetas)) @ self.values.sum(axis=1) * d_phi)
        return integral * self.dim / (4 * math.pi)


def q_values_at(state: StateVector, sys: SpinSystem, thetas, phis) -> np.ndarray:
    """Evaluate Q on the outer product of the given angle arrays."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    half_log_binom = _half_log_binomials(sys.two_s)
    phase = np.exp(-1j * np.outer(phis, np.arange(sys.dim)))  # (P, N): the bra's conjugated phase
    amps = state.amps[::-1]  # amps[k] sits on |s-k>
    out = np.empty((len(thetas), len(phis)))
    for t, theta in enumerate(thetas):
        out[t] = np.abs(phase @ (_coherent_magnitudes(theta, half_log_binom) * amps)) ** 2
    return out


def q_function(
    state: StateVector, sys: SpinSystem, theta_steps: int, phi_steps: int
) -> SphericalGrid:
    """Sample the Q-function of ``state`` on a theta_steps x phi_steps grid."""
    if theta_steps < 8 or phi_steps < 8:
        raise ConfigError(f"grid must be at least 8x8, got {theta_steps}x{phi_steps}")
    if theta_steps * phi_steps > MAX_GRID_CELLS:
        raise ResourceLimitError(f"grid {theta_steps}x{phi_steps} has over {MAX_GRID_CELLS} cells")
    if phi_steps * sys.dim > MAX_PHASE_ENTRIES:
        raise ResourceLimitError(
            f"{phi_steps} phi steps x N = {sys.dim} exceed {MAX_PHASE_ENTRIES} phase entries"
        )
    if state.dim != sys.dim:
        raise ConfigError(f"state dim {state.dim} does not match system dim {sys.dim}")
    thetas = np.linspace(0.0, math.pi, theta_steps)
    phis = np.arange(phi_steps) * (2 * math.pi / phi_steps)
    return SphericalGrid(sys.dim, thetas, phis, q_values_at(state, sys, thetas, phis))
