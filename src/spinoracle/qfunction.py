"""Spherical Q-function evaluation on a (theta, phi) grid.

The quasi-probability at (theta, phi) is Q(theta, phi) = |<theta, phi|psi>|^2
with the coherent state of spin_core.coherent_state, whose amplitude on
|s-k> (qudit index N-1-k) is C(2s,k)^(1/2) cos(theta/2)^(2s-k)
sin(theta/2)^k e^(i k phi); both take the magnitudes from
spin_core._coherent_magnitudes:

    Q(theta, phi) = | sum_k C(2s,k)^(1/2) sin(theta/2)^k cos(theta/2)^(2s-k)
                      e^(-i k phi) a_(N-1-k) |^2

with a_i the qudit amplitudes.  On the grid's phi_p = 2 pi p / P this is
|sum_k b_k e^(-2 pi i k p / P)|^2 with b_k the terms above, so the terms of
one theta, folded modulo P, give a whole phi row by one length-P DFT; that
is exact for any P, also P < N.  So Q of |s> (index N-1) is 1 at theta = 0,
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
from .spin_core import SpinSystem, StateVector, _coherent_magnitudes, _expect

MAX_GRID_CELLS = 2**20  # Q values per grid, each one output row


class SphericalGrid(Frozen):
    """Non-negative Q values sampled on the standard spherical grid.

    values has shape (len(thetas), len(phis)); the arrays are read-only.
    Grids compare by identity.
    """

    __slots__ = ("thetas", "phis", "values")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, thetas: np.ndarray, phis: np.ndarray, values: np.ndarray):
        try:
            arrays = [None if np.iscomplexobj(a) else np.asarray(a, dtype=float)
                      for a in (thetas, phis, values)]
        except (TypeError, ValueError):
            arrays = [None]
        if any(a is None for a in arrays):
            raise ConfigError("grid axes and values must be real numeric arrays")
        if not arrays[2].size:
            raise ConfigError("a Q-function grid needs at least one value")
        super().__init__(*arrays)

    def _check(self):
        thetas, phis = self.thetas, self.phis
        if (thetas.ndim, phis.ndim, self.values.shape) != (1, 1, (thetas.size, phis.size)):
            raise InvariantError("grid shape mismatch")
        if not float(self.values.min()) >= 0:  # NaN fails too
            raise InvariantError("Q-function values must be non-negative")


def q_function(
    state: StateVector, sys: SpinSystem, theta_steps: int, phi_steps: int
) -> SphericalGrid:
    """Sample the Q-function of ``state`` on a theta_steps x phi_steps grid."""
    _expect(state, StateVector, "state")
    _expect(sys, SpinSystem, "spin system")
    if not all(isinstance(k, (int, np.integer)) for k in (theta_steps, phi_steps)):
        raise ConfigError(f"grid steps must be integers, got {theta_steps!r}x{phi_steps!r}")
    if theta_steps < 8 or phi_steps < 8:
        raise ConfigError(f"grid must be at least 8x8, got {theta_steps}x{phi_steps}")
    if theta_steps * phi_steps > MAX_GRID_CELLS:
        raise ResourceLimitError(f"grid {theta_steps}x{phi_steps} has over {MAX_GRID_CELLS} cells")
    if state.dim != sys.dim:
        raise ConfigError(f"state dim {state.dim} does not match system dim {sys.dim}")
    thetas = np.linspace(0.0, math.pi, theta_steps)
    phis = np.arange(phi_steps) * (2 * math.pi / phi_steps)
    amps = state.amps[::-1]  # amps[k] sits on |s-k>
    # e^(-2 pi i k p / P) has period P in k: fold the terms, zero-padded to a multiple of P
    terms = np.zeros(-(-sys.dim // phi_steps) * phi_steps, dtype=complex)
    folded = np.empty((theta_steps, phi_steps), dtype=complex)
    for t, theta in enumerate(thetas):
        terms[: sys.dim] = _coherent_magnitudes(theta, sys.two_s) * amps
        folded[t] = terms.reshape(-1, phi_steps).sum(axis=0)
    return SphericalGrid(thetas, phis, np.abs(np.fft.fft(folded, axis=1)) ** 2)
