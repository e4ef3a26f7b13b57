"""Q-function grid values, normalization, and shape properties."""

import math

import numpy as np
import pytest

from references import basis_state
from spinoracle import (
    ConfigError,
    StateVector,
    coherent_state,
    make_spin_system,
    optimize_mu,
    q_function,
    q_values_at,
)


def test_equatorial_state_peaks_on_the_equator():
    sys = make_spin_system(6)
    grid = q_function(coherent_state(sys, math.pi / 2, 0.0), sys, 65, 64)
    t, p = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert abs(grid.thetas[t] - math.pi / 2) <= math.pi / 64  # within one cell
    assert grid.phis[p] == 0.0
    assert grid.values[t, p] == pytest.approx(1.0, abs=1e-9)


def test_pole_value_for_lowest_basis_state():
    # coherent_state's convention: theta = 0 is |s> (index N-1), theta = pi
    # is |-s> (index 0)
    sys = make_spin_system(3)
    lowest = basis_state(sys.dim, 0)
    q = q_values_at(lowest, sys, [math.pi, 0.0], [1.234])[:, 0]
    assert q[0] == pytest.approx(1.0, abs=1e-12)
    assert q[1] == pytest.approx(0.0, abs=1e-12)
    top = basis_state(sys.dim, sys.dim - 1)
    assert q_values_at(top, sys, [0.0], [1.234])[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_coherent_state_peaks_at_its_own_angles(n):
    sys = make_spin_system(n)
    thetas = np.linspace(0.0, math.pi, 33)
    phis = np.arange(32) * (2 * math.pi / 32)
    for theta, phi in [(math.pi / 4, math.pi / 3), (0.3, 5.0), (2.5, 1.1), (math.pi / 2, 4.2)]:
        state = coherent_state(sys, theta, phi)
        assert q_values_at(state, sys, [theta], [phi])[0, 0] == pytest.approx(1.0, abs=1e-12)
        grid = q_values_at(state, sys, np.append(thetas, theta), np.append(phis, phi))
        assert grid.max() == grid[-1, -1]


@pytest.mark.parametrize("n", [3, 6])
def test_q_values_are_overlaps_with_coherent_states(n):
    # q_values_at and coherent_state share one expansion; Q = |<theta,phi|psi>|^2
    sys = make_spin_system(n)
    rng = np.random.default_rng(n)
    amps = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
    state = StateVector(amps / np.linalg.norm(amps))
    thetas = np.linspace(0.0, math.pi, 9)  # both poles included
    phis = np.arange(7) * (2 * math.pi / 7)
    expected = [[abs(np.vdot(coherent_state(sys, t, p).amps, state.amps)) ** 2 for p in phis]
                for t in thetas]
    assert np.max(np.abs(q_values_at(state, sys, thetas, phis) - expected)) <= 1e-12


@pytest.mark.parametrize("squeezed", [False, True])
def test_quadrature_normalization(squeezed):
    sys = make_spin_system(6)
    state = optimize_mu(sys, 1e-8).state if squeezed else coherent_state(sys, math.pi / 2, 0.0)
    grid = q_function(state, sys, 128, 128)
    assert grid.quadrature_total() == pytest.approx(1.0, rel=0.02)


def test_values_nonnegative_and_phi_periodic():
    sys = make_spin_system(4)
    state = optimize_mu(sys, 1e-8).state
    grid = q_function(state, sys, 32, 32)
    assert grid.values.min() >= 0.0
    wrapped = q_values_at(state, sys, grid.thetas, [0.0, 2 * math.pi])
    assert np.max(np.abs(wrapped[:, 0] - wrapped[:, 1])) < 1e-12


def test_squeezed_state_anisotropy():
    # reduced z-variance shows up as a narrow theta ridge: the half-max width
    # along phi (equator) must exceed the width along theta
    sys = make_spin_system(6)
    grid = q_function(optimize_mu(sys, 1e-8).state, sys, 128, 128)
    t, p = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    half = grid.values[t, p] / 2
    width_phi = np.sum(grid.values[t, :] >= half) * (2 * math.pi / len(grid.phis))
    width_theta = np.sum(grid.values[:, p] >= half) * (math.pi / (len(grid.thetas) - 1))
    assert width_phi > width_theta


def test_grid_guards():
    sys = make_spin_system(3)
    state = coherent_state(sys, math.pi / 2, 0.0)
    with pytest.raises(ConfigError):
        q_function(state, sys, 4, 64)
    other = make_spin_system(4)
    with pytest.raises(ConfigError):
        q_function(state, other, 16, 16)


def test_grid_layout():
    sys = make_spin_system(3)
    grid = q_function(coherent_state(sys, math.pi / 2, 0.0), sys, 9, 8)
    assert grid.thetas[0] == 0.0 and grid.thetas[-1] == pytest.approx(math.pi)
    assert grid.phis[0] == 0.0 and grid.phis[-1] < 2 * math.pi
    assert len(grid.thetas) == 9 and len(grid.phis) == 8
    assert grid.values.shape == (9, 8)  # row-major: theta, then phi
    assert grid.phis[1] == pytest.approx(2 * math.pi / 8)
