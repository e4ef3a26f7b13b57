"""Q-function grid values, normalization, and shape properties."""

import math

import numpy as np
import pytest

from references import basis_state
from spinoracle import (
    ConfigError,
    InvariantError,
    SphericalGrid,
    StateVector,
    coherent_state,
    make_spin_system,
    optimize_mu,
    q_function,
)


def test_equatorial_state_peaks_on_the_equator():
    sys = make_spin_system(6)
    grid = q_function(coherent_state(sys, math.pi / 2, 0.0), sys, 65, 64)
    t, p = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert abs(grid.thetas[t] - math.pi / 2) <= math.pi / 64  # within one cell
    assert grid.phis[p] == 0.0
    assert grid.values[t, p] == pytest.approx(1.0, abs=1e-9)


def test_pole_value_for_lowest_basis_state():
    # coherent_state's convention: theta = 0 (the first grid row) is |s>
    # (index N-1), theta = pi (the last row) is |-s> (index 0)
    sys = make_spin_system(3)
    lowest = q_function(basis_state(sys.dim, 0), sys, 9, 8).values
    assert np.max(np.abs(lowest[-1] - 1.0)) <= 1e-12
    assert np.max(lowest[0]) <= 1e-12
    top = q_function(basis_state(sys.dim, sys.dim - 1), sys, 9, 8).values
    assert np.max(np.abs(top[0] - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_coherent_state_peaks_at_its_own_angles(n):
    sys = make_spin_system(n)
    for t, p in [(8, 5), (3, 25), (26, 6), (16, 21)]:  # grid cells of a 33x32 grid
        state = coherent_state(sys, t * math.pi / 32, p * (2 * math.pi / 32))
        grid = q_function(state, sys, 33, 32)
        assert grid.values[t, p] == pytest.approx(1.0, abs=1e-12)
        assert np.unravel_index(np.argmax(grid.values), grid.values.shape) == (t, p)


@pytest.mark.parametrize(
    "n, theta_steps, phi_steps",
    [  # P > N, P < N, P not dividing N
        pytest.param(3, 9, 9, id="3"),
        pytest.param(6, 9, 9, id="6"),
        (6, 9, 100),
        (14, 9, 9),
    ],
)
def test_q_values_are_overlaps_with_coherent_states(n, theta_steps, phi_steps):
    # the folded FFT against Q = |<theta,phi|psi>|^2 term by term, both poles included
    sys = make_spin_system(n)
    rng = np.random.default_rng(n)
    amps = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
    state = StateVector(amps / np.linalg.norm(amps))
    grid = q_function(state, sys, theta_steps, phi_steps)
    expected = [[abs(np.vdot(coherent_state(sys, t, p).amps, state.amps)) ** 2 for p in grid.phis]
                for t in grid.thetas]
    assert np.max(np.abs(grid.values - expected)) <= 1e-12


@pytest.mark.parametrize("squeezed", [False, True])
def test_quadrature_normalization(squeezed):
    sys = make_spin_system(6)
    state = optimize_mu(sys, 1e-8).state if squeezed else coherent_state(sys, math.pi / 2, 0.0)
    grid = q_function(state, sys, 128, 128)
    # (2s+1)/(4 pi) x the integral of Q sin(theta) over the sphere: trapezoid in
    # theta (the weight vanishes at both poles), rectangle rule in phi, which is
    # exact for trigonometric polynomials once there are more phis than the bandwidth
    thetas, d_phi = grid.thetas, 2 * math.pi / len(grid.phis)
    w_theta = np.full(len(thetas), thetas[1] - thetas[0])
    w_theta[[0, -1]] /= 2
    integral = (w_theta * np.sin(thetas)) @ grid.values.sum(axis=1) * d_phi
    assert integral * sys.dim / (4 * math.pi) == pytest.approx(1.0, rel=0.02)


def test_values_nonnegative_and_phi_periodic():
    sys = make_spin_system(4)
    state = optimize_mu(sys, 1e-8).state
    grid = q_function(state, sys, 32, 32)
    assert grid.values.min() >= 0.0
    # turning the state by one phi step about z moves each column one step on,
    # the last one round the 2 pi wrap to phi = 0
    k = np.arange(sys.dim)
    turned = StateVector(state.amps * np.exp(1j * k[::-1] * grid.phis[1]))
    shifted = q_function(turned, sys, 32, 32).values
    assert np.max(np.abs(shifted - np.roll(grid.values, 1, axis=1))) <= 1e-12


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


@pytest.mark.parametrize("thetas, phis, values", [
    ([0.0, 1.0], [0.0], [[0.5, 0.5]]),  # values not len(thetas) x len(phis)
    (0.0, 0.0, [[0.5]]),  # axes that are not 1-D
    ([0.0], [0.0], [[-0.5]]),
    ([0.0], [0.0], [[math.nan]]),  # a NaN fails the sign check too
], ids=["shape", "0-d axes", "negative", "NaN"])
def test_grid_refuses_values_that_are_no_q_map(thetas, phis, values):
    with pytest.raises(InvariantError):
        SphericalGrid(thetas, phis, values)
