"""Spin system construction, operator algebra, and coherent states."""

import math

import numpy as np
import pytest

from references import basis_state
from spinoracle import (
    ConfigError,
    InvariantError,
    StateVector,
    coherent_state,
    expi_hermitian,
    make_spin_system,
    spin_operators,
)
from spinoracle.spin_core import _coherent_magnitudes, _half_log_binomials

TEST_DIMS = (4, 8, 16, 32, 64)


def expectation(op, state):
    """<state| op |state> for a Hermitian matrix op."""
    return float(np.vdot(state.amps, op @ state.amps).real)


def variance(op, state):
    """<op^2> - <op>^2 for a Hermitian matrix op, with <op^2> = |op psi|^2."""
    mean = expectation(op, state)
    applied = op @ state.amps
    return float(np.vdot(applied, applied).real) - mean * mean


@pytest.mark.parametrize("n,dim,s", [(2, 4, 1.5), (3, 8, 3.5), (6, 64, 31.5)])
def test_make_spin_system(n, dim, s):
    sys = make_spin_system(n)
    assert sys.dim == dim
    assert sys.s == s
    assert sys.two_s == 2 * s
    assert sys.two_s % 2 == 1  # 2s is odd


@pytest.mark.parametrize("n", [0, 1, 15, -3])
def test_make_spin_system_range_guard(n):
    with pytest.raises(ConfigError):
        make_spin_system(n)


def test_sz_diagonal_values():
    ops = spin_operators(make_spin_system(2))
    assert np.allclose(np.diag(ops.sz), [-1.5, -0.5, 0.5, 1.5])
    assert np.all(ops.sz - np.diag(np.diag(ops.sz)) == 0)  # diagonal
    for op in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(op - op.conj().T)) < 1e-12  # Hermitian
        assert not op.flags.writeable  # the cache shares these arrays


def test_lowering_annihilates_ground_state():
    sys = make_spin_system(3)
    ops = spin_operators(sys)
    sminus = ops.sx - 1j * ops.sy
    ground = basis_state(sys.dim, 0).amps  # |-s>
    assert np.max(np.abs(sminus @ ground)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_su2_algebra(n):
    sys = make_spin_system(n)
    ops = spin_operators(sys)
    sx, sy, sz = ops.sx, ops.sy, ops.sz
    for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
    s = sys.s
    eye = np.eye(sys.dim)
    s_squared = sx @ sx + sy @ sy + sz @ sz
    assert np.max(np.abs(s_squared - s * (s + 1) * eye)) < 1e-12


def test_state_norm_is_verified():
    with pytest.raises(InvariantError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(InvariantError):  # a NaN norm fails too
        StateVector(np.array([1.0, math.nan]))


def test_coherent_state_poles():
    sys = make_spin_system(3)
    top = coherent_state(sys, 0.0, 0.0)
    assert top.probabilities()[sys.dim - 1] == pytest.approx(1.0, abs=1e-15)
    bottom = coherent_state(sys, math.pi, 0.0)
    assert bottom.probabilities()[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("two_s", [3, 63, 1023])
def test_coherent_magnitudes_at_the_poles_are_exact_basis_vectors(two_s):
    half_log_binom = _half_log_binomials(two_s)
    for theta, k in [(0.0, 0), (math.pi, two_s)]:  # cos(pi/2) is not 0.0 in floating point
        expected = np.zeros(two_s + 1)
        expected[k] = 1.0
        assert np.array_equal(_coherent_magnitudes(theta, half_log_binom), expected)


def test_equatorial_state_is_binomial():
    sys = make_spin_system(3)
    state = coherent_state(sys, math.pi / 2, 0.0)
    expected = np.array([math.sqrt(math.comb(sys.two_s, k)) / 2**sys.s for k in range(sys.dim)])
    # the k-th expansion term lands on qudit index N-1-k; binomial symmetry
    # makes the distribution identical in either indexing
    assert np.max(np.abs(state.amps - expected[::-1])) < 1e-12


def test_coherent_state_norm_grid():
    sys = make_spin_system(4)
    for theta in np.linspace(0.0, math.pi, 5):
        for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
            state = coherent_state(sys, float(theta), float(phi))
            assert abs(np.sum(state.probabilities()) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_coherent_state_matches_exponentiated_rotation(n):
    # oracle: rotate |s> with exp(-i phi Sz) exp(-i theta Sy); the closed form
    # must match up to a global phase
    sys = make_spin_system(n)
    ops = spin_operators(sys)
    top = basis_state(sys.dim, sys.dim - 1).amps
    for theta, phi in [(0.7, 0.0), (math.pi / 2, 1.3), (2.1, 4.0)]:
        rotated = expi_hermitian(ops.sz, -phi) @ (
            expi_hermitian(ops.sy, -theta) @ top
        )
        closed = coherent_state(sys, theta, phi)
        assert abs(abs(np.vdot(rotated, closed.amps)) - 1.0) < 1e-10


def test_coherent_state_domain_guard():
    sys = make_spin_system(2)
    with pytest.raises(ConfigError):
        coherent_state(sys, -0.1, 0.0)
    with pytest.raises(ConfigError):
        coherent_state(sys, 1.0, 2 * math.pi)


def test_uncertainty_triplet_equatorial():
    sys = make_spin_system(4)
    ops = spin_operators(sys)
    state = coherent_state(sys, math.pi / 2, 0.0)
    var_z, mean_x = variance(ops.sz, state), expectation(ops.sx, state)
    assert var_z == pytest.approx(sys.s / 2, abs=1e-9)
    assert mean_x == pytest.approx(sys.s, abs=1e-9)
    # brute-force oracle for the binomial Sz variance
    probs = np.array([math.comb(sys.two_s, k) / 2**sys.two_s for k in range(sys.dim)])
    m = sys.m_values()
    brute = float(np.dot(m * m, probs[::-1]) - np.dot(m, probs[::-1]) ** 2)
    assert var_z == pytest.approx(brute, abs=1e-12)


def test_uncertainty_triplet_ground_state():
    sys = make_spin_system(3)
    ops = spin_operators(sys)
    ground = basis_state(sys.dim, 0)
    var_x, var_y = variance(ops.sx, ground), variance(ops.sy, ground)
    mean_z = expectation(ops.sz, ground)
    assert var_x * var_y == pytest.approx((sys.s / 2) ** 2, abs=1e-9)
    assert mean_z == pytest.approx(-sys.s, abs=1e-12)


def test_uncertainty_relation_holds_on_random_states():
    sys = make_spin_system(4)
    ops = spin_operators(sys)
    rng = np.random.default_rng(42)
    triples = [(ops.sx, ops.sy, ops.sz), (ops.sy, ops.sz, ops.sx), (ops.sz, ops.sx, ops.sy)]
    for _ in range(20):
        raw = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
        state = StateVector(raw / np.linalg.norm(raw))
        for op_i, op_j, op_k in triples:
            var_i, var_j = variance(op_i, state), variance(op_j, state)
            mean_k = expectation(op_k, state)
            assert var_i * var_j >= mean_k**2 / 4 - 1e-10
