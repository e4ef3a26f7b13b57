"""Squeeze operator, variance/centre measures, and the mu optimization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from references import basis_state
from spinoracle import (
    ConfigError,
    InvariantError,
    SqueezeResult,
    StateVector,
    bounding_epsilon,
    central_probability,
    coherent_state,
    distribution_variance,
    expi_hermitian,
    ideal_overlap,
    make_spin_system,
    optimize_mu,
    reduced_variance,
    spin_operators,
    sweep_row,
)
from spinoracle.spin_core import _ladder_coefficients
from spinoracle.squeezing import _propagator, twist_generator

MU_STAR = math.pi / (6 * math.sqrt(3))

SWEEP_EXPONENTS = (2, 3, 4, 5, 6, 7, 8, 9)  # s = 3/2 .. 511/2


def squeeze_matrix(sys, mu):
    """U(mu) as a dense matrix: the structured factorization applied to the identity."""
    return _propagator(sys).apply(mu, np.eye(sys.dim))


def sx_even_odd(sys):
    """Sx[even, odd]: the real bidiagonal block that couples the two parities."""
    c = _ladder_coefficients(sys) / 2
    return np.diag(c[0::2]) + np.diag(c[1::2], -1)


def svd_route(sys):
    """psi -> U(mu) psi by the SVD route: an eigh per parity block and an SVD of B.

    It uses no mirror identity, so it is the reference at sizes past the dense tests.
    """
    gen = twist_generator(sys)
    blocks = [np.linalg.eigh(gen[p::2, p::2]) for p in (0, 1)]
    rot_p, sigma, rot_qt = np.linalg.svd(sx_even_odd(sys))
    cos, sin = np.cos(math.pi / 4 * sigma), np.sin(math.pi / 4 * sigma)
    psi = coherent_state(sys, math.pi / 2, 0.0).amps

    def state(mu):
        y = np.empty(sys.dim, dtype=complex)
        for p, (w, v) in enumerate(blocks):
            y[p::2] = v @ (np.exp(1j * mu * w) * (v.T @ psi[p::2]))
        a, b = rot_p.T @ y[0::2], rot_qt @ y[1::2]
        out = np.empty(sys.dim, dtype=complex)
        out[0::2] = rot_p @ (cos * a - 1j * sin * b)
        out[1::2] = rot_qt.T @ (cos * b - 1j * sin * a)
        return out

    return state


def unitarity_gap(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


def test_zero_mu_is_pure_rotation():
    sys = make_spin_system(3)
    ops = spin_operators(sys)
    u = squeeze_matrix(sys, 0.0)
    rot = expi_hermitian(ops.sx, -math.pi / 4)
    assert np.max(np.abs(u - rot)) < 1e-12
    assert unitarity_gap(u) < 1e-10


def test_perfect_squeezing_at_n4():
    sys = make_spin_system(2)
    u = squeeze_matrix(sys, MU_STAR)
    state = StateVector(u @ coherent_state(sys, math.pi / 2, 0.0).amps)
    assert np.max(np.abs(state.probabilities() - [0.0, 0.5, 0.5, 0.0])) < 1e-9


def test_twist_generator_hermitian():
    for n in (2, 4, 6):
        sys = make_spin_system(n)
        g = twist_generator(sys)
        assert g.dtype == float
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        ops = spin_operators(sys)
        dense = ops.sz @ ops.sz - ops.sy @ ops.sy
        assert np.max(np.abs(g - dense)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_structured_propagator_matches_dense_reference(n):
    # reference: U(mu) from dense complex eigendecompositions of Sx and of
    # Sz^2 - Sy^2 as built from the spin matrices
    sys = make_spin_system(n)
    ops = spin_operators(sys)
    sy, sz = ops.sy, ops.sz
    rot = expi_hermitian(ops.sx, -math.pi / 4)
    twist = sz @ sz - sy @ sy
    psi = coherent_state(sys, math.pi / 2, 0.0).amps
    prop = _propagator(sys)
    half = sys.dim // 2
    for mu in np.linspace(0.0, 4.0 / sys.s, 7):
        ref = np.abs(rot @ (expi_hermitian(twist, mu) @ psi)) ** 2
        assert np.max(np.abs(prop.state_at(mu).probabilities() - ref)) < 1e-12
        assert abs(prop.tail_weight(mu) - (1.0 - ref[half - 1] - ref[half])) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_generators_are_mirror_symmetric(n):
    # the premises of the factorization, bit for bit: with J the reversal of
    # a half-length index, odd twist block = J (even twist block) J, B = J B^T J
    sys = make_spin_system(n)
    gen = twist_generator(sys)
    assert np.array_equal(gen[1::2, 1::2], gen[0::2, 0::2][::-1, ::-1])
    coupling = sx_even_odd(sys)
    assert np.array_equal(coupling, coupling.T[::-1, ::-1])
    if n <= 6:
        assert np.array_equal(coupling, spin_operators(sys).sx[0::2, 1::2].real)


@pytest.mark.parametrize("n", range(2, 11))
def test_rotation_factors_reconstruct_sx(n):
    sys = make_spin_system(n)
    prop = _propagator(sys)
    coupling = sx_even_odd(sys)
    p, q = prop.rot_p, prop.rot_q
    sigma = np.diag(p.T @ coupling @ q)
    eye = np.eye(sys.dim // 2)
    assert np.max(np.abs(q.T @ q - eye)) < 1e-12
    assert np.max(np.abs(p.T @ p - eye)) < 1e-12
    assert np.max(np.abs((p * sigma) @ q.T - coupling)) < 1e-12 * sys.s
    assert np.max(np.abs(np.sort(sigma) - (np.arange(sys.dim // 2) + 0.5))) < 1e-12 * sys.s
    assert np.max(np.abs(prop.rot_cos[:, 0] - np.cos(math.pi / 4 * sigma))) < 1e-12
    assert np.max(np.abs(prop.rot_sin[:, 0] - np.sin(math.pi / 4 * sigma))) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_factorization_runs_two_eigh_and_no_svd(n, monkeypatch):
    calls = {"eigh": 0, "svd": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    _propagator.__wrapped__(make_spin_system(n))
    assert calls == {"eigh": 2, "svd": 0}


@pytest.mark.parametrize("n", [9, 10])
def test_propagator_matches_svd_route(n):
    sys = make_spin_system(n)
    prop = _propagator(sys)
    reference = svd_route(sys)
    half = sys.dim // 2
    for mu in np.linspace(0.0, 4.0 / sys.s, 7):
        ref = np.abs(reference(mu)) ** 2
        assert np.max(np.abs(prop.state_at(mu).probabilities() - ref)) < 1e-12
        assert abs(prop.tail_weight(mu) - (1.0 - ref[half - 1] - ref[half])) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("mu_scale", [0.0, 1.0, 2.0])
def test_squeeze_operator_unitarity(n, mu_scale):
    sys = make_spin_system(n)
    assert unitarity_gap(squeeze_matrix(sys, mu_scale / sys.s)) < 1e-10


def test_reduced_variance_reference_values():
    sys = make_spin_system(2)
    pair = StateVector(np.array([0, 1, 1, 0]) / math.sqrt(2))
    assert reduced_variance(pair, sys) == pytest.approx(0.25, abs=1e-12)
    equatorial = coherent_state(sys, math.pi / 2, 0.0)
    assert reduced_variance(equatorial, sys) == pytest.approx(sys.s / 2, abs=1e-9)
    ground = basis_state(sys.dim, 0)
    assert reduced_variance(ground, sys) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ConfigError):  # a state of another spin system
        reduced_variance(ground, make_spin_system(3))


def test_reduced_variance_is_the_moment_sum_against_m():
    # <Sz^2> - <Sz>^2 summed against m = i - s, bit for bit: the sweep's v_min
    for n in range(2, 11):
        sys = make_spin_system(n)
        for state in (optimize_mu(sys).state, coherent_state(sys, 1.0, 0.5)):
            m, probs = sys.m_values(), state.probabilities()
            mean = float(np.dot(m, probs))
            assert reduced_variance(state, sys) == float(np.dot(m * m, probs)) - mean * mean, n


def test_distribution_variance_reference_values():
    assert distribution_variance([0, 0.5, 0.5, 0]) == pytest.approx(0.25, abs=1e-12)
    point = [0.0] * 8
    point[5] = 1.0
    assert distribution_variance(point) == pytest.approx(0.0, abs=1e-12)
    template = bounding_epsilon().template(8)
    assert distribution_variance(template) == Fraction(1, 2)


def test_distribution_variance_matches_reduced_variance():
    for n in (2, 3, 5):
        sys = make_spin_system(n)
        res = optimize_mu(sys, 1e-8)
        dv = distribution_variance(res.distribution)
        assert dv == pytest.approx(reduced_variance(res.state, sys), abs=1e-9)


def test_distribution_variance_rejects_unnormalized():
    with pytest.raises(ConfigError):
        distribution_variance([0.2, 0.2])
    with pytest.raises(ConfigError):  # a NaN total fails too
        distribution_variance([math.nan, 0.5, 0.5])


def test_optimize_mu_n4_exact_optimum():
    res = optimize_mu(make_spin_system(2), 1e-9)
    assert res.mu == pytest.approx(MU_STAR, abs=1e-6)
    assert res.v_minus == pytest.approx(0.25, abs=1e-9)
    assert np.max(np.abs(res.distribution - [0.0, 0.5, 0.5, 0.0])) < 1e-9


@pytest.mark.parametrize("n", [2, 6])
def test_optimize_mu_returns_a_builtin_float(n):
    # the CLI's JSON rows pick each value's text by its exact type: a
    # numpy.float64 mu would stop squeeze-scan --format json
    assert type(optimize_mu(make_spin_system(n), 1e-8).mu) is float


def test_optimize_mu_n64_bracket_and_scan_oracle():
    sys = make_spin_system(6)
    res = optimize_mu(sys, 1e-8)
    assert 0.25 < res.v_minus < 0.5
    assert 0.5 <= res.mu * sys.s <= 2.0
    # independent coarse-scan oracle: the tail weight has a single interior
    # basin near 1/s and the refined optimum must sit inside it
    from spinoracle.squeezing import _propagator

    prop = _propagator(sys)
    xs = np.linspace(0.0, 4.0 / sys.s, 400)
    tails = [prop.tail_weight(float(x)) for x in xs]
    k = int(np.argmin(tails))
    assert xs[k - 1] <= res.mu <= xs[k + 1]


def test_optimize_mu_rejects_bad_tol():
    with pytest.raises(ConfigError):
        optimize_mu(make_spin_system(2), 0.0)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_optimize_mu_rejects_non_finite_tol(tol):
    # an infinite tol would end the golden-section refinement before its first step
    with pytest.raises(ConfigError):
        optimize_mu(make_spin_system(2), tol)


def test_central_probability():
    assert central_probability([0, 0.5, 0.5, 0]) == pytest.approx(0.5)
    uniform = np.full(16, 1 / 16)
    assert central_probability(uniform) == pytest.approx(1 / 16)
    res = optimize_mu(make_spin_system(7), 1e-8)
    assert 0.484 <= central_probability(res.distribution) <= 0.5
    with pytest.raises(InvariantError):
        central_probability([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ConfigError):
        central_probability([0.5, 0.25, 0.25])
    with pytest.raises(InvariantError):  # a NaN side of the pair fails too
        central_probability([0.25, math.nan, 0.5, 0.25])


class _NanState:
    """Stands in for a state whose probabilities hold a NaN; a StateVector rejects one."""

    def probabilities(self):
        return np.array([0.0, 0.5, math.nan, 0.0])


def test_a_nan_distribution_is_not_mirror_symmetric():
    with pytest.raises(InvariantError, match="mirror-symmetric"):
        SqueezeResult(0.1, _NanState(), 0.3)


def test_bounding_epsilon_exact():
    bound = bounding_epsilon()
    assert bound.epsilon == Fraction(1, 64)
    assert bound.pc == Fraction(31, 64)
    assert float(bound.pc) == 0.484375
    for dim in (8, 16, 64):
        template = bound.template(dim)
        assert sum(template) == 1
        assert distribution_variance(template) == Fraction(1, 2)
    with pytest.raises(ConfigError):
        bound.template(4)


def test_ideal_overlap():
    target = np.zeros(8)
    target[3] = target[4] = 1 / math.sqrt(2)
    assert ideal_overlap(StateVector(target)) == pytest.approx(1.0, abs=1e-12)
    res4 = optimize_mu(make_spin_system(2), 1e-9)
    assert ideal_overlap(res4.state) == pytest.approx(1.0, abs=1e-9)
    res64 = optimize_mu(make_spin_system(6), 1e-8)
    assert ideal_overlap(res64.state) >= 0.968


def test_sweep_trends():
    points = []
    for n in SWEEP_EXPONENTS[:5]:  # s = 3/2 .. 63/2 keeps the unit test quick
        sys = make_spin_system(n)
        res = optimize_mu(sys, 1e-8)
        points.append((sys, res))
    v = [res.v_minus for _, res in points]
    assert all(b >= a - 1e-6 for a, b in zip(v, v[1:]))
    assert all(x < 0.5 for x in v)
    for sys, res in points[1:]:
        assert 0.484 <= central_probability(res.distribution) <= 0.5
        half = sys.dim // 2
        assert res.distribution[half + 1] == pytest.approx(res.distribution[half - 2], abs=1e-9)
        assert res.distribution[half - 2] < 1e-3
    # mirror symmetry is validated on construction; double-check here
    for _, res in points:
        assert np.max(np.abs(res.distribution - res.distribution[::-1])) < 1e-9


def test_sweep_point_fields():
    sys = make_spin_system(3)
    row = sweep_row(sys, optimize_mu(sys, 1e-8))
    assert set(row) == {"s", "mu_opt", "v_min", "p_c", "overlap"}
    assert row["s"] == 3.5
    assert 2 * row["p_c"] == pytest.approx(row["overlap"], abs=1e-9)
