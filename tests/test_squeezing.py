"""Squeeze operator, variance/centre measures, and the mu optimization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from references import basis_state, fraction_template, fraction_variance, template_epsilon
from spinoracle import (
    ConfigError,
    InvariantError,
    SqueezeResult,
    StateVector,
    central_probability,
    coherent_state,
    expi_hermitian,
    ideal_overlap,
    make_spin_system,
    optimize_mu,
    reduced_variance,
    spin_operators,
    sweep_row,
    tail_template,
)
from spinoracle.spin_core import _ladder_coefficients
from spinoracle.squeezing import _bessel_series, _propagator, twist_generator

MU_STAR = math.pi / (6 * math.sqrt(3))

SWEEP_EXPONENTS = (2, 3, 4, 5, 6, 7, 8, 9)  # s = 3/2 .. 511/2


def series_rotation(sys):
    """Q = exp(-i pi/2 Sy) as a dense matrix from the library's series: its odd
    columns, and its even ones by the mirror, Q e_(2j) = P J Q e_(N-1-2j) with
    P = diag((-1)^i) and J the reversal (P J commutes with Sy)."""
    q = np.empty((sys.dim, sys.dim))
    q[:, 1::2] = _propagator(sys).rotate(np.eye(sys.dim // 2)).T
    sign = 1 - 2 * (np.arange(sys.dim) % 2)
    q[:, 0::2] = sign[:, None] * q[::-1, 1::2][:, ::-1]
    return q


def twist_exponential(sys, mu):
    """exp(i mu Hx) as a dense matrix from the library's chain SVD M = U S W^T:
    [[U cos U^T, i U sin W^T], [i W sin U^T, W cos W^T]] on the chain
    N-1, N-3, .., 1 (its even positions first), and the same on the mirror
    chain 0, 2, .., N-2."""
    prop = _propagator(sys)
    u, w = prop.u, prop.wt.T
    cos, sin = np.cos(mu * prop.sv), np.sin(mu * prop.sv)
    block = np.block([[(u * cos) @ u.T, 1j * (u * sin) @ w.T],
                      [1j * (w * sin) @ u.T, (w * cos) @ w.T]])
    chain = np.concatenate([np.arange(sys.dim - 1, 0, -4), np.arange(sys.dim - 3, 0, -4)])
    out = np.zeros((sys.dim, sys.dim), dtype=complex)
    for idx in (chain, sys.dim - 1 - chain):
        out[np.ix_(idx, idx)] = block
    return out


def squeeze_matrix(sys, mu):
    """U(mu) = Q D exp(i mu Hx) Q^T as a dense matrix, from the library's Q
    series, its diagonal D = exp(-i pi/4 Sz) and its chain factors."""
    q = series_rotation(sys)
    return q @ (_propagator(sys).phases[:, None] * twist_exponential(sys, mu)) @ q.T


def real_sx(sys):
    """Sx as a dense real matrix, from the ladder coefficients."""
    c = _ladder_coefficients(sys) / 2
    return np.diag(c, 1) + np.diag(c, -1)


def twist_in_sx_basis(sys):
    """Hx = (S+^2 + S-^2)/2: only c_i c_(i+1)/2 at (i, i+2) and (i+2, i)."""
    c = _ladder_coefficients(sys)
    return np.diag(c[:-1] * c[1:] / 2, 2) + np.diag(c[:-1] * c[1:] / 2, -2)


def odd_block(sys):
    """Inputs to the series: the identity on the odd indices up to N = 256, else
    four random unit rows (the series takes rows along their last axis)."""
    half = sys.dim // 2
    if sys.n <= 8:
        return np.eye(half)
    x = np.random.default_rng(sys.n).normal(size=(4, half))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def sx_even_odd(sys):
    """Sx[even, odd]: the real bidiagonal block that couples the two parities."""
    c = _ladder_coefficients(sys) / 2
    return np.diag(c[0::2]) + np.diag(c[1::2], -1)


def svd_rotation(sys):
    """x -> exp(-i pi/4 Sx) x for an N x k matrix x, by an SVD of B = Sx[even, odd].

    With B = P diag(sigma) Q^T, the rotation maps the (even, odd) parts (a, b)
    to (P (C P^T a - i S Q^T b), Q (C Q^T b - i S P^T a)), where
    C = cos(pi/4 sigma) and S = sin(pi/4 sigma).
    """
    rot_p, sigma, rot_qt = np.linalg.svd(sx_even_odd(sys))
    cos, sin = np.cos(math.pi / 4 * sigma)[:, None], np.sin(math.pi / 4 * sigma)[:, None]

    def rotate(x):
        a, b = rot_p.T @ x[0::2], rot_qt @ x[1::2]
        out = np.empty(x.shape, dtype=complex)
        out[0::2] = rot_p @ (cos * a - 1j * sin * b)
        out[1::2] = rot_qt.T @ (cos * b - 1j * sin * a)
        return out

    return rotate


def svd_sy_rotation(sys):
    """x -> Q y for the y that holds x on the odd indices, by an SVD of K = A[even, odd].

    Q = exp(theta A) with A = (S+ - S-)/2 = i Sy and theta = -pi/2.  With
    K = P diag(sigma) V^T, exp(theta A) maps an odd part b to the even part
    P sin(theta sigma) V^T b and the odd part V cos(theta sigma) V^T b.
    """
    c = _ladder_coefficients(sys) / 2
    rot_p, sigma, rot_vt = np.linalg.svd(-np.diag(c[0::2]) + np.diag(c[1::2], -1))
    theta = -math.pi / 2

    def rotate(x):
        b = x @ rot_vt.T
        out = np.empty((*x.shape[:-1], sys.dim), dtype=x.dtype)
        out[..., 0::2] = (b * np.sin(theta * sigma)) @ rot_p.T
        out[..., 1::2] = (b * np.cos(theta * sigma)) @ rot_vt
        return out

    return rotate


def svd_route(sys):
    """psi -> U(mu) psi by the SVD route: an eigh per parity block and an SVD of B.

    It uses no mirror identity and no series, so it is the reference at sizes
    past the dense tests.
    """
    gen = twist_generator(sys)
    blocks = [np.linalg.eigh(gen[p::2, p::2]) for p in (0, 1)]
    rotate = svd_rotation(sys)
    psi = coherent_state(sys, math.pi / 2, 0.0).amps

    def state(mu):
        y = np.empty(sys.dim, dtype=complex)
        for p, (w, v) in enumerate(blocks):
            y[p::2] = v @ (np.exp(1j * mu * w) * (v.T @ psi[p::2]))
        return rotate(y[:, None])[:, 0]

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
    # the Chebyshev series of Q = exp(-i pi/2 Sy), which takes Sz to Sx,
    # against Q built from a factorization of Sy: the dense complex eigh up
    # to N = 256, the SVD of A[even, odd] beyond
    sys = make_spin_system(n)
    prop = _propagator(sys)
    half = sys.dim // 2
    if n <= 8:
        q = expi_hermitian(spin_operators(sys).sy, -math.pi / 2)
        assert np.max(np.abs(series_rotation(sys) - q)) < 1e-12  # the mirror columns too
        rotate = lambda x: x @ q[:, 1::2].T
    else:
        rotate = svd_sy_rotation(sys)
    central = np.eye(half)[[half - 1, 0]]  # e_(N-1) and e_1
    rng = np.random.default_rng(n)
    block = rng.normal(size=(2, half)) + 1j * rng.normal(size=(2, half))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    for x in (central, block):
        assert np.max(np.abs(prop.rotate(x) - rotate(x))) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_series_rotation_is_orthogonal(n):
    sys = make_spin_system(n)
    x = odd_block(sys)
    y = _propagator(sys).rotate(x)
    assert np.max(np.abs(y @ y.T - x @ x.T)) < 1e-12
    if n <= 8:
        q = series_rotation(sys)
        assert np.max(np.abs(q.T @ q - np.eye(sys.dim))) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_series_rotation_takes_sz_to_sx(n):
    # Q e_(N-1) = psi, the equatorial coherent state, and Q^T Sx Q = Sz: each
    # column Q e_i is the Sx eigenvector for m_i, to round-off relative to s
    sys = make_spin_system(n)
    prop = _propagator(sys)
    top = np.eye(sys.dim // 2)[-1]
    psi = coherent_state(sys, math.pi / 2, 0.0).amps
    assert np.max(np.abs(prop.rotate(top) - psi)) < 1e-12
    x, m = odd_block(sys), sys.m_values()
    dev = np.max(np.abs(prop.rotate(x) @ real_sx(sys) - prop.rotate(x * m[1::2])))
    assert dev < 1e-12 * sys.s
    if n <= 8:
        q = series_rotation(sys)
        assert np.max(np.abs(q.T @ real_sx(sys) @ q - np.diag(m))) < 1e-12 * sys.s


@pytest.mark.parametrize("n", range(2, 11))
def test_twist_in_sx_basis_holds_only_offset_two(n):
    # Q^T (Sz^2 - Sy^2) Q = (S+^2 + S-^2)/2, to round-off relative to s^2
    sys = make_spin_system(n)
    prop = _propagator(sys)
    gen, hx = twist_generator(sys), twist_in_sx_basis(sys)
    x = odd_block(sys)
    dev = np.max(np.abs(prop.rotate(x) @ gen - prop.rotate(x @ hx[1::2, 1::2])))
    assert dev < 1e-12 * sys.s**2
    if n <= 8:
        q = series_rotation(sys)
        assert np.max(np.abs(q.T @ gen @ q - hx)) < 1e-12 * sys.s**2


@pytest.mark.parametrize("n", range(2, 11))
def test_chain_svd_matches_dense_eigh_of_twist(n):
    # exp(i mu Hx) e_(N-1) from the chain SVD against a dense eigh of Hx
    sys = make_spin_system(n)
    prop = _propagator(sys)
    w, v = np.linalg.eigh(twist_in_sx_basis(sys))
    for mu in np.linspace(0.0, 4.0 / sys.s, 5):
        ref = v @ (np.exp(1j * mu * w) * v[-1])
        even, odd = prop.chain(mu)
        assert np.max(np.abs(even - ref[::-4])) < 1e-12
        assert np.max(np.abs(odd - ref[-3::-4])) < 1e-12
        assert np.max(np.abs(ref[0::2])) < 1e-12  # nothing reaches the even indices


@pytest.mark.parametrize("n", range(2, 11))
def test_recurrence_rows_are_sx_eigenvectors(n):
    # the mu search's row N/2-1 of Q is the unit Sx eigenvector for +1/2, and
    # with every other sign flipped, row N/2, the one for -1/2: against a
    # dense eigh of Sx, up to sign
    sys = make_spin_system(n)
    row = _propagator(sys).row
    w, v = np.linalg.eigh(real_sx(sys))
    half = sys.dim // 2
    assert np.allclose(w[[half, half - 1]], [0.5, -0.5], rtol=0, atol=1e-12)
    flipped = row * (1 - 2 * (np.arange(sys.dim) % 2))
    for mine, ref in ((row, v[:, half]), (flipped, v[:, half - 1])):
        assert min(np.max(np.abs(mine - ref)), np.max(np.abs(mine + ref))) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_factorization_runs_two_eigh_and_no_svd(n, monkeypatch):
    # one SVD, of the twist chain's N/4 x N/4 bidiagonal, and no eigh: the
    # rotation Q = exp(-i pi/2 Sy) is a series of tridiagonal products and
    # the mu search's rows of Q come from a recurrence
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
    assert calls == {"eigh": 0, "svd": 1}


def test_bessel_series_reference_values():
    assert abs(_bessel_series(1.0)[0] - 0.7651976865579666) < 1e-15
    assert abs(_bessel_series(1.0)[1] - 0.44005058574493355) < 1e-15
    assert abs(_bessel_series(10.0)[5] - -0.2340615281867936) < 1e-15


@pytest.mark.parametrize("n", range(2, 11))
def test_bessel_series_sums_at_every_swept_s(n):
    # a = pi s/4 for every s the sweep visits, s = 3/2 .. 1023/2
    a = math.pi / 4 * make_spin_system(n).s
    j = _bessel_series(a)
    assert abs(j[0] ** 2 + 2 * np.sum(j[1:] ** 2) - 1) < 1e-15
    # at X = 1, T_k(X) = 1, so the series sums to exp(-ia): these sums
    # are the Jacobi-Anger expansions of cos a and sin a
    sign = (-1.0) ** (np.arange(len(j)) // 2)
    assert abs(j[0] + 2 * np.sum((sign * j)[2::2]) - math.cos(a)) < 1e-14
    assert abs(2 * np.sum((sign * j)[1::2]) - math.sin(a)) < 1e-14


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
    assert reduced_variance(pair) == pytest.approx(0.25, abs=1e-12)
    equatorial = coherent_state(sys, math.pi / 2, 0.0)
    assert reduced_variance(equatorial) == pytest.approx(sys.s / 2, abs=1e-9)
    ground = basis_state(sys.dim, 0)
    assert reduced_variance(ground) == pytest.approx(0.0, abs=1e-12)


def test_reduced_variance_is_the_moment_sum_against_m():
    # <Sz^2> - <Sz>^2 summed against m = i - s, bit for bit: the sweep's v_min
    for n in range(2, 11):
        sys = make_spin_system(n)
        for state in (optimize_mu(sys).state, coherent_state(sys, 1.0, 0.5)):
            m, probs = sys.m_values(), state.probabilities()
            mean = float(np.dot(m, probs))
            assert reduced_variance(state) == float(np.dot(m * m, probs)) - mean * mean, n


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
    with pytest.raises(ConfigError):  # the imaginary part is not dropped
        central_probability(np.array([0.5 + 1j, 0.5]))


class _NanState(StateVector):
    """A unit-norm state that reports a NaN among its probabilities, which
    no StateVector's own amplitudes can give."""

    def probabilities(self):
        return np.array([0.0, 0.5, math.nan, 0.0])


def test_a_nan_distribution_is_not_mirror_symmetric():
    with pytest.raises(InvariantError, match="mirror-symmetric"):
        SqueezeResult(0.1, _NanState(np.array([0, 1, 1, 0]) / math.sqrt(2)), 0.3)


def test_tail_template_is_the_exact_template_as_floats():
    eps = template_epsilon()
    assert eps == Fraction(1, 64)
    for dim in (8, 16, 64):
        exact = fraction_template(dim, eps)
        assert sum(exact) == 1
        assert fraction_variance(exact) == Fraction(1, 2)
        template = tail_template(dim)
        assert template == [float(v) for v in exact]
        assert all(type(v) is float for v in template)  # JSON rows read the exact type
    for dim in (4, 9, 8.0, True):
        with pytest.raises(ConfigError):
            tail_template(dim)


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
    row = sweep_row(optimize_mu(sys, 1e-8))
    assert set(row) == {"s", "mu_opt", "v_min", "p_c", "overlap"}
    assert row["s"] == 3.5
    assert 2 * row["p_c"] == pytest.approx(row["overlap"], abs=1e-9)
