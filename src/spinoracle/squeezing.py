"""Two-axis counter-twisting squeezing of the equatorial coherent state.

The squeeze operator is U(mu) = exp(-i pi/4 Sx) exp(i mu (Sz^2 - Sy^2));
the twist redistributes uncertainty between the two axes rotated 45 degrees
from y and z, and the leading rotation about x brings the reduced quadrature
onto z.  (With standard su(2) matrices the opposite rotation handedness
would rotate the anti-squeezed quadrature onto z instead; distributions are
insensitive to flipping both signs at once.)  Applied to the equatorial
coherent state |pi/2, 0> this reduces the Sz variance ("reduced variance"
V_-) at the expense of Sy.

The optimal squeezing parameter is the mu at which the two central basis
states carry the largest possible weight, i.e. the best preparation of the
two-component superposition the decision circuit consumes.  At that point
the components immediately adjacent to the central pair vanish identically,
and mu sits a shade past the raw variance minimum on the same basin (the
two coincide exactly at s = 3/2, where squeezing is perfect:
mu = pi/(6 sqrt(3)), V_- = 1/4, weights {0, 1/2, 1/2, 0}).  For larger s
the reduced variance at the optimum rises toward the Heisenberg limit 1/2
and the central pair keeps all but a constant ~3% of the weight.

The tail weight is bounded by an 8-point template distribution

    {.., 0, eps/3, 2 eps/3, 0, 1/2 - eps, 1/2 - eps, 0, 2 eps/3, eps/3, 0, ..}

whose variance is 1/4 + 16 eps; setting it to the limiting value 1/2 gives
eps = 1/64 exactly, i.e. each central component holds at least
1/2 - eps = 31/64 ~ 0.484 of the probability.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, Frozen, InvariantError, NumericsError, ResourceLimitError
from .spin_core import SpinSystem, StateVector, _expect, _ladder_coefficients, coherent_state

MIRROR_TOL = 1e-9  # central-pair / mirror-symmetry slack, sized for N=1024 round-off
_SPECTRUM_TOL = 1e-12  # Sx spectrum slack per unit s; measured at most 4.5e-16 for N <= 1024
_DENSE_DIM_LIMIT = 1024  # largest s swept is (1024-1)/2
_SCAN_POINTS = 65
_WIDEN_RETRIES = 3

_INV_PHI = (math.sqrt(5) - 1) / 2


class SqueezeResult(Frozen):
    """Optimally squeezed state; its probability distribution is mirror-symmetric.

    distribution holds the state's basis-state probabilities, read-only.
    """

    __slots__ = ("mu", "state", "v_minus", "distribution")

    def __init__(self, mu: float, state: StateVector, v_minus: float):
        super().__init__(mu, state, v_minus, state.probabilities())

    def _check(self):
        dist = self.distribution
        mirror_dev = float(np.max(np.abs(dist - dist[::-1])))
        if not mirror_dev < MIRROR_TOL:  # NaN fails too
            raise InvariantError(f"distribution not mirror-symmetric: dev={mirror_dev:.3e}")


class BoundingDistribution(Frozen):
    """Tail-bounding template pinned by Var = 1/2; eps and pc are exact."""

    __slots__ = ("epsilon", "pc")

    def template(self, dim: int) -> list[Fraction]:
        """The length-dim template distribution (needs dim >= 8)."""
        if dim < 8 or dim % 2:
            raise ConfigError(f"template needs even dim >= 8, got {dim}")
        return _template(dim, self.epsilon)


def _template(dim: int, eps: Fraction) -> list[Fraction]:
    half = dim // 2
    p = [Fraction(0)] * dim
    p[half - 1] = p[half] = Fraction(1, 2) - eps
    p[half - 3] = p[half + 2] = 2 * eps / 3
    p[half - 4] = p[half + 3] = eps / 3
    return p


def bounding_epsilon() -> BoundingDistribution:
    """Solve Var[template] = 1/2 for eps in exact rational arithmetic.

    The variance is affine in eps, so two exact evaluations pin the line.
    """
    base = distribution_variance(_template(8, Fraction(0)))
    slope = distribution_variance(_template(8, Fraction(1))) - base
    eps = (Fraction(1, 2) - base) / slope
    return BoundingDistribution(epsilon=eps, pc=Fraction(1, 2) - eps)


def twist_generator(sys: SpinSystem) -> np.ndarray:
    """The real symmetric counter-twisting generator Sz^2 - Sy^2.

    Built from the ladder coefficients c_i: the diagonal is
    (3 m^2 - s(s+1)) / 2 and the only other entries are c_i c_(i+1) / 4 at
    (i, i+2) and (i+2, i), so even and odd qudit indices never mix.
    """
    s = sys.s
    m = sys.m_values()
    c = _ladder_coefficients(sys)
    gen = np.diag((3 * m * m - s * (s + 1)) / 2)
    i = np.arange(sys.dim - 2)
    gen[i, i + 2] = gen[i + 2, i] = c[:-1] * c[1:] / 4
    return gen


def reduced_variance(state: StateVector, sys: SpinSystem) -> float:
    """V_- = <Sz^2> - <Sz>^2 of a state of the spin system ``sys``.

    For squeezed equatorial states the first moment vanishes, so this equals
    <Sz^2> directly.  Sz is diagonal with m = i - s, so V_- is the variance of
    the state's basis-state distribution, where the shift by s drops out.
    """
    _expect(state, StateVector, "state")
    _expect(sys, SpinSystem, "spin system")
    if state.dim != sys.dim:
        raise ConfigError(f"state of dimension {state.dim} is not one of N = {sys.dim}")
    return distribution_variance(state.probabilities())


def distribution_variance(dist) -> float | Fraction:
    """Var over the qudit index: sum i^2 P_i - (sum i P_i)^2.

    Exact for Fraction-valued distributions; float inputs are evaluated
    about the centre index for stability.
    """
    seq = list(dist)
    total = sum(seq)
    if isinstance(total, Fraction):
        if total != 1:
            raise ConfigError(f"distribution must sum to 1, got {total}")
        mean = sum(Fraction(i) * p for i, p in enumerate(seq))
        second = sum(Fraction(i) ** 2 * p for i, p in enumerate(seq))
        return second - mean * mean
    p = np.asarray(seq, dtype=float)
    if not abs(float(p.sum()) - 1.0) <= 1e-6:  # NaN fails too
        raise ConfigError(f"distribution must sum to 1, got {p.sum()!r}")
    centred = np.arange(len(p)) - (len(p) - 1) / 2
    mean = float(np.dot(centred, p))
    return float(np.dot(centred * centred, p)) - mean * mean


def central_probability(dist) -> float:
    """Weight of the central pair: P[N/2-1], after checking the pair is tied."""
    p = np.asarray(dist, dtype=float)
    n = len(p)
    if n % 2:
        raise ConfigError(f"central pair needs even length, got {n}")
    left, right = float(p[n // 2 - 1]), float(p[n // 2])
    if not abs(left - right) < MIRROR_TOL:  # NaN fails too
        raise InvariantError(f"central pair asymmetric: {left!r} vs {right!r}")
    return left


def ideal_overlap(state: StateVector) -> float:
    """|<Psi0|state>|^2 against the two-component target (|N/2-1> + |N/2>)/sqrt(2)."""
    _expect(state, StateVector, "state")
    n = state.dim
    amp = (state.amps[n // 2 - 1] + state.amps[n // 2]) / math.sqrt(2)
    return float(abs(amp) ** 2)


def _factorized(decompose, a: np.ndarray, what: str, dim: int):
    try:
        return decompose(a)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"{what} decomposition failed at dim={dim}: {exc}") from exc


def _check_sx_spectrum(sigma: np.ndarray, sys: SpinSystem):
    """The singular values of Sx's even-odd block must be its positive eigenvalues 1/2, .., s."""
    dev = float(np.max(np.abs(np.sort(sigma) - (np.arange(sys.dim // 2) + 0.5))))
    if not dev <= _SPECTRUM_TOL * sys.s:
        raise NumericsError(f"Sx spectrum off by {dev:.3e} at dim={sys.dim}")


def _real_dot(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for real a and complex z, as two real products."""
    return a @ z.real + 1j * (a @ z.imag)


class _SqueezeFactorization:
    """Real factorizations of both generators of U(mu), shared by every caller.

    Sz^2 - Sy^2 is block diagonal over the parity of the qudit index: one
    real tridiagonal block on the even and one on the odd indices.  Sx only
    couples even to odd indices, through a real bidiagonal block B.  The
    mirror i -> N-1-i swaps even and odd indices and leaves both generators
    unchanged, so with J the reversal of a half-length index, the odd twist
    block is J E J for the even block E = V diag(w) V^T, and B = J B^T J.
    One eigh of E therefore gives both eigensystems, (w, V) and (w, J V).
    B J is symmetric, and its eigh B J = W diag(lam) W^T gives
    B = P diag(sigma) Q^T with P = W, sigma = |lam| and Q = J W sign(lam);
    sigma must be the positive eigenvalues 1/2, 3/2, .., s of Sx.  Then
    R = exp(-i pi/4 Sx) maps (even, odd) parts (a, b) to

        (P (C P^T a - i S Q^T b),  Q (C Q^T b - i S P^T a)),

    with C = cos(pi/4 sigma) and S = sin(pi/4 sigma).  U(mu) = R V
    diag(e^(i mu w)) V^T.  The mu search reads only the central pair, so
    only rows N/2-1 and N/2 of R V are kept; whole states are built by
    matrix-vector products.
    """

    def __init__(self, sys: SpinSystem):
        gen = twist_generator(sys)
        w, v = _factorized(np.linalg.eigh, gen[0::2, 0::2], "twist generator", sys.dim)
        self.blocks = [(w, v), (w, v[::-1])]
        c = _ladder_coefficients(sys) / 2
        coupling = np.diag(c[0::2]) + np.diag(c[1::2], -1)  # Sx[even, odd]
        lam, self.rot_p = _factorized(np.linalg.eigh, coupling[:, ::-1], "Sx", sys.dim)
        sigma = np.abs(lam)
        _check_sx_spectrum(sigma, sys)
        self.rot_q = self.rot_p[::-1] * np.sign(lam)
        self.rot_cos = np.cos(math.pi / 4 * sigma)[:, None]
        self.rot_sin = np.sin(math.pi / 4 * sigma)[:, None]
        self.psi = coherent_state(sys, math.pi / 2, 0.0).amps[:, None]
        self.eigvals = np.concatenate([w for w, _ in self.blocks])
        self.coeffs = self._twist_coords(self.psi)[:, 0]
        half = sys.dim // 2
        pair = np.zeros((sys.dim, 2))
        pair[half - 1, 0] = pair[half, 1] = 1.0
        # R is symmetric, so its central columns are its central rows
        self.central = self._twist_coords(self._rotate(pair)).T

    def _twist_coords(self, x: np.ndarray) -> np.ndarray:
        """V^T x, with the eigenvalue order of self.eigvals."""
        return np.concatenate(
            [_real_dot(v.T, x[p::2]) for p, (_, v) in enumerate(self.blocks)]
        )

    def _rotate(self, x: np.ndarray) -> np.ndarray:
        """R x = exp(-i pi/4 Sx) x."""
        a = _real_dot(self.rot_p.T, x[0::2])
        b = _real_dot(self.rot_q.T, x[1::2])
        out = np.empty(x.shape, dtype=complex)
        out[0::2] = _real_dot(self.rot_p, self.rot_cos * a - 1j * self.rot_sin * b)
        out[1::2] = _real_dot(self.rot_q, self.rot_cos * b - 1j * self.rot_sin * a)
        return out

    def apply(self, mu: float, x: np.ndarray) -> np.ndarray:
        """U(mu) x for an N x k matrix x, with real matrix products only."""
        y = np.empty(x.shape, dtype=complex)
        for p, (w, v) in enumerate(self.blocks):
            y[p::2] = _real_dot(v, np.exp(1j * mu * w)[:, None] * _real_dot(v.T, x[p::2]))
        return self._rotate(y)

    def state_at(self, mu: float) -> StateVector:
        return StateVector(self.apply(mu, self.psi)[:, 0])

    def tail_weight(self, mu: float) -> float:
        """Probability outside the central pair; 1 - 2 p_c by mirror symmetry."""
        pair = self.central @ (np.exp(1j * mu * self.eigvals) * self.coeffs)
        return 1.0 - float(np.sum(np.abs(pair) ** 2))


@lru_cache(maxsize=None)
def _propagator(sys: SpinSystem) -> _SqueezeFactorization:
    return _SqueezeFactorization(sys)


def _guard_dense(sys: SpinSystem):
    if sys.dim > _DENSE_DIM_LIMIT:
        raise ResourceLimitError(
            f"dense squeezing ops capped at N={_DENSE_DIM_LIMIT}, got N={sys.dim}"
        )


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Shrink [lo, hi] around a minimum of f until it is narrower than tol.

    Raises NumericsError, with the (x, f(x)) samples, when a step leaves the
    bracket as wide as before: it has reached float spacing above tol.
    """
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    trace = [(x1, f1), (x2, f2)]
    while hi - lo > tol:
        width = hi - lo
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
            trace.append((x1, f1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
            trace.append((x2, f2))
        if not hi - lo < width:
            raise NumericsError(
                f"golden section stalled at bracket width {width:.3g} above tol {tol:.3g}",
                trace=trace,
            )
    return (lo + hi) / 2


def _minimize_scanned(f, hi: float, tol: float) -> float:
    """Scan [0, hi] for interior basins of f, golden-refine each, pick the best.

    Widens the bracket when the only descent runs off the upper edge.  Exact
    ties between refined basins (the twist dynamics is periodic at small s)
    resolve to the smallest mu, i.e. the basin around the weakest twist.
    """
    for _ in range(_WIDEN_RETRIES + 1):
        xs = np.linspace(0.0, hi, _SCAN_POINTS)
        vals = [f(x) for x in xs]
        basins = [
            k
            for k in range(1, _SCAN_POINTS - 1)
            if vals[k] < vals[k - 1] and vals[k] <= vals[k + 1]
        ]
        if basins:
            break
        hi *= 2.0  # descent runs off the edge: bracket too narrow
    else:
        raise NumericsError(
            f"no interior minimum found up to mu={hi:.4g}",
            trace=list(zip(xs.tolist(), vals)),
        )
    candidates = []
    for k in basins:
        mu = _golden_section(f, xs[k - 1], xs[k + 1], tol)
        candidates.append((mu, f(mu)))
    best_val = min(v for _, v in candidates)
    return min(mu for mu, v in candidates if v <= best_val + 1e-12)


def optimize_mu(sys: SpinSystem, tol: float = 1e-8) -> SqueezeResult:
    """Find the optimal squeezing parameter for the equatorial state.

    Minimizes the weight outside the central basis-state pair (equivalently,
    maximizes the fidelity with the two-component target) over the bracket
    [0, 4/s], scanning for basins and refining with golden section until the
    bracket is narrower than tol.  At the optimum the adjacent components
    vanish; the reduced variance there is 1/4 at s = 3/2 and rises toward
    1/2 for large s.
    """
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tol}")
    _expect(sys, SpinSystem, "spin system")
    _guard_dense(sys)
    prop = _propagator(sys)
    # mu is a builtin float, as SqueezeResult declares, not the np.float64
    # of the scan grid
    mu_opt = float(_minimize_scanned(prop.tail_weight, 4.0 / sys.s, tol))
    state = prop.state_at(mu_opt)
    return SqueezeResult(mu=mu_opt, state=state, v_minus=reduced_variance(state, sys))


def sweep_row(sys: SpinSystem, res: SqueezeResult) -> dict:
    """The sweep row (s, mu_opt, v_min, p_c, overlap) of an optimized result."""
    _expect(sys, SpinSystem, "spin system")
    _expect(res, SqueezeResult, "squeeze result")
    return {
        "s": sys.s,
        "mu_opt": res.mu,
        "v_min": res.v_minus,
        "p_c": central_probability(res.distribution),
        "overlap": ideal_overlap(res.state),
    }
