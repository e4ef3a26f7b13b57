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
from .spin_core import NORM_TOL, SpinSystem, StateVector, _expect, coherent_state
from .spin_core import _ladder_coefficients

MIRROR_TOL = 1e-9  # central-pair / mirror-symmetry slack, sized for N=1024 round-off
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
    try:
        seq = list(dist)
        total = sum(seq)
    except TypeError:
        raise ConfigError(f"distribution must be a sequence of numbers, got {dist!r}") from None
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
    try:
        p = np.asarray(dist, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"distribution must be a sequence of numbers, got {dist!r}") from None
    if p.ndim != 1 or len(p) % 2:
        raise ConfigError(f"central pair needs a 1-D distribution of even length, got {p.shape}")
    left, right = float(p[len(p) // 2 - 1]), float(p[len(p) // 2])
    if not abs(left - right) < MIRROR_TOL:  # NaN fails too
        raise InvariantError(f"central pair asymmetric: {left!r} vs {right!r}")
    return left


def ideal_overlap(state: StateVector) -> float:
    """|<Psi0|state>|^2 against the two-component target (|N/2-1> + |N/2>)/sqrt(2)."""
    _expect(state, StateVector, "state")
    n = state.dim
    amp = (state.amps[n // 2 - 1] + state.amps[n // 2]) / math.sqrt(2)
    return float(abs(amp) ** 2)


def _real_dot(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for real a and complex z, as two real products."""
    return a @ z.real + 1j * (a @ z.imag)


def _bessel_series(a: float) -> np.ndarray:
    """J_0(a) .. J_K(a) for a >= 1, by Miller's backward recurrence.

    The recurrence runs down from an index far past a and is normalized by
    J_0^2 + 2 sum J_k^2 = 1.  K is the least cut-off with sum_(k>K) 2|J_k(a)|
    below 1e-16, which bounds the truncation error of the Chebyshev series
    of exp(-iaX) for any X with its spectrum in [-1, 1].
    """
    top = int(a + 20 * a ** (1 / 3) + 40)
    j = [0.0] * top + [1.0, 0.0]
    for k in range(top, 0, -1):
        j[k - 1] = 2 * k / a * j[k] - j[k + 1]
    j = np.array(j[:-1]) / math.sqrt(math.fsum([j[0] ** 2] + [2 * x * x for x in j[1:]]))
    tails = 2 * np.cumsum(np.abs(j[::-1]))[::-1]  # tails[k] = sum_(i>=k) 2|J_i|
    return j[: int(np.argmax(tails < 1e-16))]


class _SqueezeFactorization:
    """The twist's real factorization and the rotation of U(mu), shared by every caller.

    Sz^2 - Sy^2 is block diagonal over the parity of the qudit index, and
    the mirror i -> N-1-i swaps even and odd indices and leaves it
    unchanged.  So with J the reversal of a half-length index, the odd block
    is J E J for the even block E = V diag(w) V^T, and one eigh of E gives
    both eigensystems, (w, V) and (w, J V).  U(mu) = R V diag(e^(i mu w)) V^T
    with R = exp(-iaX), a = pi s/4 and X = Sx/s, real tridiagonal with its
    spectrum exactly [-1, 1].  R is the Chebyshev series (Tal-Ezer and
    Kosloff) sum_k (2 - [k=0]) (-i)^k J_k(a) T_k(X): even k give cos(aX),
    odd k sin(aX).  The mu search reads only the central pair, so only rows
    N/2-1 and N/2 of R V are kept.
    """

    def __init__(self, sys: SpinSystem):
        try:
            w, v = np.linalg.eigh(twist_generator(sys)[0::2, 0::2])
        except np.linalg.LinAlgError as exc:
            msg = f"twist generator decomposition failed at dim={sys.dim}: {exc}"
            raise NumericsError(msg) from exc
        self.blocks = [(w, v), (w, v[::-1])]
        self.step = _ladder_coefficients(sys)[:, None] / sys.s  # 2X, off the diagonal
        j = _bessel_series(math.pi / 4 * sys.s)
        self.series = j * [(2 - (k == 0)) * (-1) ** (k // 2) for k in range(len(j))]
        self.psi = coherent_state(sys, math.pi / 2, 0.0).amps[:, None]
        self.eigvals = np.concatenate([w for w, _ in self.blocks])
        self.coeffs = self._twist_coords(self.psi)[:, 0]
        cos, sin = self._cos_sin(np.eye(sys.dim, 1, 1 - sys.dim // 2))  # R e_(N/2-1)
        column = cos[:, 0] - 1j * sin[:, 0]
        dev = abs(float(np.sum(np.abs(column) ** 2)) - 1.0)
        if not dev <= NORM_TOL:  # NaN fails too
            raise NumericsError(f"exp(-i pi/4 Sx) off unit norm by {dev:.3e} at dim={sys.dim}")
        # R is symmetric and commutes with the mirror, so its central rows
        # are its central columns, R e_(N/2-1) and that column reversed
        self.central = self._twist_coords(np.stack([column, column[::-1]], axis=1)).T

    def _twist_coords(self, x: np.ndarray) -> np.ndarray:
        """V^T x, with the eigenvalue order of self.eigvals."""
        return np.concatenate(
            [_real_dot(v.T, x[p::2]) for p, (_, v) in enumerate(self.blocks)]
        )

    def _next(self, cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """2X cur - prev for real N x k matrices, written over prev."""
        prev *= -1
        prev[:-1] += self.step * cur[1:]
        prev[1:] += self.step * cur[:-1]
        return prev

    def _cos_sin(self, x: np.ndarray) -> list[np.ndarray]:
        """[cos(aX) x, sin(aX) x] for a real N x k matrix x, by T_(k+1) = 2X T_k - T_(k-1)."""
        prev, cur = x.copy(), self._next(x, np.zeros_like(x)) / 2
        parts = [self.series[0] * x, self.series[1] * cur]
        for k in range(2, len(self.series)):
            prev, cur = cur, self._next(cur, prev)
            parts[k % 2] += self.series[k] * cur
        return parts

    def _rotate(self, x: np.ndarray) -> np.ndarray:
        """R x = cos(aX) x - i sin(aX) x, on the real and imaginary columns of x."""
        m = x.shape[1]
        cos, sin = self._cos_sin(np.hstack([x.real, x.imag]))
        return cos[:, :m] + sin[:, m:] + 1j * (cos[:, m:] - sin[:, :m])

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
