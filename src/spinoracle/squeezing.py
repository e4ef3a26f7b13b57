"""Two-axis counter-twisting squeezing of the equatorial coherent state.

The squeeze operator is U(mu) = exp(-i pi/4 Sx) exp(i mu (Sz^2 - Sy^2));
the twist redistributes uncertainty between the two axes rotated 45 degrees
from y and z, and the leading rotation about x brings the reduced quadrature
onto z.  (With standard su(2) matrices the opposite rotation handedness
would rotate the anti-squeezed quadrature onto z instead; distributions are
insensitive to flipping both signs at once.)  Applied to the equatorial
coherent state |pi/2, 0> this reduces the Sz variance ("reduced variance"
V_-) at the expense of Sy.  In the Sx eigenbasis the twist is a bipartite
chain, factored by one SVD of an N/4 x N/4 bidiagonal matrix.

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
(tail_template)

    {.., 0, eps/3, 2 eps/3, 0, 1/2 - eps, 1/2 - eps, 0, 2 eps/3, eps/3, 0, ..}

whose variance is 1/4 + 16 eps; setting it to the limiting value 1/2 gives
eps = 1/64 (EPSILON), i.e. each central component holds at least
1/2 - eps = 31/64 ~ 0.484 of the probability.  eps and 1/2 - eps are exact
in binary floating point, and eps/3 and 2 eps/3 are the doubles nearest
1/192 and 1/96, so the template needs no rational arithmetic.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

from .errors import ConfigError, Frozen, InvariantError, NumericsError, ResourceLimitError
from .spin_core import NORM_TOL, SpinSystem, StateVector, _expect, _ladder_coefficients

MIRROR_TOL = 1e-9  # central-pair / mirror-symmetry slack, sized for N=1024 round-off
_DENSE_DIM_LIMIT = 1024  # largest s swept is (1024-1)/2
_SCAN_POINTS = 65
_WIDEN_RETRIES = 3

_INV_PHI = (math.sqrt(5) - 1) / 2

# Var(template) = 1/4 + 16 eps, so the limiting variance 1/2 pins eps = 1/64
EPSILON = 1 / 64


class SqueezeResult(Frozen):
    """Optimally squeezed state; its probability distribution is mirror-symmetric.

    distribution holds the state's basis-state probabilities, read-only.
    Results compare by identity.
    """

    __slots__ = ("mu", "state", "v_minus", "distribution")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, mu: float, state: StateVector, v_minus: float):
        _expect(state, StateVector, "state")
        super().__init__(mu, state, v_minus, state.probabilities())

    def _check(self):
        dist = self.distribution
        mirror_dev = float(np.max(np.abs(dist - dist[::-1])))
        if not mirror_dev < MIRROR_TOL:  # NaN fails too
            raise InvariantError(f"distribution not mirror-symmetric: dev={mirror_dev:.3e}")


def tail_template(dim: int) -> list[float]:
    """The length-dim tail-bound template distribution (needs an even dim >= 8)."""
    if not isinstance(dim, numbers.Integral) or dim < 8 or dim % 2:
        raise ConfigError(f"template needs an even integer dim >= 8, got {dim!r}")
    half = dim // 2
    p = [0.0] * dim
    p[half - 1] = p[half] = 0.5 - EPSILON
    p[half - 3] = p[half + 2] = 2 * EPSILON / 3
    p[half - 4] = p[half + 3] = EPSILON / 3
    return p


def twist_generator(sys: SpinSystem) -> np.ndarray:
    """The real symmetric counter-twisting generator Sz^2 - Sy^2, as a dense matrix.

    Built from the ladder coefficients c_i: the diagonal is
    (3 m^2 - s(s+1)) / 2 and the only other entries are c_i c_(i+1) / 4 at
    (i, i+2) and (i+2, i), so even and odd qudit indices never mix.  It is the
    dense reference for squeezing, which works in the Sx eigenbasis.
    """
    _expect(sys, SpinSystem, "spin system")
    s = sys.s
    m = sys.m_values()
    c = _ladder_coefficients(sys)
    gen = np.diag((3 * m * m - s * (s + 1)) / 2)
    i = np.arange(sys.dim - 2)
    gen[i, i + 2] = gen[i + 2, i] = c[:-1] * c[1:] / 4
    return gen


def reduced_variance(state: StateVector) -> float:
    """V_- = <Sz^2> - <Sz>^2 of a state; its length fixes N.

    For squeezed equatorial states the first moment vanishes, so this equals
    <Sz^2> directly.  Sz is diagonal with m = i - (N-1)/2, so V_- is the
    variance of the state's basis-state distribution.
    """
    _expect(state, StateVector, "state")
    p = state.probabilities()
    m = np.arange(state.dim) - (state.dim - 1) / 2
    mean = float(np.dot(m, p))
    return float(np.dot(m * m, p)) - mean * mean


def central_probability(dist) -> float:
    """Weight of the central pair: P[N/2-1], after checking the pair is tied."""
    try:
        p = None if np.iscomplexobj(dist) else np.asarray(dist, dtype=float)
    except (TypeError, ValueError):
        p = None
    if p is None:
        raise ConfigError(f"distribution must be a sequence of real numbers, got {dist!r}")
    if p.ndim != 1 or len(p) % 2 or not len(p):
        raise ConfigError(f"central pair needs a 1-D distribution of even length, got {p.shape}")
    left, right = float(p[len(p) // 2 - 1]), float(p[len(p) // 2])
    if not abs(left - right) < MIRROR_TOL:  # NaN fails too
        raise InvariantError(f"central pair asymmetric: {left!r} vs {right!r}")
    return left


def ideal_overlap(state: StateVector) -> float:
    """|<Psi0|state>|^2 against the two-component target (|N/2-1> + |N/2>)/sqrt(2)."""
    _expect(state, StateVector, "state")
    n = state.dim
    if n % 2:
        raise ConfigError(f"the two-component target needs an even dimension, got {n}")
    amp = (state.amps[n // 2 - 1] + state.amps[n // 2]) / math.sqrt(2)
    return float(abs(amp) ** 2)


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
    """U(mu) psi factored in the Sx eigenbasis, shared by every caller.

    Q = exp(-i pi/2 Sy) is real orthogonal, Q^T Sx Q = Sz and Q e_(N-1) = psi,
    so with D = exp(-i pi/4 Sz), U(mu) psi = Q D exp(i mu Hx) e_(N-1) for
    Hx = Q^T (Sz^2 - Sy^2) Q = (S+^2 + S-^2)/2: only c_i c_(i+1)/2 at offset 2.
    From e_(N-1), Hx moves along the bipartite chain N-1, N-3, .., 1; with
    M = U S W^T (Golub and Kahan) the N/4 x N/4 lower-bidiagonal coupling of its
    odd positions to its even ones, exp(i mu Hx) e_(N-1) = [U cos(mu S) g;
    i W sin(mu S) g], g = U^T e_0.  The mu search reads row N/2-1 of Q, the Sx
    eigenvector for +1/2, from a three-term recurrence; on the odd indices row
    N/2 (for -1/2) is its negative, so the pair is tied.  The state Q (D v) is
    the Chebyshev series (Tal-Ezer and Kosloff) of exp(-iaY), a = pi s/2,
    Y = Sy/s: sum_k (2 - [k=0]) (-1)^k J_k(a) P_k, with P_k = i^k T_k(Y) real,
    P_(k+1) = 2 (A/s) P_k + P_(k-1) and A = (S+ - S-)/2.
    """

    def __init__(self, sys: SpinSystem):
        c = _ladder_coefficients(sys)
        t = c[-2::-2] * c[-1:0:-2] / 2  # Hx between chain positions p and p+1
        try:
            self.u, self.sv, self.wt = np.linalg.svd(np.diag(t[0::2]) + np.diag(t[1::2], -1))
        except np.linalg.LinAlgError as exc:
            msg = f"twist chain decomposition failed at dim={sys.dim}: {exc}"
            raise NumericsError(msg) from exc
        self.from_even, self.from_odd = c[0::2] / sys.s, c[1::2] / sys.s  # 2A/s, by parity
        j = _bessel_series(math.pi / 2 * sys.s)
        self.series = j * [(2 - (k == 0)) * (-1) ** k for k in range(len(j))]
        self.phases = np.exp(-0.25j * math.pi * sys.m_values())  # the diagonal of D
        row = [0.0, 1.0]  # x_(-1), x_0 of (c_(i-1) x_(i-1) + c_i x_(i+1))/2 = x_i/2
        for lo, hi in zip([0.0, *c[:-1].tolist()], c.tolist()):
            row.append((row[-1] - lo * row[-2]) / hi)
        self.row = np.array(row[1:]) / math.sqrt(math.fsum(x * x for x in row))
        # pair(mu) = row D exp(i mu Hx) e_(N-1), in the chain's singular coordinates
        ends, self.g = self.row * self.phases, self.u[0]
        self.alpha = ends[::-4] @ self.u * self.g
        self.beta = 1j * (self.wt @ ends[-3::-4]) * self.g

    def chain(self, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """exp(i mu Hx) e_(N-1) at the qudit indices N-1, N-5, .. and N-3, N-7, .."""
        cos, sin = np.cos(mu * self.sv) * self.g, np.sin(mu * self.sv) * self.g
        return self.u @ cos, 1j * (sin @ self.wt)

    def _next(self, cur: np.ndarray, prev: np.ndarray, odd: bool) -> np.ndarray:
        """2(A/s) cur + prev on half-length rows (cur on the odd indices if odd,
        else on the even ones; prev on the others), written over prev."""
        if odd:
            prev -= self.from_even * cur
            prev[..., 1:] += self.from_odd * cur[..., :-1]
        else:
            prev += self.from_even * cur
            prev[..., :-1] -= self.from_odd * cur[..., 1:]
        return prev

    def rotate(self, x: np.ndarray) -> np.ndarray:
        """Q y along the last axis, for the y that is x on the odd indices and 0 on the even.

        A flips index parity, so P_k lives on the odd indices for even k, else
        on the even ones, and each step runs on half-length rows."""
        prev, cur = x.copy(), self._next(x, np.zeros_like(x), True) / 2
        halves = [self.series[0] * x, self.series[1] * cur]  # odd, even indices
        for k in range(2, len(self.series)):
            prev, cur = cur, self._next(cur, prev, k % 2 == 1)
            halves[k % 2] += self.series[k] * cur
        return np.stack(halves[::-1], axis=-1).reshape(*x.shape[:-1], -1)  # interleaved

    def state_at(self, mu: float) -> StateVector:
        y = np.empty(2 * len(self.sv), dtype=complex)  # exp(i mu Hx) e_(N-1), odd indices
        y[::-2], y[-2::-2] = self.chain(mu)
        amps = self.rotate(y * self.phases[1::2])
        dev = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if not dev <= NORM_TOL:  # NaN fails too
            raise NumericsError(f"exp(-i pi/2 Sy) off unit norm by {dev:.3e} at dim={len(amps)}")
        return StateVector(amps)

    def tail_weight(self, mu: float) -> float:
        """Probability outside the central pair, 1 - 2 p_c."""
        pair = self.alpha @ np.cos(mu * self.sv) + self.beta @ np.sin(mu * self.sv)
        return 1.0 - 2 * abs(pair) ** 2


@lru_cache(maxsize=None)
def _propagator(sys: SpinSystem) -> _SqueezeFactorization:
    return _SqueezeFactorization(sys)


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
        basins = [k for k in range(1, _SCAN_POINTS - 1)
                  if vals[k] < vals[k - 1] and vals[k] <= vals[k + 1]]
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
    if tol is True or not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tol}")
    _expect(sys, SpinSystem, "spin system")
    if sys.dim > _DENSE_DIM_LIMIT:
        msg = f"dense squeezing ops capped at N={_DENSE_DIM_LIMIT}, got N={sys.dim}"
        raise ResourceLimitError(msg)
    prop = _propagator(sys)
    # mu is a builtin float, as SqueezeResult declares, not the np.float64
    # of the scan grid
    mu_opt = float(_minimize_scanned(prop.tail_weight, 4.0 / sys.s, tol))
    state = prop.state_at(mu_opt)
    return SqueezeResult(mu=mu_opt, state=state, v_minus=reduced_variance(state))


def sweep_row(res: SqueezeResult) -> dict:
    """The sweep row (s, mu_opt, v_min, p_c, overlap) of an optimized result;
    s = (N-1)/2 for the N of its state."""
    _expect(res, SqueezeResult, "squeeze result")
    return {
        "s": (res.state.dim - 1) / 2,
        "mu_opt": res.mu,
        "v_min": res.v_minus,
        "p_c": central_probability(res.distribution),
        "overlap": ideal_overlap(res.state),
    }
