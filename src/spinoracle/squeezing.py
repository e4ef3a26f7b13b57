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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InvariantError, NumericsError, ResourceLimitError
from .spin_core import (
    OperatorMatrix,
    SpinSystem,
    StateVector,
    _symmetrized,
    coherent_state,
    expi_hermitian,
    spin_operators,
)

MIRROR_TOL = 1e-9  # central-pair / mirror-symmetry slack, sized for N=1024 round-off
_DENSE_DIM_LIMIT = 1024  # largest s swept is (1024-1)/2
_SCAN_POINTS = 65
_WIDEN_RETRIES = 3

_INV_PHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class SqueezeResult:
    """Optimally squeezed state with its probability distribution."""

    mu: float
    state: StateVector
    v_minus: float
    distribution: np.ndarray

    def __post_init__(self):
        dist = np.asarray(self.distribution, dtype=float)
        dist.flags.writeable = False
        object.__setattr__(self, "distribution", dist)
        probs = self.state.probabilities()
        if float(np.max(np.abs(dist - probs))) > 1e-14:
            raise InvariantError("distribution does not match squared amplitudes")
        if abs(float(np.sum(dist)) - 1.0) > 1e-12:
            raise InvariantError("distribution does not sum to 1")
        mirror_dev = float(np.max(np.abs(dist - dist[::-1])))
        if mirror_dev >= MIRROR_TOL:
            raise InvariantError(f"distribution not mirror-symmetric: dev={mirror_dev:.3e}")


@dataclass(frozen=True)
class BoundingDistribution:
    """Tail-bounding template pinned by Var = 1/2; eps and pc are exact."""

    epsilon: Fraction
    pc: Fraction

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
    """The Hermitian counter-twisting generator Sz^2 - Sy^2."""
    ops = spin_operators(sys)
    return _symmetrized(ops.sz.entries @ ops.sz.entries - ops.sy.entries @ ops.sy.entries)


def squeeze_operator(sys: SpinSystem, mu: float) -> OperatorMatrix:
    """U(mu) = exp(-i pi/4 Sx) exp(i mu (Sz^2 - Sy^2)).

    Both factors are built by eigendecomposition of their Hermitian
    generators, so the product is unitary to round-off.
    """
    if not math.isfinite(mu):
        raise ConfigError(f"squeezing parameter must be finite, got {mu}")
    _guard_dense(sys)
    ops = spin_operators(sys)
    u = expi_hermitian(ops.sx.entries, -math.pi / 4) @ expi_hermitian(twist_generator(sys), mu)
    return OperatorMatrix(u, unitary=True)


def reduced_variance(state: StateVector, sys: SpinSystem) -> float:
    """V_- = <Sz^2> - <Sz>^2.

    For squeezed equatorial states the first moment vanishes, so this equals
    <Sz^2> directly.  Sz is diagonal, so both moments are plain sums over
    the probability distribution against m = i - s.
    """
    m = sys.m_values()
    probs = state.probabilities()
    mean = float(np.dot(m, probs))
    return float(np.dot(m * m, probs)) - mean * mean


def distribution_variance(dist) -> float | Fraction:
    """Var over the qudit index: sum i^2 P_i - (sum i P_i)^2.

    Exact for Fraction-valued distributions; float inputs are evaluated
    about the centre index for stability.  Equals reduced_variance of the
    underlying state because the index shift i = m + s drops out.
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
    if abs(float(p.sum()) - 1.0) > 1e-6:
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
    if abs(left - right) >= MIRROR_TOL:
        raise InvariantError(f"central pair asymmetric: {left!r} vs {right!r}")
    return left


def ideal_overlap(state: StateVector) -> float:
    """|<Psi0|state>|^2 against the two-component target (|N/2-1> + |N/2>)/sqrt(2)."""
    n = state.dim
    amp = (state.amps[n // 2 - 1] + state.amps[n // 2]) / math.sqrt(2)
    return float(abs(amp) ** 2)


class _TwistPropagator:
    """Cached spectral data so the mu scan costs one matvec per point.

    state(mu) = R V exp(i mu w) V^dag |pi/2,0>, with R = exp(-i pi/4 Sx) and
    (w, V) the eigensystem of Sz^2 - Sy^2; B = R V is formed once.
    """

    def __init__(self, sys: SpinSystem):
        ops = spin_operators(sys)
        try:
            self.eigvals, v = np.linalg.eigh(twist_generator(sys))
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                f"twist generator eigendecomposition failed at dim={sys.dim}: {exc}"
            ) from exc
        rot = expi_hermitian(ops.sx.entries, -math.pi / 4)
        self.basis = rot @ v
        self.coeffs = v.conj().T @ coherent_state(sys, math.pi / 2, 0.0).amps
        self.sys = sys
        self._m = sys.m_values()

    def amps_at(self, mu: float) -> np.ndarray:
        return self.basis @ (np.exp(1j * mu * self.eigvals) * self.coeffs)

    def state_at(self, mu: float) -> StateVector:
        return StateVector(self.amps_at(mu))

    def v_minus(self, mu: float) -> float:
        probs = np.abs(self.amps_at(mu)) ** 2
        mean = float(np.dot(self._m, probs))
        return float(np.dot(self._m * self._m, probs)) - mean * mean

    def tail_weight(self, mu: float) -> float:
        """Probability outside the central pair; 1 - 2 p_c by mirror symmetry."""
        probs = np.abs(self.amps_at(mu)) ** 2
        half = self.sys.dim // 2
        return 1.0 - float(probs[half - 1] + probs[half])


@lru_cache(maxsize=None)
def _propagator(sys: SpinSystem) -> _TwistPropagator:
    return _TwistPropagator(sys)


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
    if not tol > 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    _guard_dense(sys)
    prop = _propagator(sys)
    mu_opt = _minimize_scanned(prop.tail_weight, 4.0 / sys.s, tol)
    state = prop.state_at(mu_opt)
    return SqueezeResult(
        mu=mu_opt,
        state=state,
        v_minus=reduced_variance(state, sys),
        distribution=state.probabilities(),
    )


def sweep_point(sys: SpinSystem, tol: float = 1e-8) -> dict:
    """One row of the squeezing sweep: (s, mu_opt, v_min, p_c, overlap)."""
    res = optimize_mu(sys, tol)
    return {
        "s": sys.s,
        "mu_opt": res.mu,
        "v_min": res.v_minus,
        "p_c": central_probability(res.distribution),
        "overlap": ideal_overlap(res.state),
    }
