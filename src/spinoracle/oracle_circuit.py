"""Transform-oracle-transform pipeline over the two-component input state.

The circuit prepares (|N/2-1> + |N/2>)/sqrt(2), conjugates a diagonal phase
oracle U_z with a self-dual transform pair (Walsh-Hadamard, or DFT and its
inverse), merges the designated two-component superposition onto a single
basis state, and measures it.

With the Hadamard transform and z = W_j the output is exactly
(|N/2-1-j> + |N/2+j>)/sqrt(2); restricted errors cancel identically, while
l unrestricted in-phase errors shrink the principal amplitude to
(1 - 4l/N)/sqrt(2) and raise the largest off component to 4l/(sqrt(2) N).
With the DFT and z = T_j the output is the adjacent pair
(|N/2-1+j> + |N/2+j>)/sqrt(2) with indices mod N.

Decisions run only through decide_blocks, which measures the merged basis
state of every row of an InstanceBlock into one Decisions: index N-1
(symmetric merge) for the Hadamard variants, index N-2 (adjacent merge) for
the Fourier one.  The one-row helpers below (decide_*, measure_designated,
run_pipeline) go through the same circuit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .codewords import (
    FOURIER,
    RESTRICTED,
    UNRESTRICTED,
    InstanceBlock,
    _check_dim,
    designated_index,
    enumerate_blocks,
    hadamard_codeword,
    oracle_phases,
)
from .errors import ConfigError, Frozen, InvariantError
from .spin_core import NORM_TOL, StateVector

PHASE_UNIT_TOL = 1e-15
PER_OUTCOME_DIM_LIMIT = 64  # JSON reports embed the spectrum only up to here
PROB_SUM_TOL = 1e-12  # per-outcome probabilities sum to 1 within this; pr_top <= 1 + it

TRANSFORMS = ("hadamard", "fourier")
PAIRINGS = ("symmetric", "adjacent")

# variant -> (transform, pairing, designated outcome counted back from N)
_CIRCUITS = {
    RESTRICTED: ("hadamard", "symmetric", 1),
    UNRESTRICTED: ("hadamard", "symmetric", 1),
    FOURIER: ("fourier", "adjacent", 2),
}


def _unit_modulus(phases: np.ndarray) -> np.ndarray:
    """Return the phases (a row or a block of rows) once every entry has |p| = 1."""
    dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
    if not dev <= PHASE_UNIT_TOL:  # NaN fails too
        raise InvariantError(f"oracle phases not unit modulus: dev={dev:.3e}")
    return phases


def _input_amps(dim: int) -> np.ndarray:
    """(|N/2-1> + |N/2>)/sqrt(2), the spin |+-1/2> superposition."""
    amps = np.zeros(dim, dtype=complex)
    amps[dim // 2 - 1] = amps[dim // 2] = 1 / math.sqrt(2)
    return amps


def _fwht(amps: np.ndarray) -> np.ndarray:
    """Normalized fast Walsh-Hadamard transform of each row, O(N log N) butterflies."""
    out = amps.astype(complex)
    h = 1
    while h < out.shape[-1]:
        v = out.reshape(*out.shape[:-1], -1, 2, h)
        top = v[..., 0, :].copy()
        bot = v[..., 1, :].copy()
        v[..., 0, :] = top + bot
        v[..., 1, :] = top - bot
        h *= 2
    return out / math.sqrt(out.shape[-1])


def run_pipeline(word, transform: str = "hadamard") -> StateVector:
    """R^dag U_z R applied to the two-component input state, for one word z:
    the 0/1 bits of a Hadamard word, or the integer numerators r in (-N, N]
    of a Fourier word r/N.  The transform says how the word is read."""
    if transform not in TRANSFORMS:
        raise ConfigError(f"unknown transform {transform!r}")
    z = np.asarray(word)
    if z.ndim != 1 or z.dtype.kind not in "biu":
        raise ConfigError("a word is a row of integers")
    dim = _check_dim(len(z))
    low, high = (0, 1) if transform == "hadamard" else (1 - dim, dim)
    if not np.all((low <= z) & (z <= high)):
        raise ConfigError(f"a {transform} word holds integers in [{low}, {high}] only")
    phases = _unit_modulus(oracle_phases(z, transform))
    return StateVector(_transform_phase_transform(phases, transform))


@lru_cache(maxsize=32)  # one per (N, transform) a run uses
def _transformed_input(dim: int, transform: str) -> np.ndarray:
    """R|in>, read-only: every row of every block starts from it."""
    amps = _input_amps(dim)
    out = _fwht(amps) if transform == "hadamard" else np.fft.ifft(amps, norm="ortho")
    out.flags.writeable = False
    return out


def _transform_phase_transform(phases: np.ndarray, transform: str) -> np.ndarray:
    """R^dag U_z R |in> for each row of oracle phases.  R|in> is shared by all
    rows and every other step acts along the last axis, so each row's
    arithmetic is that of a single-row run, bit for bit."""
    r_in = _transformed_input(phases.shape[-1], transform)
    if transform == "hadamard":
        return _fwht(r_in * phases)
    return np.fft.fft(r_in * phases, norm="ortho")


def merge_two_to_one(state: StateVector, pairing: str = "symmetric") -> StateVector:
    """Block unitary collapsing a designated two-component pair onto one state.

    symmetric: on each mirror pair (N/2-1-j, N/2+j) map
        (|N/2-1-j> + |N/2+j>)/sqrt(2) -> |N/2+j>,
    adjacent: on each disjoint pair (2k, 2k+1) map
        (|2k> + |2k+1>)/sqrt(2) -> |2k>.
    The orthogonal (antisymmetric) combination lands on the partner index,
    completing each 2x2 block to a Hadamard rotation.
    """
    if pairing not in PAIRINGS:
        raise ConfigError(f"unknown pairing {pairing!r}")
    return StateVector(_merge(state.amps, pairing))


def _merge(amps: np.ndarray, pairing: str) -> np.ndarray:
    out = np.empty_like(amps)
    root = math.sqrt(2)
    if pairing == "symmetric":
        half = amps.shape[-1] // 2
        a = amps[..., half - 1 :: -1]  # index N/2-1-j for j = 0..N/2-1
        b = amps[..., half:]  # index N/2+j
        out[..., half:] = (a + b) / root
        out[..., half - 1 :: -1] = (a - b) / root
    else:
        a = amps[..., 0::2]
        b = amps[..., 1::2]
        out[..., 0::2] = (a + b) / root
        out[..., 1::2] = (a - b) / root
    return out


def _spectra(phases: np.ndarray, transform: str, pairing: str) -> np.ndarray:
    """Unnormalized |merged amplitudes|^2 for a (rows x N) block of oracle phases.

    The one transform-phase-transform-merge circuit of every decision; the
    phases and the output norm are checked once per block.
    """
    phases = _unit_modulus(phases)
    raw = np.abs(_merge(_transform_phase_transform(phases, transform), pairing)) ** 2
    dev = float(np.max(np.abs(raw.sum(axis=1) - 1.0)))
    if not dev <= NORM_TOL:
        raise InvariantError(f"circuit output not normalized: dev={dev:.3e}")
    return raw


class Decisions(Frozen):
    """The reports of one block as arrays: raw (unnormalized) and normalized
    spectra, the designated outcome index and its probability, the rows
    decided A, and the rounds each decision took.  The arrays are made
    read-only, then the per-outcome sums and pr_top are checked once per
    block.  Decisions compare by identity."""

    __slots__ = ("raw", "probs", "index", "pr_top", "is_a", "rounds")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _check(self):
        if not np.all((self.pr_top >= 0.0) & (self.pr_top <= 1.0 + PROB_SUM_TOL)):
            raise InvariantError(f"pr_top outside [0,1]: {self.pr_top.tolist()!r}")
        if not np.all(np.abs(self.probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL):
            raise InvariantError("per-outcome probabilities do not sum to 1")


def _measure(raw: np.ndarray, index: int, draws: np.ndarray | None) -> Decisions:
    """Measure the designated outcome of each row of a (rows x N) spectrum block.

    Exact mode (draws None) decides from the probability directly.  Majority
    mode maps each uniform variate u of a row (rows x q draws) to the outcome
    Generator.choice would give it, searchsorted(cdf, u, side="right"), and
    answers A on more than q/2 hits.  The cdf is nondecreasing, so that
    outcome is the designated index exactly when cdf[index-1] <= u < cdf[index].
    """
    probs = raw / raw.sum(axis=1, keepdims=True)  # exact-unit totals for the sampler
    pr_top = probs[:, index]
    if draws is None:
        return Decisions(raw, probs, index, pr_top, pr_top > 0.5, 1)
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    below_hi = np.count_nonzero(draws < cdf[:, index, None], axis=1)
    below_lo = np.count_nonzero(draws < cdf[:, index - 1, None], axis=1) if index else 0
    rounds = draws.shape[1]
    return Decisions(raw, probs, index, pr_top, below_hi - below_lo > rounds / 2, rounds)


def measure_designated(
    state: StateVector | np.ndarray, index: int, draws: np.ndarray | None = None
) -> Decisions:
    """The one-row Decisions of measuring the designated outcome index.

    ``state`` is the measured state or its outcome spectrum; ``draws``, a
    row of vote variates or None, is measured as _measure measures a block.
    """
    raw = state.probabilities() if isinstance(state, StateVector) else state
    if not 0 <= index < len(raw):
        raise ConfigError(f"outcome index {index} outside Z_{len(raw)}")
    if draws is not None and (draws.ndim != 1 or not len(draws)):
        raise ConfigError("a majority vote needs a non-empty row of draws")
    return _measure(raw[None], index, None if draws is None else draws[None])


def decide_blocks(blocks) -> Iterator[tuple[InstanceBlock, Decisions]]:
    """Run each InstanceBlock through its variant's circuit and measure it.

    A block with vote draws is decided by a majority vote over them; the
    per-round success probability for unrestricted A instances is at least
    9/16, so the vote error decays exponentially in q.  Without draws the
    decision is exact.
    """
    for block in blocks:
        transform, pairing, back = _CIRCUITS[block.variant]
        raw = _spectra(block.phases(), transform, pairing)
        yield block, _measure(raw, block.dim - back, block.draws)


# The wire format of a decided row: these keys, in CSV column order, and in
# JSON reports also perOutcome, the normalized spectrum, for N <= 64.
REPORT_KEYS = ("variant", "N", "hiddenJ", "label", "decision", "prTop", "queries", "repetitions")


def report_columns(block: InstanceBlock, decided: Decisions) -> tuple[dict, dict]:
    """The reports of a decided block, key by key, with no dict per row.

    Returns (shared, per_row): shared maps each key whose value every row of
    the block shares to that value; per_row maps the other keys to a list
    with one value per row, and perOutcome (N <= 64 only) to the read-only
    rows x N array of normalized spectra.
    """
    shared = {"variant": block.variant, "N": block.dim, "queries": decided.rounds,
              "repetitions": decided.rounds}
    per_row = {
        "hiddenJ": block.js.tolist(),
        "label": np.where(block.is_a, "A", "B").tolist(),
        "decision": np.where(decided.is_a, "A", "B").tolist(),
        "prTop": decided.pr_top.tolist(),
    }
    if block.dim <= PER_OUTCOME_DIM_LIMIT:
        per_row["perOutcome"] = decided.probs
    return shared, per_row


def _decide(block: InstanceBlock, variant: str) -> Decisions:
    """The Decisions of one block of the given variant; it votes over its draws."""
    if block.variant != variant:
        raise ConfigError(f"expected a {variant} block, got {block.variant!r}")
    return next(decide_blocks([block]))[1]


def decide_restricted(block: InstanceBlock) -> Decisions:
    """Single-query exact decision; correct with certainty on restricted instances."""
    return _decide(block, RESTRICTED)


def decide_unrestricted(block: InstanceBlock) -> Decisions:
    """Each row by a majority vote over its draws, or exactly if the block has none."""
    return _decide(block, UNRESTRICTED)


def decide_fourier(block: InstanceBlock) -> Decisions:
    """DFT pipeline, adjacent merge, exact measurement of index N-2."""
    return _decide(block, FOURIER)


def fourier_probability_table(dim: int) -> np.ndarray:
    """Exact Pr[N-2] after the Fourier pipeline for every codeword index j.

    The table is 1 at j = N/2-1 and 0 elsewhere except for the two even
    neighbours j = N/2-2 and N/2, which retain probability 1/4, so adjacent
    indices are not distinguished with certainty by this measurement.
    """
    blocks = enumerate_blocks(FOURIER, dim, None)
    return np.concatenate([decided.raw[:, decided.index] for _, decided in decide_blocks(blocks)])


def worst_case_error_mask(dim: int, weight: int) -> np.ndarray:
    """In-phase non-restricted errors that meet the degradation bound exactly,
    as a read-only uint8 mask of the given weight.

    Flips bits only at even-parity positions (where W_(N-1) is zero, so
    nothing cancels) that share a Hadamard character value, making every
    error contribute coherently to the same off component.
    """
    candidates = [x for x in range(0, dim, 2) if x.bit_count() % 2 == 0]
    if not 0 <= weight <= len(candidates):
        raise ConfigError(f"cannot place {weight} in-phase errors in dim {dim}")
    mask = np.zeros(dim, dtype=np.uint8)
    mask[candidates[:weight]] = 1
    mask.flags.writeable = False
    return mask


def worst_case_spectrum(dim: int, weight: int) -> np.ndarray:
    """Unnormalized output spectrum of the designated codeword under the
    worst-case mask, for any weight the mask admits."""
    word = hadamard_codeword(dim, designated_index(dim)) ^ worst_case_error_mask(dim, weight)
    return _spectra(oracle_phases(word[None], "hadamard"), "hadamard", "symmetric")[0]
