"""Hadamard and Fourier codewords, error masks, and blocks of problem instances.

Every word is an exact integer array.  Hadamard codewords are the rows of
the base-(-1) logarithm of the scaled N = 2^n Walsh-Hadamard matrix in
Sylvester order, as uint8 bits: bit x of W_j is the parity of j AND x.  All
rows except W_0 are balanced and any two rows differ in exactly N/2
positions.  The rows form a group under XOR with W_j ^ W_k = W_(j XOR k), in
particular W_j ^ W_(N-1-j) = W_(N-1).

Fourier codewords are the analogous rows for the discrete Fourier matrix
with kernel omega = e^(2 pi i / N): entry k of T_j is the rational 2jk/N
reduced modulo 2 into (-1, 1], held as its int64 numerator r = 2jk mod 2N
in (-N, N], so T_j = r/N.  They form the additive cyclic group of order N
with T_j + T_(N-j) = T_0 and T_j + T_(N/2-j) = T_(N/2).

Error masks are uint8 rows of weight d; "restricted" masks may only touch
the N/2 positions where W_(N-1) has a one (the odd-parity positions), which
is exactly the error pattern the quantum pipeline cancels.

oracle_phases is the one phase rule: the transform says how to read a word,
bits b as 1 - 2b and Fourier numerators r as e^(i pi r/N).

Problem instances live in InstanceBlocks: a block of instances held as
arrays (the codeword indices, a rows x N mask block, the majority-vote
variates) and checked once as a whole.  They hold the codeword index and the
mask, never a string to be checked against a rebuilt copy, and their oracle
phases come from the integer words (the parity table of popcount(x) mod 2
for Hadamard words, the residues 2jk mod 2N for Fourier words).
enumerate_blocks lists them in _enumerate_trials' order.  sample_blocks
draws them a block at a time from four child generators that it spawns
from the one it is passed: the weight classes, the error positions, the
codeword indices and the vote variates.  Each child draws the same number
of variates for every trial, so a seeded run does not depend on the block
size.  Sampling uses an explicitly passed numpy Generator, never global
state.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator

import numpy as np

from .errors import ConfigError, DegenerateInstanceError, Frozen, ResourceLimitError
from .spin_core import MAX_EXPONENT, MIN_EXPONENT

VARIANTS = ("restricted", "unrestricted", "fourier")
_ENUMERATION_LIMIT = 10 ** 6
MAX_REPETITIONS = 2**20  # majority-vote draws per instance, and per block: 8 MB
BLOCK_ENTRIES = 8192  # phase entries per circuit block: 128 instances at N = 64

RESTRICTED = "restricted"
UNRESTRICTED = "unrestricted"
FOURIER = "fourier"


def _check_dim(dim: int) -> int:
    low, high = 2**MIN_EXPONENT, 2**MAX_EXPONENT  # the spin systems' range of N
    if not isinstance(dim, (int, np.integer)) or not low <= dim <= high or dim & (dim - 1):
        raise ConfigError(f"codeword length must be a power of two in [{low}, {high}], "
                          f"got {dim!r}")
    return int(dim)


@functools.lru_cache(maxsize=32)  # one table per power-of-two N
def _parity_table(dim: int) -> np.ndarray:
    """popcount(x) mod 2 for x in Z_dim, i.e. W_(N-1), built by doubling [p, 1 - p]."""
    p = np.zeros(1, dtype=np.uint8)
    while len(p) < dim:
        p = np.concatenate([p, 1 - p])
    p.flags.writeable = False
    return p


def _signed_residues(r: np.ndarray, dim: int) -> np.ndarray:
    """Integers r reduced mod 2N into (-N, N]: the numerators of r/N reduced mod 2 into (-1, 1]."""
    r = r % (2 * dim)
    return np.where(r > dim, r - 2 * dim, r)


def _fourier_residues(dim: int, j) -> np.ndarray:
    """Numerators r of T_j = r/N: 2jk mod 2N moved into (-N, N].

    ``j`` is an index, or a column of indices for one row each.
    """
    return _signed_residues(np.arange(dim, dtype=np.int64) * (2 * j), dim)


@functools.lru_cache(maxsize=32)  # one table per power-of-two N
def _fourier_roots(dim: int) -> np.ndarray:
    """e^(i pi r/N) for r in (-N, N], read-only: entry r + N - 1 is r's phase."""
    roots = np.exp(1j * math.pi * (np.arange(-dim + 1, dim + 1) / dim))
    roots.flags.writeable = False
    return roots


def oracle_phases(words: np.ndarray, transform: str) -> np.ndarray:
    """The oracle phases e^(i pi z_x) of a word or a block of word rows, as the
    transform reads them: "hadamard" bits b give exactly 1 - 2b in float64,
    and the numerators r of a Fourier word r/N give e^(i pi r/N), read from
    the table of roots.  The words are taken as already checked."""
    if transform == "hadamard":
        return 1.0 - 2.0 * words
    dim = words.shape[-1]
    return _fourier_roots(dim)[words.astype(np.intp, copy=False) + (dim - 1)]


def designated_index(dim: int) -> int:
    """The fixed codeword index j* = N/2 - 1 whose membership defines label A.

    Any index would do; this one matches the measurement design, so it is a
    constant rather than a parameter.
    """
    return _check_dim(dim) // 2 - 1


def _check_masks(masks: np.ndarray, weights: np.ndarray, restricted: bool) -> None:
    """InstanceBlock's mask check over a block of mask rows: integer bits only,
    each row of its declared weight, restricted rows dominated by W_(N-1)."""
    if masks.dtype.kind not in "biu" or np.any((masks != 0) & (masks != 1)):
        raise ConfigError("mask entries must be 0 or 1")
    counted = masks.sum(axis=1)
    if not np.array_equal(counted, weights):
        bad = int(np.flatnonzero(counted != weights)[0])
        raise ConfigError(f"mask weight {counted[bad]} != declared {weights[bad]}")
    if restricted and np.any(masks > _parity_table(_check_dim(masks.shape[1]))):
        raise ConfigError("restricted mask not dominated by W_(N-1)")


def _check_index(dim: int, j) -> int:
    dim = _check_dim(dim)
    if not isinstance(j, (int, np.integer)) or not 0 <= j < dim:
        raise ConfigError(f"codeword index {j!r} outside Z_{dim}")
    return dim


def hadamard_codeword(dim: int, j: int) -> np.ndarray:
    """Row j of the Hadamard codeword matrix as read-only uint8 bits:
    bit x = popcount(j AND x) mod 2, read from the parity table."""
    dim = _check_index(dim, j)
    bits = _parity_table(dim)[j & np.arange(dim)]
    bits.flags.writeable = False
    return bits


def fourier_codeword(dim: int, j: int) -> np.ndarray:
    """Row j of the Fourier codeword matrix as read-only int64 numerators r:
    entry k is T_j[k] = r/N = 2jk/N mod 2, with r in (-N, N]."""
    dim = _check_index(dim, j)
    numerators = _fourier_residues(dim, j)
    numerators.flags.writeable = False
    return numerators


def _error_positions(dim: int, restricted: bool) -> np.ndarray:
    if restricted:
        return np.flatnonzero(_parity_table(dim))
    return np.arange(dim)


def restricted_set_size(dim: int) -> int:
    """Number of strings within restricted distance < N/4 of one codeword.

    Equals sum_(m < N/4) C(N/2, m) = (2^(N/2) - C(N/2, N/4)) / 2, which is
    exponential in N.
    """
    dim = _check_dim(dim)
    if dim < 8:
        raise ConfigError(f"restricted set size needs N >= 8, got {dim}")
    return sum(math.comb(dim // 2, m) for m in range(dim // 4))


class GroupLawReport(Frozen):
    """Outcome of the codeword group-structure verification."""

    __slots__ = ("dim", "laws_checked", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures


def group_properties_check(dim: int) -> GroupLawReport:
    """Verify the XOR group laws of W and the additive mod-2 laws of T.

    Checks, for all j (and all pairs where applicable):
      W self-inverse   W_j ^ W_j = W_0
      W mirror sum     W_j ^ W_(N-1-j) = W_(N-1)
      W closure        W_j ^ W_k = W_(j XOR k)
      T inverse        T_j + T_(N-j) = T_0
      T mirror sum     T_j + T_(N/2-j) = T_(N/2)

    on the integer tables: W rows combine by XOR of their bits, and T rows
    by adding their numerators and reducing the sum mod 2N into (-N, N].
    """
    dim = _check_dim(dim)
    ks = np.arange(dim)
    w = _parity_table(dim)[ks[:, None] & ks]
    t = _fourier_residues(dim, ks[:, None])
    failures = []
    for j in range(dim):
        if not np.array_equal(w[j] ^ w[j], w[0]):
            failures.append(("W self-inverse", j, j))
        if not np.array_equal(w[j] ^ w[dim - 1 - j], w[dim - 1]):
            failures.append(("W mirror sum", j, dim - 1 - j))
        closure = np.any((w[j] ^ w) != w[j ^ ks], axis=1)
        failures += [("W closure", j, k) for k in np.flatnonzero(closure).tolist()]
        if not np.array_equal(_signed_residues(t[j] + t[(dim - j) % dim], dim), t[0]):
            failures.append(("T inverse", j, (dim - j) % dim))
        if not np.array_equal(_signed_residues(t[j] + t[(dim // 2 - j) % dim], dim), t[dim // 2]):
            failures.append(("T mirror sum", j, (dim // 2 - j) % dim))
    laws = ("W self-inverse", "W mirror sum", "W closure", "T inverse", "T mirror sum")
    return GroupLawReport(dim=dim, laws_checked=laws, failures=tuple(failures))


def _weight_bound(variant: str, dim: int):
    """Error weights of a Hadamard instance lie below N/4 (restricted) or N/16."""
    return dim // 4 if variant == RESTRICTED else dim / 16


def _valid_weights(variant: str, dim: int) -> range:
    return range(math.ceil(_weight_bound(variant, dim)))  # a range: membership is O(1)


def _resolve_weights(variant: str, dim: int, d) -> list[int]:
    valid = _valid_weights(variant, dim)
    if d is None:
        requested = valid
    elif isinstance(d, (int, np.integer)):
        requested = [int(d)]
    else:
        try:
            requested = sorted(operator.index(m) for m in d)
        except TypeError:  # d is no iterable, or holds a non-integer
            raise ConfigError(f"error weight d must be an integer or integers, got {d!r}") from None
    chosen = [m for m in requested if m in valid]
    if not chosen:
        raise DegenerateInstanceError(
            f"{variant} instance class empty for N={dim}, d={d!r} "
            f"(valid weights {valid[0]}..{valid[-1]})"
        )
    return chosen


@functools.lru_cache(maxsize=64)
def _weight_probabilities(variant: str, dim: int, weights: tuple[int, ...]) -> np.ndarray:
    """Each weight class's share of the union, in proportion to its syndrome count.

    The counts C(pool, m) come from one exact pass of
    C(pool, m + 1) = C(pool, m) (pool - m) / (m + 1), not one binomial per class.
    """
    pool = dim // 2 if variant == RESTRICTED else dim
    table = [1]
    for m in range(max(weights)):
        table.append(table[-1] * (pool - m) // (m + 1))
    counts = [table[m] for m in weights]
    # float(c) / float(total) is numpy's int64 division wherever the counts
    # fit in int64; past 2^1000 a common shift keeps float() finite
    shift = max(sum(counts).bit_length() - 1000, 0)
    probs = np.array([float(c >> shift) for c in counts]) / float(sum(counts) >> shift)
    probs.flags.writeable = False
    return probs


def _require_error_free(d) -> None:
    if d not in (None, 0):
        raise ConfigError("fourier instances are error-free (d must be 0)")


def _enumerate_trials(variant: str, dim: int, d):
    """Every (j, error positions, weight) of the variant; the one enumeration order.

    j runs outer over the instance class (Z_N for the error-free Fourier
    instances, Z_(N/2) otherwise), then the weight class (d resolved as
    sampling resolves it), then itertools.combinations over the error
    positions.  Enumeration is refused above 10^6 masks in a weight class.
    """
    dim = _check_dim(dim)
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant == FOURIER:
        _require_error_free(d)
        js, weights = range(dim), [0]
    else:
        js, weights = range(dim // 2), _resolve_weights(variant, dim, d)
    positions = tuple(_error_positions(dim, variant == RESTRICTED).tolist())  # not copied per j
    for m in weights:
        count = math.comb(len(positions), m)
        if count > _ENUMERATION_LIMIT:
            raise ResourceLimitError(
                f"{count} syndromes exceed the enumeration limit; sample instead"
            )
    for j in js:
        for m in weights:
            for cols in itertools.combinations(positions, m):
                yield j, np.array(cols, dtype=np.int64), m


class InstanceBlock(Frozen):
    """A block of instances of one variant, held as arrays and checked once.

    js are the codeword indices; masks is the (rows x N) uint8 error-mask
    block with each row's declared weight in weights (both None for
    Fourier); draws holds each row's majority-vote variates, or is None for
    exact decisions.  Every instance check runs here, once over the whole
    block, after the arrays are made read-only so no check can be undone.
    Blocks compare by identity.
    """

    __slots__ = ("variant", "dim", "js", "masks", "weights", "draws")
    _optional = ("masks", "weights", "draws")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _check(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        for name in ("js", *self._optional):
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) or value is None and name in self._optional):
                raise ConfigError(f"InstanceBlock {name} must be an ndarray, "
                                  f"got {type(value).__name__}")
        dim = _check_dim(self.dim)
        js = self.js
        if js.dtype.kind not in "iu" or js.ndim != 1 or not len(js):
            raise ConfigError("a block needs a non-empty row of integer codeword indices")
        if js.min() < 0 or js.max() >= dim:
            raise ConfigError(f"codeword index outside Z_{dim} in {js.tolist()}")
        if self.draws is not None and len(self.draws) != len(js):
            raise ConfigError("one row of vote draws per instance")
        if self.variant == FOURIER:
            if self.masks is not None:
                raise ConfigError("fourier instances carry no error syndrome")
            return
        if (self.masks is None or self.masks.shape != (len(js), dim)
                or np.shape(self.weights) != (len(js),)):
            raise ConfigError("syndrome missing or of wrong length")
        _check_masks(self.masks, self.weights, self.variant == RESTRICTED)
        bound = _weight_bound(self.variant, dim)
        if not self.weights.max() < bound:
            raise ConfigError(f"{self.variant} weight {self.weights.max()} not below {bound}")

    def __len__(self) -> int:
        return len(self.js)

    @property
    def is_a(self) -> np.ndarray:
        """The rows labelled A: those holding the designated codeword index."""
        return self.js == designated_index(self.dim)

    def phases(self) -> np.ndarray:
        """The (rows x N) oracle rows e^(i pi z_x) of the integer words: float64
        for Hadamard words, complex128 for Fourier ones."""
        js, dim = self.js[:, None], self.dim
        if self.variant == FOURIER:
            return oracle_phases(_fourier_residues(dim, js), "fourier")
        return oracle_phases(_parity_table(dim)[js & np.arange(dim)] ^ self.masks, "hadamard")


def enumerate_blocks(variant: str, dim: int, d) -> Iterator[InstanceBlock]:
    """Every instance of the variant in blocks of BLOCK_ENTRIES phase entries
    (at least one row), in _enumerate_trials' order."""
    trials = _enumerate_trials(variant, dim, d)
    rows = max(BLOCK_ENTRIES // _check_dim(dim), 1)
    while parts := list(itertools.islice(trials, rows)):
        js, cols, weights = zip(*parts)
        js = np.array(js, dtype=np.int64)
        masks = declared = None
        if variant != FOURIER:
            declared = np.array(weights)
            masks = np.zeros((len(parts), dim), dtype=np.uint8)
            masks[np.repeat(np.arange(len(parts)), declared), np.concatenate(cols)] = 1
        yield InstanceBlock(variant, dim, js, masks, declared)


def sample_blocks(variant: str, dim: int, d, trials: int, rng: np.random.Generator,
                  repetitions: int = 0,
                  mask: np.ndarray | None = None) -> Iterator[InstanceBlock]:
    """``trials`` sampled instances in blocks, each row with its
    ``repetitions`` vote variates.

    ``d`` selects the error weight: an int, an iterable of ints, or None for
    the full valid range; with a fixed error ``mask``, which sets the
    weight, it must be None and only the codeword indices are drawn.
    Uniformity over a union of weight classes follows from weighting each
    class by its syndrome count.

    The draws come from four children of ``rng`` (rng.spawn(4)), each
    drawing a fixed count per trial: one uniform against the weight classes'
    CDF; a random permutation of the error positions, whose ranks below the
    weight mark the mask (pool - 1 bounded draws); one codeword index; and
    ``repetitions`` uniform vote variates.  A block holds BLOCK_ENTRIES phase
    entries (at least one row) and at most MAX_REPETITIONS variates, but the
    draws, and so every result, do not depend on its rows.  Zero trials
    check no instance class and spawn nothing.
    """
    for name, count in (("trials", trials), ("repetitions", repetitions)):
        if not isinstance(count, (int, np.integer)) or count < 0:
            raise ConfigError(f"{name} must be an integer >= 0, got {count!r}")
    if mask is not None and d is not None:
        raise ConfigError(f"a fixed mask sets the error weight; d must be None, got {d!r}")
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"sampling requires an explicit seeded numpy Generator, "
                          f"got {type(rng).__name__}")
    if repetitions > MAX_REPETITIONS:
        raise ResourceLimitError(f"repetitions {repetitions} above the cap {MAX_REPETITIONS}")
    dim = _check_dim(dim)
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if not trials:
        return iter(())
    fixed = classes = None
    if mask is not None:  # checked as a one-row block: every instance check applies
        fixed = instance_from_parts(variant, dim, 0, mask)
    elif variant == FOURIER:
        _require_error_free(d)
    else:
        weights = tuple(_resolve_weights(variant, dim, d))
        classes, cdf = np.array(weights), _weight_probabilities(variant, dim, weights).cumsum()
        cdf /= cdf[-1]
        positions = _error_positions(dim, variant == RESTRICTED)
        pool = len(positions)
    try:
        weight_rng, position_rng, index_rng, vote_rng = rng.spawn(4)
    except TypeError as exc:  # a bit generator seeded without a SeedSequence
        raise ConfigError(f"sampling needs a Generator that can spawn: {exc}") from None
    rows = max(BLOCK_ENTRIES // dim, 1)
    if repetitions:
        rows = max(1, min(rows, MAX_REPETITIONS // repetitions))
    high = dim if variant == FOURIER else dim // 2

    def blocks():
        for start in range(0, trials, rows):
            k = min(rows, trials - start)
            masks = declared = draws = None
            if fixed is not None:
                masks = np.broadcast_to(fixed.masks, (k, dim))
                declared = np.broadcast_to(fixed.weights, (k,))
            elif classes is not None:  # the ranks below a row's weight mark its errors
                declared = classes[np.searchsorted(cdf, weight_rng.random(k), side="right")]
                ranks = position_rng.permuted(np.broadcast_to(np.arange(pool), (k, pool)), axis=1)
                masks = np.zeros((k, dim), dtype=np.uint8)
                masks[:, positions] = ranks < declared[:, None]
            js = index_rng.integers(0, high, k)
            if repetitions:
                draws = vote_rng.random((k, repetitions))
            yield InstanceBlock(variant, dim, js, masks, declared, draws)

    return blocks()


def sample_instance(variant: str, dim: int, d=None,
                    rng: np.random.Generator | None = None) -> InstanceBlock:
    """One sampled instance as a one-row block: the first row that
    sample_blocks draws from the same generator, so each call spawns four
    fresh children of ``rng``."""
    return next(sample_blocks(variant, dim, d, 1, rng))


def instance_from_parts(variant: str, dim: int, j: int, mask) -> InstanceBlock:
    """A checked one-row block from an explicit codeword index and error mask
    (None for Fourier instances); the mask's weight is its count of ones."""
    masks = weights = None
    if mask is not None:
        masks = np.array([mask])
        weights = np.count_nonzero(masks, axis=1)
    return InstanceBlock(variant, dim, np.array([j]), masks, weights)
