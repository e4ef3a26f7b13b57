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
is exactly the error pattern the quantum pipeline cancels.  _instance_class
states each variant's instances once: j in Z_(N/2) with d < N/4 on the
odd-parity positions (restricted) or d < N/16 anywhere (unrestricted), and
every j in Z_N with no error (Fourier).  Sampling, enumeration and every
block check read it.

oracle_phases is the one phase rule: the transform says how to read a word,
bits b as 1 - 2b and Fourier numerators r as e^(i pi r/N).

Problem instances live in InstanceBlocks: a block of instances held as
arrays (the codeword indices, a rows x N mask block whose row sums are the
error weights, the majority-vote variates) and checked once as a whole
against the instance class.  They hold the codeword index and the mask,
never a string to be checked against a rebuilt copy, and their oracle
phases come from the integer words (the parity table of popcount(x) mod 2
for Hadamard words, the residues 2jk mod 2N for Fourier words).
enumerate_blocks lists them in the one enumeration order.  sample_blocks
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
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateInstanceError, Frozen, ResourceLimitError
from .spin_core import MAX_EXPONENT, MIN_EXPONENT

VARIANTS = ("restricted", "unrestricted", "fourier")
_ENUMERATION_LIMIT = 10 ** 6
MAX_REPETITIONS = 2**20  # majority-vote draws per instance, and per block: 8 MB
BLOCK_BYTES = 2**17  # of float64 rows per circuit block: 256 rows at N = 64

RESTRICTED = "restricted"
UNRESTRICTED = "unrestricted"
FOURIER = "fourier"


def _is_integer(value) -> bool:
    """True for a Python or numpy integer that is no bool: bools are not indices or counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _fourier_residues(dim: int, j) -> np.ndarray:
    """Numerators r of T_j = r/N: 2jk mod 2N moved into (-N, N].

    ``j`` is an index, or a column of indices for one row each.
    """
    r = np.arange(dim, dtype=np.int64) * (2 * j) % (2 * dim)
    return np.where(r > dim, r - 2 * dim, r)


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


def _check_index(dim: int, j) -> int:
    dim = _check_dim(dim)
    if not _is_integer(j) or not 0 <= j < dim:
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


class _InstanceClass(NamedTuple):
    """One variant's instances at length dim: a codeword index in
    Z_codewords, and an error mask of weight below bound, whose errors sit
    only on the odd-parity positions (where W_(N-1) has a one) if restricted."""

    dim: int
    codewords: int
    restricted: bool
    bound: int | float

    @property
    def weights(self) -> range:
        """The admitted error weights, as a range: membership is O(1)."""
        return range(math.ceil(self.bound))

    def positions(self) -> np.ndarray:
        """The positions an error may touch."""
        return np.flatnonzero(_parity_table(self.dim)) if self.restricted else np.arange(self.dim)


def _instance_class(variant: str, dim: int) -> _InstanceClass:
    """The variant's instance class at length dim, as the module docstring
    states it; the variant and dim are checked here."""
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    dim = _check_dim(dim)
    if variant == FOURIER:
        return _InstanceClass(dim, dim, False, 1)
    restricted = variant == RESTRICTED
    return _InstanceClass(dim, dim // 2, restricted, dim // 4 if restricted else dim / 16)


def _syndrome_counts(pool: int, weights) -> list[int]:
    """C(pool, m) for each weight m, from one exact pass of
    C(pool, m + 1) = C(pool, m) (pool - m) / (m + 1), not one binomial per class."""
    table = [1]
    for m in range(max(weights)):
        table.append(table[-1] * (pool - m) // (m + 1))
    return [table[m] for m in weights]


def _resolve_weights(variant: str, dim: int, d) -> list[int]:
    """The admitted weights that d selects: all of them for None, else those
    of the integer or integers d that the instance class admits."""
    valid = _instance_class(variant, dim).weights
    if d is None:
        requested = valid
    elif _is_integer(d):
        requested = [int(d)]
    else:
        try:
            items = list(d)
        except TypeError:  # d is no iterable
            items = [d]
        if not all(_is_integer(m) for m in items):
            raise ConfigError(f"error weight d must be an integer or integers, got {d!r}")
        requested = sorted(int(m) for m in items)
    if variant == FOURIER and list(requested) != [0]:
        raise ConfigError("fourier instances are error-free (d must be 0)")
    chosen = [m for m in requested if m in valid]
    if not chosen:
        raise DegenerateInstanceError(
            f"{variant} instance class empty for N={dim}, d={d!r} "
            f"(valid weights {valid[0]}..{valid[-1]})"
        )
    return chosen


@functools.lru_cache(maxsize=64)
def _weight_probabilities(variant: str, dim: int, weights: tuple[int, ...]) -> np.ndarray:
    """Each weight class's share of the union, in proportion to its syndrome count."""
    counts = _syndrome_counts(len(_instance_class(variant, dim).positions()), weights)
    # float(c) / float(total) is numpy's int64 division wherever the counts
    # fit in int64; past 2^1000 a common shift keeps float() finite
    shift = max(sum(counts).bit_length() - 1000, 0)
    probs = np.array([float(c >> shift) for c in counts]) / float(sum(counts) >> shift)
    probs.flags.writeable = False
    return probs


class InstanceBlock(Frozen):
    """A block of instances of one variant, held as arrays and checked once.

    js are the codeword indices; masks is the (rows x N) uint8 error-mask
    block (None for Fourier), whose row sums are the error weights; draws
    holds each row's majority-vote variates (a 2-D float array, one non-empty
    row per instance), or is None for exact decisions.
    Every instance check runs here, against the variant's instance class and
    once over the whole block, after the arrays are made read-only so no
    check can be undone.  Blocks compare by identity.
    """

    __slots__ = ("variant", "dim", "js", "masks", "draws")
    _optional = ("masks", "draws")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _check(self):
        cls = _instance_class(self.variant, self.dim)
        for name in ("js", *self._optional):
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) or value is None and name in self._optional):
                raise ConfigError(f"InstanceBlock {name} must be an ndarray, "
                                  f"got {type(value).__name__}")
        js, masks = self.js, self.masks
        if js.dtype.kind not in "iu" or js.ndim != 1 or not len(js):
            raise ConfigError("a block needs a non-empty row of integer codeword indices")
        if js.min() < 0 or js.max() >= cls.codewords:
            raise ConfigError(f"codeword index outside Z_{cls.codewords} in {js.tolist()}")
        draws = self.draws
        if draws is not None and not (draws.ndim == 2 and draws.dtype.kind == "f"
                                      and draws.shape[0] == len(js) and draws.shape[1]):
            raise ConfigError("vote draws are a 2-D float array: one non-empty row per instance")
        if self.variant == FOURIER:
            if masks is not None:
                raise ConfigError("fourier instances carry no error syndrome")
            return
        if masks is None or masks.shape != (len(js), cls.dim):
            raise ConfigError("syndrome missing or of wrong length")
        if masks.dtype.kind not in "biu" or masks.min() < 0 or masks.max() > 1:
            raise ConfigError("mask entries must be 0 or 1")
        if cls.restricted and np.any(masks > _parity_table(cls.dim)):
            raise ConfigError("restricted mask not dominated by W_(N-1)")
        heaviest = masks.sum(axis=1).max()
        if not heaviest < cls.bound:
            raise ConfigError(f"{self.variant} weight {heaviest} not below {cls.bound}")

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


def _block_rows(dim: int) -> int:
    """Rows per circuit block: BLOCK_BYTES of float64 rows (the phase rows of
    a block transformed row by row, else its gathered spectra), at least one."""
    return max(BLOCK_BYTES // (8 * dim), 1)


def enumerate_blocks(variant: str, dim: int, d) -> Iterator[InstanceBlock]:
    """Every instance of the variant in blocks of BLOCK_BYTES of float64 rows
    (at least one row), in the one enumeration order.

    j runs outer over the instance class's codeword indices, then the weight
    class (d resolved as sampling resolves it), then itertools.combinations
    over the error positions.  Enumeration is refused above 10^6 masks in a
    weight class.
    """
    cls = _instance_class(variant, dim)
    weights = _resolve_weights(variant, cls.dim, d)
    positions = tuple(cls.positions().tolist())  # not copied per j
    for m in weights:
        count = math.comb(len(positions), m)
        if count > _ENUMERATION_LIMIT:
            raise ResourceLimitError(
                f"{count} syndromes exceed the enumeration limit; sample instead"
            )
    trials = ((j, cols) for j in range(cls.codewords)
              for m in weights for cols in itertools.combinations(positions, m))
    rows = _block_rows(cls.dim)
    while parts := list(itertools.islice(trials, rows)):
        js, cols = zip(*parts)
        masks = None
        if variant != FOURIER:
            counts = [len(c) for c in cols]
            masks = np.zeros((len(parts), cls.dim), dtype=np.uint8)
            masks[np.repeat(np.arange(len(parts)), counts),
                  np.fromiter(itertools.chain.from_iterable(cols), np.intp, sum(counts))] = 1
        yield InstanceBlock(variant, cls.dim, np.array(js, dtype=np.int64), masks)


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
    ``repetitions`` uniform vote variates.  A block holds BLOCK_BYTES of
    float64 rows (at least one row) and at most MAX_REPETITIONS variates, but
    the draws, and so every result, do not depend on its rows.  Zero trials
    check no instance class and spawn nothing.
    """
    for name, count in (("trials", trials), ("repetitions", repetitions)):
        if not _is_integer(count) or count < 0:
            raise ConfigError(f"{name} must be an integer >= 0, got {count!r}")
    if mask is not None and d is not None:
        raise ConfigError(f"a fixed mask sets the error weight; d must be None, got {d!r}")
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"sampling requires an explicit seeded numpy Generator, "
                          f"got {type(rng).__name__}")
    if repetitions > MAX_REPETITIONS:
        raise ResourceLimitError(f"repetitions {repetitions} above the cap {MAX_REPETITIONS}")
    cls = _instance_class(variant, dim)
    dim = cls.dim
    if not trials:
        return iter(())
    fixed = classes = None
    if mask is not None:  # checked as a one-row block: every instance check applies
        fixed = instance_from_parts(variant, dim, 0, mask).masks
    else:
        weights = tuple(_resolve_weights(variant, dim, d))
        if variant != FOURIER:
            classes, cdf = np.array(weights), _weight_probabilities(variant, dim, weights).cumsum()
            cdf /= cdf[-1]
            positions = cls.positions()
            pool = len(positions)
    try:
        weight_rng, position_rng, index_rng, vote_rng = rng.spawn(4)
    except TypeError as exc:  # a bit generator seeded without a SeedSequence
        raise ConfigError(f"sampling needs a Generator that can spawn: {exc}") from None
    rows = _block_rows(dim)
    if repetitions:
        rows = max(1, min(rows, MAX_REPETITIONS // repetitions))

    def blocks():
        for start in range(0, trials, rows):
            k = min(rows, trials - start)
            masks = draws = None
            if fixed is not None:
                masks = np.broadcast_to(fixed, (k, dim))
            elif classes is not None:  # the ranks below a row's weight mark its errors
                drawn = classes[np.searchsorted(cdf, weight_rng.random(k), side="right")]
                ranks = position_rng.permuted(np.broadcast_to(np.arange(pool), (k, pool)), axis=1)
                masks = np.zeros((k, dim), dtype=np.uint8)
                masks[:, positions] = ranks < drawn[:, None]
            js = index_rng.integers(0, cls.codewords, k)
            if repetitions:
                draws = vote_rng.random((k, repetitions))
            yield InstanceBlock(variant, dim, js, masks, draws)

    return blocks()


def sample_instance(variant: str, dim: int, d=None,
                    rng: np.random.Generator | None = None) -> InstanceBlock:
    """One sampled instance as a one-row block: the first row that
    sample_blocks draws from the same generator, so each call spawns four
    fresh children of ``rng``."""
    return next(sample_blocks(variant, dim, d, 1, rng))


def instance_from_parts(variant: str, dim: int, j: int, mask) -> InstanceBlock:
    """A checked one-row block from an explicit codeword index and error mask
    (None for Fourier instances)."""
    masks = None if mask is None else np.array([mask])
    return InstanceBlock(variant, dim, np.array([j]), masks)
