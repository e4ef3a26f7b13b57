"""Classical bit-query strategies and a brute-force lower-bound checker.

A classical algorithm may only read individual bits z_x of the oracle
string.  For an error-free Hadamard codeword the n probe positions
x = 2^t recover index j outright, because bit t of j equals z at x = 2^t.
Deciding j = N/2-1 against the other indices therefore costs n = log2 N
queries, and an exhaustive adversary search over deterministic decision
trees confirms at small N that no strategy does better than Theta(n).

The noisy strategy is a best-effort probe-set majority whose accuracy is
measured, not asserted: no matching optimality claim exists for it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .codewords import designated_index, hadamard_codeword
from .errors import ConfigError, Frozen, ResourceLimitError


class BitOracle:
    """Oracle answering single bit positions of a fixed string, counting queries."""

    def __init__(self, bits: Sequence[int] | np.ndarray):
        self.bits = np.asarray(bits)
        if self.bits.ndim != 1 or not ((self.bits == 0) | (self.bits == 1)).all():
            raise ConfigError("bit oracle needs a 0/1 string")
        self.dim = len(self.bits)
        self.queries = 0

    def query(self, x: int) -> int:
        if not 0 <= x < self.dim:
            raise ConfigError(f"bit position {x} outside Z_{self.dim}")
        self.queries += 1
        return int(self.bits[x])


class IdentifyResult(Frozen):
    __slots__ = ("j", "queries", "consistent")

    def __init__(self, j: int, queries: int, consistent: bool):
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "consistent", consistent)


def classical_identify(oracle: BitOracle, dim: int) -> IdentifyResult:
    """Recover the codeword index with exactly n = log2 N queries.

    Probes the power-of-two positions; bit t of j is the answer at x = 2^t.
    The promise is j < N/2, so a set top bit marks the answers as
    inconsistent with the promised instance class.
    """
    if oracle.dim != dim or dim & (dim - 1) or dim < 4:
        raise ConfigError(f"oracle/dim mismatch or invalid dim {dim}")
    n = dim.bit_length() - 1
    before = oracle.queries
    j = 0
    for t in range(n):
        j |= oracle.query(1 << t) << t
    return IdentifyResult(
        j=j, queries=oracle.queries - before, consistent=(j >> (n - 1)) & 1 == 0
    )


class NoisyDecision(Frozen):
    __slots__ = ("decision", "j_estimate", "queries")

    def __init__(self, decision: str, j_estimate: int, queries: int):
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "j_estimate", j_estimate)
        object.__setattr__(self, "queries", queries)


def classical_decide_noisy(
    oracle: BitOracle,
    reps_per_position: int,
    d: int,
    restricted: bool,
    rng: np.random.Generator,
) -> NoisyDecision:
    """Probe-set majority decision under at most d bit errors.

    Each index bit t is estimated from reps_per_position random probe pairs
    (x, x XOR 2^t), whose XOR equals bit t of j on an error-free string;
    a majority over the pairs outvotes errors that hit few probes.  With
    reps_per_position <= 1 this degenerates to the n-query identification.
    Query count is n for the degenerate case, 2 n reps otherwise.
    """
    del d, restricted  # the strategy is oblivious to the error model
    dim = oracle.dim
    n = dim.bit_length() - 1
    before = oracle.queries
    if reps_per_position <= 1:
        ident = classical_identify(oracle, dim)
        j = ident.j
    else:
        j = 0
        for t in range(n):
            votes = 0
            for _ in range(reps_per_position):
                x = int(rng.integers(0, dim))
                votes += oracle.query(x) ^ oracle.query(x ^ (1 << t))
            j |= (votes * 2 > reps_per_position) << t
    decision = "A" if j == designated_index(dim) else "B"
    return NoisyDecision(decision=decision, j_estimate=j, queries=oracle.queries - before)


_BRUTE_FORCE_DIMS = (4, 8, 16)


def min_decision_tree_depth(dim: int) -> int:
    """Exact minimum depth of any deterministic bit-query decision tree
    separating j = N/2-1 from j in Z_(N/2-1) over error-free codewords.

    Exhaustive adversary search with memoization on the surviving index set;
    feasible only for N in {4, 8, 16}.
    """
    if dim not in _BRUTE_FORCE_DIMS:
        raise ResourceLimitError(
            f"brute-force depth search supported only for N in {_BRUTE_FORCE_DIMS}"
        )
    words = [hadamard_codeword(dim, j).bits for j in range(dim // 2)]
    target = designated_index(dim)

    @lru_cache(maxsize=None)
    def depth(alive: frozenset) -> int:
        labels = {j == target for j in alive}
        if len(labels) == 1:
            return 0
        best = dim  # identify-then-decide never needs more than n <= dim
        for x in range(dim):
            zero = frozenset(j for j in alive if words[j][x] == 0)
            if not zero or zero == alive:
                continue  # query reveals nothing on this set
            one = alive - zero
            best = min(best, 1 + max(depth(zero), depth(one)))
        return best

    return depth(frozenset(range(dim // 2)))
