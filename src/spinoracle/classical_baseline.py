"""The classical bit-query strategy and a brute-force lower-bound checker.

A classical algorithm may only read individual bits z_x of the oracle
string.  For an error-free Hadamard codeword the n probe positions
x = 2^t recover index j outright, because bit t of j equals z at x = 2^t.
Deciding j = N/2-1 against the other indices therefore costs n = log2 N
queries, and an exhaustive adversary search over deterministic decision
trees confirms at small N that no strategy does better than Theta(n).
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
