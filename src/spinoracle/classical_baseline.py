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

import numpy as np

from .codewords import _check_dim, _parity_table, designated_index, hadamard_codeword
from .errors import ConfigError, ResourceLimitError


def codeword_oracle(dim: int, js: np.ndarray):
    """The bit oracle of the Hadamard codewords W_j, j in ``js``: called with an
    array of bit positions x, it answers the (len(js) x positions) block of bits
    popcount(j AND x) mod 2, read from the parity table."""
    dim = _check_dim(dim)
    if (not isinstance(js, np.ndarray) or js.dtype.kind not in "iu" or js.ndim != 1
            or np.any((js < 0) | (js >= dim))):
        raise ConfigError(f"the oracle needs a row of integer codeword indices in Z_{dim}")
    table = _parity_table(dim)
    return lambda positions: table[js[:, None] & positions]


def classical_identify(oracle, dim: int) -> tuple[np.ndarray, int]:
    """Recover every oracle string's codeword index from the n = log2 N probes.

    Asks ``oracle`` once for the positions x = 2^t; bit t of j is the answer
    at x = 2^t.  Returns the read-only int64 indices j, one per answered
    row, and the number of probe columns read.  The promise is j < N/2, so
    a recovered j >= N/2 marks a string outside the promised instance class.
    """
    if not callable(oracle):
        raise ConfigError(f"the oracle must be callable, got {type(oracle).__name__}")
    dim = _check_dim(dim)
    n = dim.bit_length() - 1
    positions = 1 << np.arange(n, dtype=np.int64)
    bits = np.asarray(oracle(positions))
    if (bits.ndim != 2 or bits.shape[1] != n or bits.dtype.kind not in "biu"
            or np.any((bits != 0) & (bits != 1))):
        raise ConfigError(f"the oracle must answer a (rows, {n}) block of 0/1 bits")
    js = bits.astype(np.int64) @ positions
    js.flags.writeable = False
    return js, bits.shape[1]


BRUTE_FORCE_DIMS = (4, 8, 16)


def min_decision_tree_depth(dim: int) -> int:
    """Exact minimum depth of any deterministic bit-query decision tree
    separating j = N/2-1 from j in Z_(N/2-1) over error-free codewords.

    Exhaustive adversary search with memoization on the surviving index set;
    feasible only for N in {4, 8, 16}.
    """
    dim = _check_dim(dim)
    if dim not in BRUTE_FORCE_DIMS:
        raise ResourceLimitError(
            f"brute-force depth search supported only for N in {BRUTE_FORCE_DIMS}"
        )
    words = [hadamard_codeword(dim, j).tolist() for j in range(dim // 2)]
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
