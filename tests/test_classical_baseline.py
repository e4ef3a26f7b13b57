"""Classical query strategies and the brute-force depth search."""

import numpy as np
import pytest

from spinoracle import (
    BitOracle,
    ConfigError,
    ResourceLimitError,
    classical_identify,
    hadamard_codeword,
    min_decision_tree_depth,
)


def oracle_for(dim, j):
    return BitOracle(hadamard_codeword(dim, j))


def test_identify_reference_cases():
    result = classical_identify(oracle_for(8, 4), 8)
    assert result.j == 4 and result.queries == 3
    zero = classical_identify(oracle_for(8, 0), 8)
    assert zero.j == 0 and zero.queries == 3 and zero.consistent
    big = classical_identify(oracle_for(1024, 300), 1024)
    assert big.j == 300 and big.queries == 10


@pytest.mark.parametrize("n", range(2, 11))
def test_identify_all_promised_codewords(n):
    dim = 2**n
    for j in range(dim // 2):
        oracle = oracle_for(dim, j)
        result = classical_identify(oracle, dim)
        assert result.j == j
        assert result.queries == n == oracle.queries
        assert result.consistent


def test_identify_flags_out_of_promise_index():
    # j >= N/2 contradicts the promised instance class
    result = classical_identify(oracle_for(8, 5), 8)
    assert result.j == 5 and not result.consistent


def test_query_counter_matches_answers():
    oracle = oracle_for(16, 3)
    answers = [oracle.query(x) for x in (0, 3, 3, 7, 15)]
    assert len(answers) == oracle.queries == 5
    with pytest.raises(ConfigError):
        oracle.query(16)


def test_oracle_checks_the_bit_promise():
    for bits in ([0, 1, 2, 1], [0, 1, -1, 0], [0.5, 1, 0, 1], [[0, 1], [1, 0]]):
        with pytest.raises(ConfigError):
            BitOracle(bits)
    for bits in ([0, 1, 1, 0], (True, False, True, True), np.array([1, 0, 0, 1], dtype=np.uint8)):
        oracle = BitOracle(bits)
        assert [oracle.query(x) for x in range(4)] == [int(b) for b in bits]
        assert all(type(oracle.query(x)) is int for x in range(4))


@pytest.mark.parametrize("dim", [4, 64, 1024])
def test_parity_table_bits_equal_codeword_bits(dim):
    for j in range(0, dim, max(dim // 64, 1)):
        bits = hadamard_codeword(dim, j)
        assert bits.dtype == np.uint8 and not bits.flags.writeable
        assert bits.tolist() == [(j & x).bit_count() & 1 for x in range(dim)]
    with pytest.raises(ConfigError):
        hadamard_codeword(dim, dim)


def test_min_depth_values_and_monotonicity():
    depths = {dim: min_decision_tree_depth(dim) for dim in (4, 8, 16)}
    assert 1 <= depths[4] <= 2
    assert 1 <= depths[8] <= 3
    assert depths[16] <= 4
    assert depths[4] <= depths[8] <= depths[16]
    # never beats the constructive identify-then-decide upper bound n
    for dim, depth in depths.items():
        assert depth <= dim.bit_length() - 1


def test_min_depth_resource_guard():
    with pytest.raises(ResourceLimitError):
        min_decision_tree_depth(32)
