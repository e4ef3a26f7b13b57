"""Classical query strategies and the brute-force depth search."""

import numpy as np
import pytest

from spinoracle import (
    ConfigError,
    ResourceLimitError,
    classical_identify,
    codeword_oracle,
    hadamard_codeword,
    min_decision_tree_depth,
)


def identify(dim, js):
    return classical_identify(codeword_oracle(dim, np.array(js)), dim)


def test_identify_reference_cases():
    js, queries = identify(8, [4, 0])
    assert js.tolist() == [4, 0] and queries == 3
    assert js.dtype == np.int64 and not js.flags.writeable
    big, queries = identify(1024, [300])
    assert big.tolist() == [300] and queries == 10


@pytest.mark.parametrize("n", range(2, 11))
def test_identify_all_promised_codewords(n):
    dim = 2**n
    js, queries = identify(dim, np.arange(dim // 2))
    assert js.tolist() == list(range(dim // 2))
    assert queries == n


def test_identify_flags_out_of_promise_index():
    # j >= N/2 contradicts the promised instance class, and the top bit shows it
    js, _ = identify(8, [5])
    assert js.tolist() == [5] and js[0] >= 8 // 2


def test_identify_reads_each_probe_position_once():
    asked = []

    def recording(positions):
        asked.append(np.asarray(positions).tolist())
        return codeword_oracle(64, np.array([21, 3]))(positions)

    js, queries = classical_identify(recording, 64)
    assert asked == [[1, 2, 4, 8, 16, 32]]
    assert js.tolist() == [21, 3] and queries == 6


def test_oracle_checks_the_bit_promise():
    def answering(answers):
        return lambda positions: answers

    bad = ([[0, 1, 2]], [[0, 1, -1]], [[0.5, 1, 0]], [[0.0, 1.0, 0.0]], [0, 1, 0], [[0, 1]],
           [[[0, 1, 0]]])
    for answers in bad:
        with pytest.raises(ConfigError):
            classical_identify(answering(np.array(answers)), 8)
    for answers in ([[0, 1, 1]], [[True, False, True]], np.array([[1, 0, 0]], dtype=np.uint8)):
        js, queries = classical_identify(answering(answers), 8)
        assert js.tolist() == [sum(int(b) << t for t, b in enumerate(np.ravel(answers)))]
        assert queries == 3


@pytest.mark.parametrize("js", [np.array([0, 8]), np.array([-1]), np.array([1.0]),
                                np.array([[1, 2]]), [0, 1]], ids=repr)
def test_codeword_oracle_needs_indices_in_z_n(js):
    with pytest.raises(ConfigError):
        codeword_oracle(8, js)


def test_codeword_oracle_answers_the_codeword_bits():
    oracle = codeword_oracle(16, np.array([3, 9]))
    positions = np.array([0, 3, 3, 7, 15])
    expected = [hadamard_codeword(16, j)[positions].tolist() for j in (3, 9)]
    assert oracle(positions).tolist() == expected


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
