"""Codeword tables, error masks, group laws, and instance sampling."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from references import (
    bit_phases,
    fourier_fractions,
    fraction_phases,
    hadamard_row,
    xor,
)
from spinoracle import (
    ConfigError,
    DegenerateInstanceError,
    ResourceLimitError,
    fourier_codeword,
    group_properties_check,
    hadamard_codeword,
    instance_from_parts,
    restricted_set_size,
    sample_instance,
)
from spinoracle.codewords import (
    InstanceBlock,
    _weight_probabilities,
    enumerate_blocks,
    sample_blocks,
)

W4_ROWS = ["0000", "0101", "0011", "0110"]

T8_ROWS = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, "1/4", "1/2", "3/4", 1, "-3/4", "-1/2", "-1/4"],
    [0, "1/2", 1, "-1/2", 0, "1/2", 1, "-1/2"],
    [0, "3/4", "-1/2", "1/4", 1, "-1/4", "1/2", "-3/4"],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [0, "-3/4", "1/2", "-1/4", 1, "1/4", "-1/2", "3/4"],
    [0, "-1/2", 1, "1/2", 0, "-1/2", 1, "1/2"],
    [0, "-1/4", "-1/2", "-3/4", 1, "3/4", "1/2", "1/4"],
]


def differing_positions(a, b):
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def bit_string(bits):
    return "".join(map(str, bits.tolist()))


def fractions(numerators, dim):
    """A Fourier word's entries r/N as exact Fractions."""
    return tuple(Fraction(r, dim) for r in numerators.tolist())


def test_w4_rows_match_table():
    for j, row in enumerate(W4_ROWS):
        assert bit_string(hadamard_codeword(4, j)) == row


def test_w8_reference_rows():
    assert bit_string(hadamard_codeword(8, 7)) == "01101001"
    assert bit_string(hadamard_codeword(8, 4)) == "00001111"


def test_t8_matrix_matches_table_exactly():
    for j, row in enumerate(T8_ROWS):
        expected = tuple(Fraction(v) for v in row)
        assert fractions(fourier_codeword(8, j), 8) == expected


def test_fourier_edge_rows():
    assert fractions(fourier_codeword(8, 0), 8) == (Fraction(0),) * 8
    text = ",".join(map(str, fractions(fourier_codeword(8, 1), 8)))
    assert text == "0,1/4,1/2,3/4,1,-3/4,-1/2,-1/4"


def test_codewords_are_read_only_integer_rows():
    for word, dtype in ((hadamard_codeword(8, 5), np.uint8), (fourier_codeword(8, 5), np.int64)):
        assert word.dtype == dtype and word.shape == (8,)
        with pytest.raises(ValueError):
            word[0] = 1
    for j in (-1, 8, 2.0):
        for build in (hadamard_codeword, fourier_codeword):
            with pytest.raises(ConfigError):
                build(8, j)


@pytest.mark.parametrize("dim", [4, 8, 16, 64])
def test_balance_and_pairwise_distance(dim):
    words = [hadamard_codeword(dim, j) for j in range(dim)]
    assert sum(words[0].tolist()) == 0
    for w in words[1:]:
        assert sum(w.tolist()) == dim // 2
    for j in range(dim):
        for k in range(j + 1, dim):
            assert differing_positions(words[j], words[k]) == dim // 2
    assert differing_positions(words[3], words[3]) == 0


def enumerated_masks(dim, d, j):
    """The restricted weight-d masks enumerate_blocks lists for codeword index j."""
    return [tuple(mask) for block in enumerate_blocks("restricted", dim, d)
            for mask in block.masks[block.js == j].tolist()]


def test_restricted_syndromes_d1_applied_to_w4():
    base = hadamard_codeword(8, 4)
    got = {"".join(map(str, xor(base, mask))) for mask in enumerated_masks(8, 1, 0)}
    assert got == {"01001111", "00101111", "00000111", "00001110"}


def test_restricted_syndromes_d2_applied_to_w4():
    # weight 2 lies in the restricted class from N = 16 on: W_4 with two of
    # its eight odd-parity positions flipped, each pair once
    base = hadamard_codeword(16, 4)
    odd = [x for x in range(16) if x.bit_count() % 2]
    expected = set()
    for a, b in itertools.combinations(odd, 2):
        flipped = base.tolist()
        flipped[a] ^= 1
        flipped[b] ^= 1
        expected.add("".join(map(str, flipped)))
    listed = [xor(base, mask) for mask in enumerated_masks(16, 2, 0)]
    assert {"".join(map(str, z)) for z in listed} == expected
    assert len(listed) == len(expected) == 28


def test_syndrome_counts_and_zero_weight():
    only = enumerated_masks(8, 0, 0)
    assert len(only) == 1 and sum(only[0]) == 0
    for dim in (8, 16):
        for m in range(dim // 4):
            listed = enumerated_masks(dim, m, 1)
            assert len(listed) == math.comb(dim // 2, m)
            assert len(set(listed)) == len(listed)


def test_restricted_masks_are_dominated():
    guard = hadamard_codeword(16, 15)
    for mask in enumerated_masks(16, 3, 0):
        assert all(g == 1 for m, g in zip(mask, guard) if m)


def test_syndrome_checks_are_the_block_mask_checks():
    dim = 16

    def mask(*entries):
        return entries + (0,) * (dim - len(entries))

    bad = [
        (mask(0, 1), 2),  # weight not the declared one
        (mask(1, 0), 1),  # restricted mask not dominated by W_(N-1)
        (mask(0, 1)[:6], 1),  # mask length not N
        (mask(2, 0), 2),  # entries are bits
        (mask(-1, 1), 0),
        (np.array(mask(0, 1), dtype=float), 1),  # entries are integers
    ]
    for row, weight in bad:
        with pytest.raises(ConfigError):
            InstanceBlock("restricted", dim, np.array([0]), np.array([row]), np.array([weight]))
    for row, _ in bad[1:]:  # instance_from_parts declares each mask's count of ones
        with pytest.raises(ConfigError):
            instance_from_parts("restricted", dim, 0, row)
    assert instance_from_parts("restricted", dim, 0, mask(0, 1)).weights.tolist() == [1]


def test_restricted_set_size():
    assert restricted_set_size(8) == 5
    assert restricted_set_size(16) == 93
    for dim in (8, 16, 32):
        closed = (2 ** (dim // 2) - math.comb(dim // 2, dim // 4)) // 2
        assert restricted_set_size(dim) == closed


@pytest.mark.parametrize("dim", [4, 8, 16, 64])
def test_group_laws(dim):
    report = group_properties_check(dim)
    assert report.passed, report.failures
    assert len(report.laws_checked) == 5


def test_xor_of_rows_is_a_row():
    w = [hadamard_codeword(4, j) for j in range(4)]
    assert xor(w[1], w[2]) == w[3].tolist()


def test_t0_is_additive_identity():
    t0 = fractions(fourier_codeword(8, 0), 8)
    t5 = fractions(fourier_codeword(8, 5), 8)
    summed = tuple(a + b for a, b in zip(t0, t5))
    assert summed == t5


def test_sample_restricted_instance():
    rng = np.random.default_rng(5)
    seen_labels = set()
    for _ in range(50):
        block = sample_instance("restricted", 8, None, rng)
        assert len(block) == 1
        seen_labels.add(bool(block.is_a[0]))
        assert block.weights[0] < 2
        z = xor(hadamard_row(8, int(block.js[0])), block.masks[0])
        assert block.phases().tobytes() == bit_phases(z)[None].tobytes()
        assert block.is_a[0] == (block.js[0] == 3)
    assert seen_labels == {True, False}


def test_sample_is_deterministic_per_seed():
    def draw():
        rng = np.random.default_rng(9)
        return [sample_instance("restricted", 16, None, rng) for _ in range(5)]

    for a, b in zip(draw(), draw()):
        assert a.js.tolist() == b.js.tolist() and a.masks.tolist() == b.masks.tolist()


def test_sample_requires_rng():
    with pytest.raises(ConfigError):
        sample_instance("restricted", 8, None, None)


def test_unrestricted_weight_guards():
    rng = np.random.default_rng(0)
    block = sample_instance("unrestricted", 16, None, rng)
    assert block.weights.tolist() == [0]  # only d=0 exists below N/16 = 1
    with pytest.raises(DegenerateInstanceError):
        sample_instance("unrestricted", 16, 1, rng)
    with pytest.raises(DegenerateInstanceError):
        sample_instance("unrestricted", 8, 1, rng)
    ok = sample_instance("unrestricted", 64, 3, rng)
    assert ok.weights.tolist() == [3] and ok.variant == "unrestricted"


def test_fourier_instances():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(80):
        block = sample_instance("fourier", 8, None, rng)
        j = int(block.js[0])
        seen.add(j)
        assert block.phases().tobytes() == fraction_phases(fourier_fractions(8, j))[None].tobytes()
        assert block.masks is None and block.weights is None
    assert seen == set(range(8))  # j ranges over all of Z_N
    with pytest.raises(ConfigError):
        sample_instance("fourier", 8, 2, rng)


def enumerated_rows(variant, dim, d=None):
    return sum(len(block) for block in enumerate_blocks(variant, dim, d))


def test_enumerate_instances_counts():
    per_codeword = restricted_set_size(8)
    assert enumerated_rows("restricted", 8) == per_codeword * 4
    labels_a = sum(int(block.is_a.sum()) for block in enumerate_blocks("restricted", 8, None))
    assert labels_a == per_codeword
    assert enumerated_rows("fourier", 8) == 8
    assert enumerated_rows("fourier", 8, 0) == 8
    with pytest.raises(ConfigError):  # Fourier instances are error-free, as in sample_instance
        enumerated_rows("fourier", 8, 1)


def test_empty_class_message_gives_the_weight_range():
    # one short line, though 4096 weights are valid at N = 16384
    with pytest.raises(DegenerateInstanceError, match=r"\(valid weights 0\.\.4095\)$"):
        sample_instance("restricted", 16384, 9999, np.random.default_rng(0))


def test_sample_syndrome_uniformity_sanity():
    rng = np.random.default_rng(11)
    [block] = sample_blocks("restricted", 8, 1, 200, rng)
    masks = {tuple(mask) for mask in block.masks.tolist()}
    assert len(masks) == 4  # all four restricted single-error masks show up


@pytest.mark.parametrize("dim", [256, 2048, 16384])
def test_restricted_sampling_past_int64_counts(dim):
    # the weight-class counts C(N/2, d) pass int64 at N = 256 and 2^1024 at N = 4096
    rng = np.random.default_rng(3)
    block = sample_instance("restricted", dim, None, rng)
    assert block.weights[0] < dim // 4
    assert sample_instance("restricted", dim, 20, rng).weights.tolist() == [20]
    # the one-pass counts give the same floats as one math.comb per class; at
    # N = 16384 every 64th class is checked, since 4096 math.comb calls take 4 s
    pool = dim // 2
    probs = _weight_probabilities("restricted", dim, tuple(range(pool // 2)))
    total = (2**pool - math.comb(pool, pool // 2)) // 2  # sum of C(pool, d), d < pool/2
    shift = max(total.bit_length() - 1000, 0)
    step = 1 if dim <= 2048 else 64
    for d in [*range(0, pool // 2, step), pool // 2 - 1]:
        expected = float(math.comb(pool, d) >> shift) / float(total >> shift)
        assert probs[d] == expected, d


def max_phase_gap(block, phases):
    """The largest gap between a block's phase rows and reference phase rows."""
    return float(np.max(np.abs(block.phases() - np.stack(phases))))


def hadamard_phases(block):
    return [bit_phases(xor(hadamard_row(block.dim, j), mask))
            for j, mask in zip(block.js.tolist(), block.masks)]


@pytest.mark.parametrize("dim", [8, 64, 1024])
def test_fourier_phases_equal_phase_oracle_bitwise(dim):
    for block in enumerate_blocks("fourier", dim, None):
        phases = [fraction_phases(fourier_fractions(dim, j)) for j in block.js.tolist()]
        assert max_phase_gap(block, phases) == 0.0


def test_restricted_phases_equal_phase_oracle_bitwise():
    blocks = list(enumerate_blocks("restricted", 16, None))
    assert sum(len(block) for block in blocks) == 8 * restricted_set_size(16)
    for block in blocks:
        assert max_phase_gap(block, hadamard_phases(block)) == 0.0


def test_unrestricted_phases_equal_phase_oracle_bitwise():
    rng = np.random.default_rng(21)
    for d in (None, 0, 1, 2, 3):  # None draws the weight too, mostly d = 3 at N = 64
        for block in sample_blocks("unrestricted", 64, d, 40, rng):
            assert max_phase_gap(block, hadamard_phases(block)) == 0.0


def mask_at(dim, *positions):
    return tuple(int(x in positions) for x in range(dim))


@pytest.mark.parametrize("j", [-1, 8, 9, 2.0])
def test_instance_index_outside_z_n_is_rejected(j):
    with pytest.raises(ConfigError):
        instance_from_parts("fourier", 8, j, None)
    with pytest.raises(ConfigError):
        instance_from_parts("restricted", 8, j, mask_at(8, 1))


def test_instance_checks_survive_without_a_stored_string():
    with pytest.raises(ConfigError):
        instance_from_parts("restricted", 16, 0, mask_at(8, 1))  # mask of length 8
    with pytest.raises(ConfigError):
        instance_from_parts("fourier", 8, 0, mask_at(8))
    with pytest.raises(ConfigError):
        instance_from_parts("restricted", 8, 0, None)
    with pytest.raises(ConfigError):
        instance_from_parts("restricted", 12, 0, None)  # N not a power of two
    with pytest.raises(ConfigError):
        instance_from_parts("restricted", 16, 0, mask_at(16, 1, 2, 4, 7))  # d = N/4
    with pytest.raises(ConfigError):  # position 3 has even parity: not a restricted mask
        instance_from_parts("restricted", 8, 0, mask_at(8, 3))
    block = instance_from_parts("restricted", 8, 3, mask_at(8, 2))
    assert block.is_a.tolist() == [True]  # j* = 3 is label A
    z = xor(hadamard_row(8, 3), mask_at(8, 2))
    assert block.phases().tobytes() == bit_phases(z)[None].tobytes()


@pytest.mark.parametrize(
    "variant, dim, d, block_count",
    [("restricted", 8, None, 1), ("restricted", 8, 1, 1), ("restricted", 16, None, 2),
     ("restricted", 16, 2, 1), ("fourier", 128, None, 2)],
)
def test_enumerated_blocks_hold_enumerate_instances_row_for_row(variant, dim, d, block_count):
    # the enumeration order, spelled out: j outer, then the weight class, then
    # itertools.combinations over the error positions
    blocks = list(enumerate_blocks(variant, dim, d))  # solve's blocks
    if variant == "fourier":
        expected = [(j, ()) for j in range(dim)]
    else:
        odd = [x for x in range(dim) if x.bit_count() % 2]
        weights = range(dim // 4) if d is None else [d]
        expected = [(j, cols) for j in range(dim // 2) for m in weights
                    for cols in itertools.combinations(odd, m)]
    assert len(blocks) == block_count
    assert sum(len(block) for block in blocks) == len(expected)
    js = np.concatenate([block.js for block in blocks])
    assert js.tolist() == [j for j, _ in expected]
    is_a = np.concatenate([block.is_a for block in blocks])
    assert is_a.tolist() == [j == dim // 2 - 1 for j, _ in expected]
    if variant == "fourier":
        assert all(block.masks is None and block.weights is None for block in blocks)
        phases = [fraction_phases(fourier_fractions(dim, j)) for j, _ in expected]
    else:
        masks = np.concatenate([block.masks for block in blocks])
        assert [tuple(np.flatnonzero(row).tolist()) for row in masks] == [c for _, c in expected]
        weights = np.concatenate([block.weights for block in blocks])
        assert weights.tolist() == [len(c) for _, c in expected]
        phases = [bit_phases(xor(hadamard_row(dim, j), mask_at(dim, *c))) for j, c in expected]
    got = np.concatenate([block.phases() for block in blocks])
    assert got.tobytes() == np.stack(phases).tobytes()


def test_enumeration_checks_survive_in_blocks():
    with pytest.raises(ConfigError):  # Fourier instances are error-free
        list(enumerate_blocks("fourier", 8, 1))
    with pytest.raises(ConfigError):
        list(enumerate_blocks("bogus", 8, None))
    with pytest.raises(DegenerateInstanceError):  # d = 2 is not below N/4 at N = 8
        list(enumerate_blocks("restricted", 8, 2))
    with pytest.raises(ResourceLimitError):  # C(32, 7) masks in one weight class
        next(enumerate_blocks("restricted", 64, None))


def test_instance_block_runs_every_instance_check():
    dim = 16
    js = np.array([3, 5])
    masks = np.zeros((2, dim), dtype=np.uint8)
    masks[0, 1] = masks[1, 2] = 1  # positions 1 and 2 have odd parity
    ok = dict(variant="restricted", dim=dim, js=js, masks=masks, weights=np.array([1, 1]))
    assert len(InstanceBlock(**ok)) == 2
    bad = masks.copy()
    bad[1, 3] = 1  # position 3 has even parity
    cases = [
        dict(weights=np.array([1, 2])),  # weight not the declared one
        dict(masks=bad, weights=np.array([1, 2])),  # restricted mask not dominated by W_(N-1)
        dict(js=np.array([3, 16])),  # j outside Z_N
        dict(js=np.array([-1, 5])),
        dict(js=np.array([3.0, 5.0])),  # not integers
        dict(masks=masks[:, :8]),  # wrong length
        dict(masks=None),  # syndrome missing
        dict(weights=None),  # declared weights missing
        dict(weights=np.array([1, 1, 1])),  # one declared weight per row
        dict(dim=12),  # N not a power of two
        dict(variant="bogus"),
        dict(draws=np.zeros((3, 5))),  # one row of draws per instance
    ]
    for change in cases:
        with pytest.raises(ConfigError):
            InstanceBlock(**(ok | change))
    heavy = np.zeros((1, dim), dtype=np.uint8)
    heavy[0, [1, 2, 4, 7]] = 1  # weight N/4 is not below the bound
    with pytest.raises(ConfigError):
        InstanceBlock("restricted", dim, np.array([0]), heavy, np.array([4]))
    unrestricted = np.zeros((1, dim), dtype=np.uint8)
    unrestricted[0, 0] = 1  # weight 1 is not below N/16 = 1
    with pytest.raises(ConfigError):
        InstanceBlock("unrestricted", dim, np.array([0]), unrestricted, np.array([1]))
    with pytest.raises(ConfigError):
        InstanceBlock("fourier", dim, js, masks, np.array([1, 1]))


def test_instance_block_arrays_are_read_only_once_checked():
    # a block's checks hold only if its arrays cannot be written afterwards,
    # e.g. js[0] = j* = 3 on a checked block
    rng = np.random.default_rng(0)
    [block] = sample_blocks("restricted", 8, None, 2, rng, repetitions=3)
    assert not block.is_a[0]
    for name, index, value in [("js", 0, 3), ("masks", (0, 1), 1), ("weights", 0, 2),
                               ("draws", (0, 0), 0.5)]:
        with pytest.raises(ValueError):
            getattr(block, name)[index] = value
    assert not block.is_a[0]


@pytest.mark.parametrize(
    "variant, dim, d", [("restricted", 256, None), ("unrestricted", 64, None),
                        ("unrestricted", 128, (0, 3, 7)), ("restricted", 16, 2)],
)
def test_sampling_draws_in_the_documented_order(variant, dim, d):
    # the draw order of the seeded outputs, spelled out with Generator calls
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    pool = [x for x in range(dim) if not variant == "restricted" or x.bit_count() % 2]
    bound = dim // 4 if variant == "restricted" else dim / 16
    weights = [m for m in range(dim) if m < bound] if d is None else [d] if isinstance(d, int) else d
    for _ in range(50):
        block = sample_instance(variant, dim, d, rng)
        p = _weight_probabilities(variant, dim, tuple(weights))
        weight = weights[int(ref.choice(len(weights), p=p))]
        chosen = ref.choice(len(pool), size=weight, replace=False) if weight else []
        j = int(ref.integers(0, dim // 2))
        assert block.js.tolist() == [j]
        assert block.masks[0].tolist() == [int(x in {pool[i] for i in chosen}) for x in range(dim)]
    assert rng.bit_generator.state == ref.bit_generator.state


class _FixedUniform:
    """A Generator stand-in whose random() returns given values."""

    def __init__(self, values):
        self.values = list(values)
        self.rng = np.random.default_rng(0)

    def random(self):
        return self.values.pop(0)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_weight_class_draw_on_a_cdf_value_goes_right():
    # Generator.choice(p=...) maps u to cdf.searchsorted(u, side="right")
    dim, weights = 128, (0, 3, 7)
    p = _weight_probabilities("unrestricted", dim, weights)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for u in [0.0, *cdf[:-1], *np.nextafter(cdf[:-1], 0)]:
        block = sample_instance("unrestricted", dim, weights, _FixedUniform([u]))
        assert block.weights.tolist() == [weights[int(cdf.searchsorted(u, side="right"))]]
