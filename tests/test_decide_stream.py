"""The block-wise decision pipeline against one-instance-at-a-time references.

The references run each instance's word through run_pipeline and
merge_two_to_one alone and measure with Generator.choice, one call per
round.  Instance counts are chosen so that the blocks cross block
boundaries.  The enumerated and sampled blocks that solve decides are
checked the same way, against instances listed one by one or drawn one at a
time by sample_instance; the decide_* functions, which decide one block of
their variant, against the same references.
"""

import numpy as np
import pytest

from references import fourier_row, hadamard_row, xor
from spinoracle import (
    ConfigError,
    InstanceBlock,
    ResourceLimitError,
    decide_fourier,
    decide_restricted,
    decide_unrestricted,
    instance_from_parts,
    merge_two_to_one,
    run_pipeline,
    sample_instance,
    worst_case_error_mask,
)
from spinoracle import codewords
from spinoracle.codewords import BLOCK_ENTRIES, MAX_REPETITIONS, enumerate_blocks, sample_blocks
from spinoracle.oracle_circuit import decide_blocks, worst_case_spectrum


def word(block, i=0):
    """Row i's oracle string: T_j's numerators for Fourier blocks, W_j XOR mask otherwise."""
    j = int(block.js[i])
    if block.variant == "fourier":
        return fourier_row(block.dim, j)
    return xor(hadamard_row(block.dim, j), block.masks[i])


def reference_vote(z, reps, rng, transform="hadamard", pairing="symmetric", back=1):
    raw = merge_two_to_one(run_pipeline(z, transform), pairing).probabilities()
    probs = raw / raw.sum()
    dim = len(raw)
    index = dim - back
    if rng is None:
        return raw, probs, probs[index] > 0.5
    hits = sum(int(rng.choice(dim, p=probs)) == index for _ in range(reps))
    return raw, probs, hits > reps / 2


@pytest.mark.parametrize("mode", ["random", "worst"])
def test_majority_votes_match_per_round_choice(mode):
    # a one-row vote block draws its vote variates right after the instance
    dim, weight, reps, trials = 64, 3, 5, 300
    mask = None if mode == "random" else worst_case_error_mask(dim, weight)

    def ref_draw(rng):
        if mode == "random":
            return sample_instance("unrestricted", dim, weight, rng)
        return instance_from_parts("unrestricted", dim, int(rng.integers(0, dim // 2)), mask)

    rng = np.random.default_rng(11)
    ref_rng = np.random.default_rng(11)
    for _ in range(trials):
        d = weight if mask is None else None  # a fixed mask sets the weight
        [block] = sample_blocks("unrestricted", dim, d, 1, rng, reps, mask=mask)
        decided = decide_unrestricted(block)
        _, ref_probs, ref_decision = reference_vote(word(ref_draw(ref_rng)), reps, ref_rng)
        assert decided.probs[0].tobytes() == ref_probs.tobytes()
        assert decided.pr_top[0] == ref_probs[dim - 1]
        assert decided.is_a[0] == ref_decision
        assert decided.rounds == reps
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_fourier_stream_matches_single_runs_across_blocks():
    dim = 128  # 64 rows per block: 2 blocks
    assert BLOCK_ENTRIES // dim < dim
    pairs = list(decide_blocks(enumerate_blocks("fourier", dim, None)))
    assert [len(block) for block, _ in pairs] == [64, 64]
    rows = [(decided, i) for block, decided in pairs for i in range(len(block))]
    assert len(rows) == dim
    for j, (decided, i) in enumerate(rows):
        ref_raw, ref_probs, ref_decision = reference_vote(
            fourier_row(dim, j), 1, None, "fourier", "adjacent", back=2
        )
        assert decided.raw[i].tobytes() == ref_raw.tobytes()
        assert decided.pr_top[i] == ref_probs[dim - 2]
        assert decided.is_a[i] == ref_decision == (j == dim // 2 - 1)
        assert decided.rounds == 1


def test_words_longer_than_a_block_run_one_per_block():
    dim = 2 * BLOCK_ENTRIES
    rng = np.random.default_rng(5)
    blocks = list(sample_blocks("restricted", dim, 3, 2, rng))
    assert [len(block) for block in blocks] == [1, 1]
    decided = [decided for _, decided in decide_blocks(blocks)]
    assert [d.is_a.tolist() for d in decided] == [block.is_a.tolist() for block in blocks]
    ref_rng = np.random.default_rng(5)
    instances = [sample_instance("restricted", dim, 3, ref_rng) for _ in range(2)]
    assert [decide_restricted(inst).is_a.tolist() for inst in instances] == [
        inst.is_a.tolist() for inst in instances
    ]


def test_worst_case_spectrum_matches_single_run():
    dim = 64
    for weight in (0, 2, 4, 6):  # 6 lies outside the instance class
        z = xor(hadamard_row(dim, dim // 2 - 1), worst_case_error_mask(dim, weight))
        ref = merge_two_to_one(run_pipeline(z, "hadamard"), "symmetric").probabilities()
        assert worst_case_spectrum(dim, weight).tobytes() == ref.tobytes()


def test_stream_rejects_mixed_variants_and_bad_votes():
    rng = np.random.default_rng(0)
    block = sample_instance("unrestricted", 64, 2, rng)
    with pytest.raises(ConfigError):
        decide_restricted(block)
    with pytest.raises(ConfigError):
        decide_fourier(block)
    with pytest.raises(ConfigError):  # one row of vote draws per instance
        InstanceBlock(block.variant, 64, block.js, block.masks, block.weights, np.zeros((2, 3)))
    with pytest.raises(ConfigError):  # votes need a seeded Generator
        next(sample_blocks("unrestricted", 64, 2, 1, None, 3))
    state = rng.bit_generator.state
    with pytest.raises(ResourceLimitError):  # refused before a variate is drawn
        next(sample_blocks("unrestricted", 64, 2, 1, rng, MAX_REPETITIONS + 1))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("trials, reps", [(-1, 0), (2.5, 0), (1, -1), (1, 2.5)])
def test_bad_trial_and_repetition_counts_are_config_errors(trials, reps):
    with pytest.raises(ConfigError, match="must be an integer >= 0"):
        next(sample_blocks("unrestricted", 64, 2, trials, np.random.default_rng(0), reps))


def test_a_fixed_mask_passes_every_instance_check_before_a_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    even = worst_case_error_mask(64, 2)
    bad = [
        (1,) + (0,) * 7,  # shorter than N: it once marked position 0 of each 64-bit row
        np.concatenate([even, even]),  # longer than N
        worst_case_error_mask(64, 4),  # l = N/16 is outside the instance class
        np.where(even == 1, 2, 0),  # entries are bits
    ]
    for mask in bad:
        with pytest.raises(ConfigError):
            next(sample_blocks("unrestricted", 64, None, 3, rng, 5, mask=mask))
    with pytest.raises(ConfigError):  # even positions are not restricted ones
        next(sample_blocks("restricted", 64, None, 3, rng, mask=even))
    with pytest.raises(ConfigError):  # fourier instances are error-free
        next(sample_blocks("fourier", 64, None, 3, rng, mask=even))
    assert rng.bit_generator.state == state
    [block] = sample_blocks("unrestricted", 64, None, 3, rng, 5, mask=even)
    assert block.masks.tolist() == [even.tolist()] * 3 and block.weights.tolist() == [2] * 3


def sampled_rows(variant, dim, d, trials, reps, seed, mask=None):
    """(block, row) pairs of the sampled blocks solve decides, with each row's decision."""
    rng = np.random.default_rng(seed)
    blocks = sample_blocks(variant, dim, d, trials, rng, reps, mask=mask)
    rows = [(block, decided, i) for block, decided in decide_blocks(blocks) for i in range(len(block))]
    return rows, rng


def boundary_counts(dim):
    rows = BLOCK_ENTRIES // dim
    return [rows - 1, rows, rows + 1, 2 * rows + 1]


@pytest.mark.parametrize("trials", boundary_counts(128))
def test_restricted_blocks_match_sample_instance_across_boundaries(trials):
    dim = 128  # 64 rows per block
    rows, rng = sampled_rows("restricted", dim, None, trials, 0, 31)
    ref_rng = np.random.default_rng(31)
    assert len(rows) == trials
    for block, decided, i in rows:
        inst = sample_instance("restricted", dim, None, ref_rng)
        assert block.js[i] == inst.js[0]
        assert block.masks[i].tolist() == inst.masks[0].tolist()
        assert block.weights[i] == inst.weights[0]
        ref_raw, ref_probs, ref_decision = reference_vote(word(inst), 1, None)
        assert decided.raw[i].tobytes() == ref_raw.tobytes()
        assert decided.probs[i].tobytes() == ref_probs.tobytes()
        assert decided.pr_top[i] == ref_probs[dim - 1]
        assert decided.is_a[i] == ref_decision == inst.is_a[0]
        assert decided.rounds == 1
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("trials", boundary_counts(64))
@pytest.mark.parametrize("mode", ["random", "worst"])
def test_unrestricted_vote_blocks_match_per_round_choice_across_boundaries(mode, trials):
    dim, weight, reps = 64, 3, 7  # 128 rows per block
    mask = worst_case_error_mask(dim, weight) if mode == "worst" else None
    d = weight if mask is None else None  # a fixed mask sets the weight
    rows, rng = sampled_rows("unrestricted", dim, d, trials, reps, 17, mask)
    ref_rng = np.random.default_rng(17)
    assert len(rows) == trials
    for block, decided, i in rows:
        if mode == "random":
            inst = sample_instance("unrestricted", dim, weight, ref_rng)
        else:
            inst = instance_from_parts("unrestricted", dim, int(ref_rng.integers(0, dim // 2)), mask)
        assert block.js[i] == inst.js[0]
        assert block.masks[i].tolist() == inst.masks[0].tolist()
        assert block.is_a[i] == inst.is_a[0]
        ref_raw, ref_probs, ref_decision = reference_vote(word(inst), reps, ref_rng)
        assert decided.raw[i].tobytes() == ref_raw.tobytes()
        assert decided.probs[i].tobytes() == ref_probs.tobytes()
        assert decided.pr_top[i] == ref_probs[dim - 1]
        assert decided.is_a[i] == ref_decision
        assert decided.rounds == reps
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "variant, dim, d",
    [("restricted", 256, None), ("restricted", 16, 2), ("unrestricted", 64, None),
     ("unrestricted", 64, (0, 2)), ("fourier", 16, None)],
)
def test_block_sampler_draws_what_sample_instance_draws(monkeypatch, variant, dim, d):
    trials, rows = 41, 8  # five full blocks and a last one of one row
    monkeypatch.setattr(codewords, "BLOCK_ENTRIES", rows * dim)
    rng = np.random.default_rng(4)
    blocks = list(sample_blocks(variant, dim, d, trials, rng))
    ref_rng = np.random.default_rng(4)
    instances = [sample_instance(variant, dim, d, ref_rng) for _ in range(trials)]
    assert [len(block) for block in blocks] == [8] * 5 + [1]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for name in ("js", "is_a", "masks", "weights"):
        if variant == "fourier" and name in ("masks", "weights"):
            assert all(getattr(block, name) is None for block in blocks)
            continue
        got = np.concatenate([getattr(block, name) for block in blocks])
        assert got.tolist() == np.concatenate([getattr(inst, name) for inst in instances]).tolist()


def test_many_repetitions_shrink_the_vote_block_not_the_draws():
    dim, weight, reps, trials = 64, 3, 2**19 + 1, 3  # one instance's variates per block
    rng = np.random.default_rng(6)
    blocks = list(sample_blocks("unrestricted", dim, weight, trials, rng, reps))
    ref_rng = np.random.default_rng(6)
    assert [len(block) for block in blocks] == [1] * trials
    for block in blocks:
        inst = sample_instance("unrestricted", dim, weight, ref_rng)
        assert block.js[0] == inst.js[0]
        assert block.draws.tobytes() == ref_rng.random(reps).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
