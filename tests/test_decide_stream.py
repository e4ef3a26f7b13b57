"""The block-wise decision pipeline against one-instance-at-a-time references.

The references run each instance's word through run_pipeline and
merge_two_to_one alone and measure with Generator.choice, one call per
round.  Instance counts are chosen so that the blocks cross block
boundaries.  The enumerated and sampled blocks that solve decides are
checked the same way, against instances listed one by one or drawn one at a
time from the same four spawned children (references.reference_trials); the
decide_* functions, which decide one block of their variant, against the
same references.  Where a test pins the draws, every child the sampler
spawned must have drawn exactly what its reference twin drew.
"""

import numpy as np
import pytest

from references import (
    assert_same_streams,
    fourier_row,
    hadamard_row,
    recorded_rng,
    reference_trials,
    xor,
)
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
from spinoracle.codewords import BLOCK_BYTES, MAX_REPETITIONS, enumerate_blocks, sample_blocks
from spinoracle.oracle_circuit import decide_blocks, worst_case_spectrum

# bytes of one oracle phase entry: float64 for Hadamard words, complex128 for Fourier ones
ENTRY_BYTES = {"restricted": 8, "unrestricted": 8, "fourier": 16}


def block_rows(variant, dim):
    """The rows of a full block at the default budget, as BLOCK_BYTES sets them."""
    return BLOCK_BYTES // (ENTRY_BYTES[variant] * dim)


def word(block, i=0):
    """Row i's oracle string: T_j's numerators for Fourier blocks, W_j XOR mask otherwise."""
    j = int(block.js[i])
    if block.variant == "fourier":
        return fourier_row(block.dim, j)
    return xor(hadamard_row(block.dim, j), block.masks[i])


def reference_instance(variant, dim, trial):
    """The checked one-row block of a reference trial (j, mask bits, ...)."""
    return instance_from_parts(variant, dim, trial[0], trial[1])


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
    # each one-row vote block spawns its own four children: its vote
    # variates come from the fourth, one Generator.choice per round
    dim, weight, reps, trials = 64, 3, 5, 300
    mask = None if mode == "random" else worst_case_error_mask(dim, weight)
    d = weight if mask is None else None  # a fixed mask sets the weight
    rng, ref_rng = recorded_rng(11), recorded_rng(11)
    for _ in range(trials):
        [block] = sample_blocks("unrestricted", dim, d, 1, rng, reps, mask=mask)
        decided = decide_unrestricted(block)
        trial = next(reference_trials("unrestricted", dim, d, ref_rng, mask))
        inst = reference_instance("unrestricted", dim, trial)
        _, ref_probs, ref_decision = reference_vote(word(inst), reps, trial[3])
        assert decided.probs[0].tobytes() == ref_probs.tobytes()
        assert decided.pr_top[0] == ref_probs[dim - 1]
        assert decided.is_a[0] == ref_decision
        assert decided.rounds == reps
    assert_same_streams(rng, ref_rng)


def test_block_budget_sets_the_rows_per_block():
    # at N = 64 a block holds 256 Hadamard rows or 128 Fourier rows, and the
    # largest admitted Hadamard word fits one block of the default budget
    assert (block_rows("restricted", 64), block_rows("fourier", 64)) == (256, 128)
    assert block_rows("unrestricted", 2**14) == 1
    for variant, rows in (("restricted", 256), ("unrestricted", 256), ("fourier", 128)):
        blocks = list(sample_blocks(variant, 64, None, 2 * rows + 1, np.random.default_rng(0)))
        assert [len(block) for block in blocks] == [rows, rows, 1]
        assert blocks[0].phases().nbytes == BLOCK_BYTES
    assert [len(block) for block in enumerate_blocks("fourier", 256, None)] == [32] * 8


def test_fourier_stream_matches_single_runs_across_blocks():
    # row j is the single run of T_(j & 1) rolled by j - (j & 1), bit for
    # bit, and within 1e-15 of T_j's own single run
    dim = 128  # 64 rows per block: 2 blocks
    assert block_rows("fourier", dim) == dim // 2
    pairs = list(decide_blocks(enumerate_blocks("fourier", dim, None)))
    assert [len(block) for block, _ in pairs] == [64, 64]
    rows = [(decided, i) for block, decided in pairs for i in range(len(block))]
    assert len(rows) == dim
    base = [reference_vote(fourier_row(dim, p), 1, None, "fourier", "adjacent", back=2)[0]
            for p in (0, 1)]
    for j, (decided, i) in enumerate(rows):
        ref_raw, ref_probs, ref_decision = reference_vote(
            fourier_row(dim, j), 1, None, "fourier", "adjacent", back=2
        )
        assert decided.raw[i].tobytes() == np.roll(base[j & 1], j - (j & 1)).tobytes()
        assert np.max(np.abs(decided.raw[i] - ref_raw)) <= 1e-15
        assert abs(decided.pr_top[i] - ref_probs[dim - 2]) <= 1e-15
        assert decided.is_a[i] == ref_decision == (j == dim // 2 - 1)
        assert decided.rounds == 1


def test_words_longer_than_a_block_run_one_per_block(monkeypatch):
    # no admitted N outgrows the default budget, so a smaller one is patched in
    dim = 2**14
    monkeypatch.setattr(codewords, "BLOCK_BYTES", ENTRY_BYTES["restricted"] * dim // 2)
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
    rng, twin = recorded_rng(0), recorded_rng(0)
    block = sample_instance("unrestricted", 64, 2, rng)
    sample_instance("unrestricted", 64, 2, twin)
    with pytest.raises(ConfigError):
        decide_restricted(block)
    with pytest.raises(ConfigError):
        decide_fourier(block)
    with pytest.raises(ConfigError):  # one row of vote draws per instance
        InstanceBlock(block.variant, 64, block.js, block.masks, np.zeros((2, 3)))
    with pytest.raises(ConfigError):  # votes need a seeded Generator
        next(sample_blocks("unrestricted", 64, 2, 1, None, 3))
    with pytest.raises(ResourceLimitError):  # refused before a child is spawned
        next(sample_blocks("unrestricted", 64, 2, 1, rng, MAX_REPETITIONS + 1))
    assert_same_streams(rng, twin)


@pytest.mark.parametrize("trials, reps", [(-1, 0), (2.5, 0), (1, -1), (1, 2.5)])
def test_bad_trial_and_repetition_counts_are_config_errors(trials, reps):
    with pytest.raises(ConfigError, match="must be an integer >= 0"):
        next(sample_blocks("unrestricted", 64, 2, trials, np.random.default_rng(0), reps))


def test_a_fixed_mask_passes_every_instance_check_before_a_draw():
    rng = recorded_rng(0)
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
    assert_same_streams(rng, recorded_rng(0))  # nothing spawned, so nothing drawn
    [block] = sample_blocks("unrestricted", 64, None, 3, rng, 5, mask=even)
    assert block.masks.tolist() == [even.tolist()] * 3


def test_zero_trials_check_and_draw_nothing():
    # solve --trials 0 with a worst-case mask outside the instance class
    # reports only that mask's spectrum: no block, no check, no child spawned
    rng = recorded_rng(0)
    outside = worst_case_error_mask(64, 4)  # l = N/16 is outside the instance class
    assert list(sample_blocks("unrestricted", 64, None, 0, rng, 5, mask=outside)) == []
    assert_same_streams(rng, recorded_rng(0))


@pytest.mark.parametrize("variant, dim, d, reps", [("restricted", 64, None, 0),
                                                   ("unrestricted", 64, (0, 3), 7),
                                                   ("fourier", 32, None, 0)])
def test_seeded_blocks_do_not_depend_on_the_block_size(monkeypatch, variant, dim, d, reps):
    # three BLOCK_BYTES values, then a MAX_REPETITIONS cap that leaves two
    # vote rows per block: other rows per block, the same rows
    row_bytes = ENTRY_BYTES[variant] * dim

    def rows(budget, cap=MAX_REPETITIONS):
        monkeypatch.setattr(codewords, "BLOCK_BYTES", budget)
        monkeypatch.setattr(codewords, "MAX_REPETITIONS", cap)
        blocks = list(sample_blocks(variant, dim, d, 150, np.random.default_rng(12), reps))
        fields = [[getattr(block, name) for block in blocks]
                  for name in ("js", "masks", "draws")]
        return len(blocks), [np.concatenate(f).tobytes() for f in fields if f[0] is not None]

    runs = [rows(budget) for budget in (row_bytes, 7 * row_bytes, BLOCK_BYTES)]
    runs.append(rows(BLOCK_BYTES, 2 * reps + 1) if reps else rows(3 * row_bytes))
    assert len({count for count, _ in runs}) == 4
    assert all(fields == runs[0][1] for _, fields in runs)


def sampled_rows(variant, dim, d, trials, reps, seed, mask=None):
    """(block, row) pairs of the sampled blocks solve decides, with each row's
    decision, and the recording generator they were drawn from."""
    rng = recorded_rng(seed)
    blocks = sample_blocks(variant, dim, d, trials, rng, reps, mask=mask)
    rows = [(block, decided, i) for block, decided in decide_blocks(blocks) for i in range(len(block))]
    return rows, rng


def boundary_counts(dim):
    rows = block_rows("restricted", dim)
    return [rows - 1, rows, rows + 1, 2 * rows + 1]


@pytest.mark.parametrize("trials", boundary_counts(128))
def test_restricted_blocks_match_sample_instance_across_boundaries(trials):
    dim = 128  # 128 rows per block
    rows, rng = sampled_rows("restricted", dim, None, trials, 0, 31)
    ref_rng = recorded_rng(31)
    refs = reference_trials("restricted", dim, None, ref_rng)
    assert len(rows) == trials
    for block, decided, i in rows:
        inst = reference_instance("restricted", dim, next(refs))
        assert block.js[i] == inst.js[0]
        assert block.masks[i].tolist() == inst.masks[0].tolist()
        ref_raw, ref_probs, ref_decision = reference_vote(word(inst), 1, None)
        assert decided.raw[i].tobytes() == ref_raw.tobytes()
        assert decided.probs[i].tobytes() == ref_probs.tobytes()
        assert decided.pr_top[i] == ref_probs[dim - 1]
        assert decided.is_a[i] == ref_decision == inst.is_a[0]
        assert decided.rounds == 1
    assert_same_streams(rng, ref_rng)


@pytest.mark.parametrize("trials", boundary_counts(64))
@pytest.mark.parametrize("mode", ["random", "worst"])
def test_unrestricted_vote_blocks_match_per_round_choice_across_boundaries(mode, trials):
    dim, weight, reps = 64, 3, 7  # 256 rows per block
    mask = worst_case_error_mask(dim, weight) if mode == "worst" else None
    d = weight if mask is None else None  # a fixed mask sets the weight
    rows, rng = sampled_rows("unrestricted", dim, d, trials, reps, 17, mask)
    ref_rng = recorded_rng(17)
    refs = reference_trials("unrestricted", dim, d, ref_rng, mask)
    assert len(rows) == trials
    for block, decided, i in rows:
        trial = next(refs)
        inst = reference_instance("unrestricted", dim, trial)
        assert block.js[i] == inst.js[0]
        assert block.masks[i].tolist() == inst.masks[0].tolist()
        assert block.is_a[i] == inst.is_a[0]
        ref_raw, ref_probs, ref_decision = reference_vote(word(inst), reps, trial[3])
        assert decided.raw[i].tobytes() == ref_raw.tobytes()
        assert decided.probs[i].tobytes() == ref_probs.tobytes()
        assert decided.pr_top[i] == ref_probs[dim - 1]
        assert decided.is_a[i] == ref_decision
        assert decided.rounds == reps
    assert_same_streams(rng, ref_rng)


@pytest.mark.parametrize(
    "variant, dim, d",
    [("restricted", 256, None), ("restricted", 16, 2), ("unrestricted", 64, None),
     ("unrestricted", 64, (0, 2)), ("fourier", 16, None)],
)
def test_block_sampler_draws_what_sample_instance_draws(monkeypatch, variant, dim, d):
    # the blocks hold the reference's trials; sample_instance draws the first
    trials, rows = 41, 8  # five full blocks and a last one of one row
    monkeypatch.setattr(codewords, "BLOCK_BYTES", rows * ENTRY_BYTES[variant] * dim)
    rng = recorded_rng(4)
    blocks = list(sample_blocks(variant, dim, d, trials, rng))
    ref_rng = recorded_rng(4)
    refs = reference_trials(variant, dim, d, ref_rng)
    instances = [reference_instance(variant, dim, next(refs)) for _ in range(trials)]
    first = sample_instance(variant, dim, d, recorded_rng(4))
    assert [len(block) for block in blocks] == [8] * 5 + [1]
    assert_same_streams(rng, ref_rng)
    assert first.js.tolist() == instances[0].js.tolist()
    if variant != "fourier":
        assert first.masks.tolist() == instances[0].masks.tolist()
    for name in ("js", "is_a", "masks"):
        if variant == "fourier" and name == "masks":
            assert all(block.masks is None for block in blocks)
            continue
        got = np.concatenate([getattr(block, name) for block in blocks])
        assert got.tolist() == np.concatenate([getattr(inst, name) for inst in instances]).tolist()


def test_many_repetitions_shrink_the_vote_block_not_the_draws():
    dim, weight, reps, trials = 64, 3, 2**19 + 1, 3  # one instance's variates per block
    rng = recorded_rng(6)
    blocks = list(sample_blocks("unrestricted", dim, weight, trials, rng, reps))
    ref_rng = recorded_rng(6)
    refs = reference_trials("unrestricted", dim, weight, ref_rng)
    assert [len(block) for block in blocks] == [1] * trials
    for block in blocks:
        j, bits, _, votes = next(refs)
        assert block.js[0] == j and block.masks[0].tolist() == bits
        assert block.draws.tobytes() == votes.random(reps).tobytes()
    assert_same_streams(rng, ref_rng)
