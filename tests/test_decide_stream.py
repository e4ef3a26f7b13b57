"""The block-wise decision pipeline against one-instance-at-a-time references.

The references run each instance through run_pipeline and merge_two_to_one
alone and measure with Generator.choice, one call per round, the way the
decision procedures worked before the circuit ran block-wise.  Instance
counts are chosen so that the stream crosses block boundaries.
"""

import numpy as np
import pytest

from spinoracle import (
    ConfigError,
    apply_mask,
    enumerate_instances,
    hadamard_codeword,
    instance_from_parts,
    merge_two_to_one,
    run_pipeline,
    sample_instance,
    worst_case_error_mask,
)
from spinoracle.oracle_circuit import BLOCK_ENTRIES, decide_stream, worst_case_spectrum


def reference_vote(inst, reps, rng, transform="hadamard", pairing="symmetric", back=1):
    raw = merge_two_to_one(run_pipeline(inst.z, transform), pairing).probabilities()
    probs = raw / raw.sum()
    index = inst.dim - back
    if rng is None:
        return raw, probs, "A" if probs[index] > 0.5 else "B"
    hits = sum(int(rng.choice(inst.dim, p=probs)) == index for _ in range(reps))
    return raw, probs, "A" if hits > reps / 2 else "B"


@pytest.mark.parametrize("mode", ["random", "worst"])
def test_majority_votes_match_per_round_choice(mode):
    dim, weight, reps, trials = 64, 3, 5, 300  # 128 rows per block: 3 blocks
    mask = worst_case_error_mask(dim, weight)

    def draw(rng):
        if mode == "random":
            return sample_instance("unrestricted", dim, weight, rng)
        return instance_from_parts("unrestricted", dim, int(rng.integers(0, dim // 2)), mask)

    rng = np.random.default_rng(11)
    stream = decide_stream((draw(rng) for _ in range(trials)), "unrestricted", reps, rng)
    ref_rng = np.random.default_rng(11)
    count = 0
    for inst, report, raw in stream:
        ref_inst = draw(ref_rng)
        assert inst.z == ref_inst.z
        ref_raw, ref_probs, ref_decision = reference_vote(ref_inst, reps, ref_rng)
        assert raw.tobytes() == ref_raw.tobytes()
        assert report.per_outcome.tobytes() == ref_probs.tobytes()
        assert report.pr_top == ref_probs[dim - 1]
        assert report.decision == ref_decision
        assert report.queries == report.repetitions == reps
        count += 1
    assert count == trials
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_fourier_stream_matches_single_runs_across_blocks():
    dim = 128  # 64 rows per block: 2 blocks
    assert BLOCK_ENTRIES // dim < dim
    seen = 0
    for inst, report, raw in decide_stream(enumerate_instances("fourier", dim), "fourier"):
        ref_raw, ref_probs, ref_decision = reference_vote(
            inst, 1, None, "fourier", "adjacent", back=2
        )
        assert raw.tobytes() == ref_raw.tobytes()
        assert report.pr_top == ref_probs[dim - 2]
        assert report.decision == ref_decision == inst.label
        assert report.queries == 1
        seen += 1
    assert seen == dim


def test_words_longer_than_a_block_run_one_per_block():
    dim = 2 * BLOCK_ENTRIES
    rng = np.random.default_rng(5)
    instances = [sample_instance("restricted", dim, 3, rng) for _ in range(2)]
    decided = list(decide_stream(instances, "restricted"))
    assert [rep.decision for _, rep, _ in decided] == [inst.label for inst in instances]


def test_worst_case_spectrum_matches_single_run():
    dim = 64
    for weight in (0, 2, 4, 6):  # 6 lies outside the instance class
        mask = worst_case_error_mask(dim, weight).mask
        z = apply_mask(hadamard_codeword(dim, dim // 2 - 1).bits, mask)
        ref = merge_two_to_one(run_pipeline(z, "hadamard"), "symmetric").probabilities()
        assert worst_case_spectrum(dim, weight).tobytes() == ref.tobytes()


def test_stream_rejects_mixed_variants_and_bad_votes():
    rng = np.random.default_rng(0)
    inst = sample_instance("unrestricted", 64, 2, rng)
    with pytest.raises(ConfigError):
        list(decide_stream([inst], "restricted"))
    with pytest.raises(ConfigError):
        list(decide_stream([inst], "unrestricted", 0, rng))
    with pytest.raises(ConfigError):
        list(decide_stream([inst], "unrestricted", 3))
