"""Pipeline correctness: transforms, error cancellation, merges, decisions."""

import math

import numpy as np
import pytest

from spinoracle import (
    ConfigError,
    InvariantError,
    PhaseOracle,
    StateVector,
    apply_mask,
    decide_fourier,
    decide_restricted,
    decide_unrestricted,
    dft,
    enumerate_instances,
    fourier_codeword,
    fourier_probability_table,
    hadamard_codeword,
    input_state,
    instance_from_parts,
    make_spin_system,
    measure_designated,
    merge_two_to_one,
    restricted_set_size,
    run_pipeline,
    sample_instance,
    syndromes,
    walsh_hadamard,
    worst_case_error_mask,
)
from spinoracle.codewords import enumerate_blocks, sample_blocks
from spinoracle.oracle_circuit import Decisions, decide_blocks, report_docs


def two_component(dim, a, b):
    amps = np.zeros(dim, dtype=complex)
    amps[a % dim] += 1 / math.sqrt(2)
    amps[b % dim] += 1 / math.sqrt(2)
    return amps


def dense_walsh(n):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    m = np.array([[1.0]])
    for _ in range(n):
        m = np.kron(m, h)
    return m


def test_input_state():
    sys = make_spin_system(2)
    state = input_state(sys)
    assert np.allclose(state.amps, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    assert abs(np.sum(state.probabilities()) - 1.0) < 1e-15


def test_walsh_hadamard_involution_and_uniform():
    sys = make_spin_system(4)
    rng = np.random.default_rng(1)
    raw = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
    state = StateVector(raw / np.linalg.norm(raw))
    again = walsh_hadamard(walsh_hadamard(state))
    assert np.max(np.abs(again.amps - state.amps)) < 1e-12
    uniform = walsh_hadamard(StateVector.basis(sys.dim, 0))
    assert np.max(np.abs(uniform.amps - 1 / math.sqrt(sys.dim))) < 1e-12


def test_walsh_hadamard_matches_dense_oracle():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(raw / np.linalg.norm(raw))
    dense = dense_walsh(3) @ state.amps
    assert np.max(np.abs(walsh_hadamard(state).amps - dense)) < 1e-12


def test_dft_unitarity_and_uniform():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(raw / np.linalg.norm(raw))
    back = dft(dft(state), inverse=True)
    assert np.max(np.abs(back.amps - state.amps)) < 1e-12
    uniform = dft(StateVector.basis(16, 0))
    assert np.max(np.abs(uniform.amps - 0.25)) < 1e-12


def test_dft_matches_dense_kernel():
    dim = 8
    kernel = np.exp(2j * math.pi * np.outer(np.arange(dim), np.arange(dim)) / dim)
    dense = kernel / math.sqrt(dim)
    rng = np.random.default_rng(4)
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = StateVector(raw / np.linalg.norm(raw))
    assert np.max(np.abs(dft(state).amps - dense @ state.amps)) < 1e-12


def test_shift_theorem():
    dim = 8
    for a in range(dim):
        for j in range(dim):
            oracle = PhaseOracle(fourier_codeword(dim, j).vals)
            moved = dft(StateVector(oracle.apply(dft(StateVector.basis(dim, a)).amps)), inverse=True)
            expected = np.zeros(dim, dtype=complex)
            expected[(a + j) % dim] = 1.0
            assert np.max(np.abs(moved.amps - expected)) < 1e-12


@pytest.mark.parametrize("dim", [4, 8, 16, 32])
def test_codeword_pipeline_two_component_output(dim):
    for j in range(dim // 2):
        out = run_pipeline(hadamard_codeword(dim, j).bits, "hadamard")
        expected = two_component(dim, dim // 2 - 1 - j, dim // 2 + j)
        assert np.max(np.abs(out.amps - expected)) < 1e-12


@pytest.mark.parametrize("dim", [8, 16])
def test_restricted_errors_cancel_exactly(dim):
    for j in range(dim // 2):
        base = run_pipeline(hadamard_codeword(dim, j).bits, "hadamard").amps
        count = 0
        for d in range(dim // 4):
            for syn in syndromes(dim, d, True):
                z = apply_mask(hadamard_codeword(dim, j).bits, syn.mask)
                out = run_pipeline(z, "hadamard").amps
                assert np.max(np.abs(out - base)) < 1e-12
                count += 1
        assert count == restricted_set_size(dim)


def test_worst_case_error_amplitudes():
    dim = 64
    j = dim // 2 - 1
    for weight in (1, 2, 3, 4):
        mask = worst_case_error_mask(dim, weight)
        z = apply_mask(hadamard_codeword(dim, j).bits, mask.mask)
        out = run_pipeline(z, "hadamard")
        principal = (1 - 4 * weight / dim) / math.sqrt(2)
        assert abs(abs(out.amps[dim - 1]) - principal) < 1e-10
        assert abs(abs(out.amps[0]) - principal) < 1e-10
        rest = np.abs(out.amps.copy())
        rest[[0, dim - 1]] = 0.0
        assert abs(rest.max() - 4 * weight / (math.sqrt(2) * dim)) < 1e-10


def test_worst_case_mask_positions_are_unrestricted():
    guard = hadamard_codeword(64, 63).bits
    mask = worst_case_error_mask(64, 4)
    assert all(guard[x] == 0 for x, m in enumerate(mask.mask) if m)


def test_balanced_and_constant_sums():
    dim = 16
    w = [hadamard_codeword(dim, j).bits for j in range(dim)]
    for j in range(dim):
        for k in range(dim):
            total = sum((-1) ** (w[j][x] ^ w[k][x]) for x in range(dim))
            assert total == (dim if j == k else 0)
    # one non-restricted error at a position where the XOR word has a one
    guard = w[dim - 1]
    for j, k in [(2, 5), (1, 6), (4, 4), (7, 7)]:
        xor = apply_mask(w[j], w[k])
        if j == k:
            x = next(x for x in range(dim) if guard[x] == 0)
        else:
            x = next(x for x in range(dim) if xor[x] == 1 and guard[x] == 0)
        flipped = list(xor)
        flipped[x] ^= 1
        total = sum((-1) ** b for b in flipped)
        assert total == (dim - 2 if j == k else 2)


@pytest.mark.parametrize("dim", [8, 16])
def test_merge_unitarity_dense(dim):
    for pairing in ("symmetric", "adjacent"):
        cols = []
        for i in range(dim):
            cols.append(merge_two_to_one(StateVector.basis(dim, i), pairing).amps)
        u = np.column_stack(cols)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


def test_symmetric_merge_action():
    dim = 16
    for j in range(dim // 2):
        state = StateVector(two_component(dim, dim // 2 - 1 - j, dim // 2 + j))
        merged = merge_two_to_one(state, "symmetric")
        expected = np.zeros(dim, dtype=complex)
        expected[dim // 2 + j] = 1.0
        assert np.max(np.abs(merged.amps - expected)) < 1e-12
    # j = N/2-1 collapses onto the measured index N-1
    top = merge_two_to_one(StateVector(two_component(dim, 0, dim - 1)), "symmetric")
    assert abs(top.amps[dim - 1] - 1.0) < 1e-12


def test_adjacent_merge_action():
    dim = 8
    target = merge_two_to_one(StateVector(two_component(dim, dim - 2, dim - 1)), "adjacent")
    assert abs(target.amps[dim - 2] - 1.0) < 1e-12
    for j in (dim // 2 - 2, dim // 2):  # even neighbours keep 1/4 residuals
        out = StateVector(two_component(dim, dim // 2 - 1 + j, dim // 2 + j))
        merged = merge_two_to_one(out, "adjacent")
        assert merged.probabilities()[dim - 2] == pytest.approx(0.25, abs=1e-12)


def test_pipeline_argument_guards():
    with pytest.raises(ConfigError):
        walsh_hadamard(StateVector.basis(3, 0))
    with pytest.raises(ConfigError):
        run_pipeline(hadamard_codeword(8, 1).bits, "fft")
    with pytest.raises(ConfigError):
        merge_two_to_one(input_state(make_spin_system(2)), "mirror")


def test_measure_designated_uniform():
    dim = 16
    uniform = StateVector(np.full(dim, 1 / math.sqrt(dim)))
    report = measure_designated(uniform, dim - 1)
    assert report.pr_top == pytest.approx(1 / dim, abs=1e-12)
    assert report.decision == "B"
    with pytest.raises(ConfigError):
        measure_designated(uniform, dim)


def test_majority_measurement_maps_draws_as_searchsorted_does():
    rng = np.random.default_rng(2)
    for dim in (4, 8, 64):
        raw = rng.random(dim) * (rng.random(dim) < 0.6)  # zero outcomes make flat CDF steps
        raw[dim // 2] += 0.1
        probs = raw / raw.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        draws = np.concatenate([rng.random(15), cdf[:-1], np.nextafter(cdf[:-1], 0)])
        for index in range(dim):
            hits = np.count_nonzero(cdf.searchsorted(draws, side="right") == index)
            report = measure_designated(raw, index, draws)
            assert report.decision == ("A" if hits > len(draws) / 2 else "B")
            assert report.queries == report.repetitions == len(draws)
        for index in range(dim):  # the interval [cdf[index-1], cdf[index]) is index's own
            lo = cdf[index - 1] if index else 0.0
            if lo < cdf[index]:
                assert measure_designated(raw, index, np.array([lo])).decision == "A"
            assert measure_designated(raw, index, np.array([cdf[index]])).decision == "B"


def test_majority_measurement_needs_a_row_of_draws():
    uniform = np.full(4, 0.25)
    for draws in (np.array([]), np.zeros((1, 3)), np.zeros((0, 3))):
        with pytest.raises(ConfigError):
            measure_designated(uniform, 1, draws)


def test_measurement_checks_the_outcome_probabilities():
    with pytest.raises(InvariantError):  # pr_top = 2 after normalizing
        measure_designated(np.array([-1.0, 2.0, 0.0, 0.0]), 1)
    with pytest.raises(InvariantError):  # sums to 1 + 1e-9 per row
        Decisions(np.ones((1, 2)), np.array([[0.5, 0.5 + 1e-9]]), 0, np.array([0.5]),
                  np.array([False]), 1)


def test_norm_preserved_through_stages():
    dim = 32
    rng = np.random.default_rng(8)
    inst = sample_instance("restricted", dim, None, rng)
    oracle = PhaseOracle(inst.z)
    stage1 = walsh_hadamard(input_state(make_spin_system(5)))
    stage2 = StateVector(oracle.apply(stage1.amps))
    stage3 = walsh_hadamard(stage2)
    merged = merge_two_to_one(stage3, "symmetric")
    for state in (stage1, stage2, stage3, merged):
        assert abs(np.sum(state.probabilities()) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [8, 16])
def test_decide_restricted_exhaustive(dim):
    for inst in enumerate_instances("restricted", dim):
        report = decide_restricted(inst)
        assert report.decision == inst.label
        assert report.queries == 1
        assert report.pr_top in (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_decide_restricted_wrong_variant():
    rng = np.random.default_rng(0)
    inst = sample_instance("unrestricted", 64, 2, rng)
    with pytest.raises(ConfigError):
        decide_restricted(inst)


def test_unrestricted_worst_case_round_probability():
    dim = 64
    mask = worst_case_error_mask(dim, 3)
    inst = instance_from_parts("unrestricted", dim, dim // 2 - 1, mask)
    report = decide_unrestricted(inst, repetitions=1)
    assert report.pr_top == pytest.approx((1 - 12 / 64) ** 2, abs=1e-10)
    assert report.queries == 1
    clean = instance_from_parts("unrestricted", dim, dim // 2 - 1, worst_case_error_mask(dim, 0))
    assert decide_unrestricted(clean, repetitions=1).pr_top == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):  # l = N/16 is outside the instance class
        instance_from_parts("unrestricted", dim, 3, worst_case_error_mask(dim, 4))


def test_unrestricted_majority_vote_queries():
    dim = 64
    rng = np.random.default_rng(21)
    mask = worst_case_error_mask(dim, 2)
    inst = instance_from_parts("unrestricted", dim, 5, mask)
    report = decide_unrestricted(inst, repetitions=9, rng=rng)
    assert report.queries == 9
    assert report.repetitions == 9
    assert report.decision == "B"


def test_unrestricted_random_errors_beat_worst_case_bound():
    # Monte-Carlo: per-round success for the designated codeword with random
    # weight-2 errors never drops below the in-phase worst-case bound
    # (restricted-type positions hit by chance cancel, pushing it higher)
    dim = 64
    weight = 2
    rng = np.random.default_rng(99)
    bound = 0.5 * (1 - 8 * weight / dim + 16 * weight**2 / dim**2)
    lows = []
    for _ in range(10_000):
        inst = sample_instance("unrestricted", dim, weight, rng)
        if inst.hidden_j != dim // 2 - 1:
            continue
        lows.append(decide_unrestricted(inst, repetitions=1).pr_top)
    assert len(lows) > 100
    mask_inst = instance_from_parts(
        "unrestricted", dim, dim // 2 - 1, worst_case_error_mask(dim, weight)
    )
    worst = decide_unrestricted(mask_inst, repetitions=1).pr_top
    assert min(lows) >= bound - 1e-12
    assert min(lows) >= worst - 1e-12  # in-phase construction is the true floor


def test_majority_vote_error_decays():
    # smoke-scale version of the repetition experiment; the acceptance suite
    # runs the full 10^4-trial variant
    dim = 64
    mask = worst_case_error_mask(dim, 3)
    rng = np.random.default_rng(1234)
    errors = []
    for reps in (1, 5, 13):
        wrong = 0
        trials = 800
        for _ in range(trials):
            j = int(rng.integers(0, dim // 2))
            inst = instance_from_parts("unrestricted", dim, j, mask)
            report = decide_unrestricted(inst, repetitions=reps, rng=rng)
            wrong += report.decision != inst.label
        errors.append(wrong / trials)
    assert errors[0] > errors[-1]


@pytest.mark.parametrize("dim", [8, 16])
def test_fourier_probability_table(dim):
    table = fourier_probability_table(dim)
    expected = np.zeros(dim)
    expected[dim // 2 - 1] = 1.0
    expected[dim // 2 - 2] = expected[dim // 2] = 0.25
    assert np.max(np.abs(table - expected)) < 1e-12


def test_decide_fourier_reports():
    for inst in enumerate_instances("fourier", 8):
        report = decide_fourier(inst)
        assert report.queries == 1
        if inst.hidden_j == 3:
            assert report.pr_top == pytest.approx(1.0, abs=1e-12)
            assert report.decision == "A"
        else:
            assert report.decision == "B"


def test_query_counter_increments_once_per_pipeline():
    oracle = PhaseOracle(hadamard_codeword(8, 1).bits)
    run_pipeline(oracle, "hadamard")
    run_pipeline(oracle, "hadamard")
    assert oracle.queries == 2


@pytest.mark.parametrize(
    "transform, blocks",
    [
        ("hadamard", lambda: sample_blocks("restricted", 256, None, 200, np.random.default_rng(5))),
        ("fourier", lambda: enumerate_blocks("fourier", 512, None)),
    ],
    ids=["hadamard", "fourier"],
)
def test_the_shared_input_transform_is_computed_once_per_run(monkeypatch, transform, blocks):
    from spinoracle import oracle_circuit

    built = []
    real = oracle_circuit._input_amps
    monkeypatch.setattr(oracle_circuit, "_input_amps", lambda dim: built.append(dim) or real(dim))
    oracle_circuit._transformed_input.cache_clear()
    try:
        assert len(list(decide_blocks(blocks()))) > 1
        shared = oracle_circuit._transformed_input(built[0], transform)
    finally:
        oracle_circuit._transformed_input.cache_clear()
    assert built == [built[0]]  # one R|in> for every block
    assert not shared.flags.writeable


def test_oracle_phases_exact_for_bits():
    oracle = PhaseOracle(hadamard_codeword(8, 7).bits)
    assert set(oracle.phases.real.tolist()) == {1.0, -1.0}
    assert np.all(oracle.phases.imag == 0.0)


def first_report_doc(blocks):
    """The wire format solve writes for the first row of the first decided block."""
    return report_docs(*next(decide_blocks(blocks)))[0]


def test_report_serialization():
    doc = first_report_doc(enumerate_blocks("restricted", 8, None))
    assert set(doc) == {
        "variant", "N", "hiddenJ", "label", "decision", "prTop", "queries", "repetitions",
        "perOutcome",
    }
    assert len(doc["perOutcome"]) == 8
    # spectra embed only up to N = 64
    rng = np.random.default_rng(0)
    doc128 = first_report_doc(sample_blocks("restricted", 128, 1, 1, rng))
    assert doc128["N"] == 128
    assert "perOutcome" not in doc128
