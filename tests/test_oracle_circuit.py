"""Pipeline correctness: transforms, error cancellation, merges, decisions.

The circuits are checked against dense references built here: the Sylvester
Walsh-Hadamard matrix with entries (-1)^popcount(j & x) / sqrt(N), and the
DFT matrix with entries e^(2 pi i jk/N) / sqrt(N), with the Fourier oracle
phases computed from exact Fractions T_j[k] = 2jk/N mod 2, and the Hadamard
words from Python's popcount, all built in the tests.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from references import (
    basis_state,
    bit_phases,
    complex_fwht,
    complex_pipeline,
    complex_spectra,
    fourier_fractions,
    fourier_row,
    fraction_phases,
    hadamard_row,
    restricted_per_codeword,
    xor,
)
from spinoracle import (
    ConfigError,
    InstanceBlock,
    InvariantError,
    StateVector,
    decide_fourier,
    decide_restricted,
    decide_unrestricted,
    fourier_codeword,
    fourier_probability_table,
    hadamard_codeword,
    instance_from_parts,
    measure_designated,
    merge_two_to_one,
    run_pipeline,
    sample_instance,
    worst_case_error_mask,
)
from spinoracle import oracle_circuit
from spinoracle.cli import main
from spinoracle.codewords import enumerate_blocks, oracle_phases, sample_blocks
from spinoracle.oracle_circuit import (
    Decisions,
    _fwht,
    _spectra,
    _transformed_input,
    decide_blocks,
    report_columns,
    worst_case_spectrum,
)


def two_component(dim, a, b):
    amps = np.zeros(dim, dtype=complex)
    amps[a % dim] += 1 / math.sqrt(2)
    amps[b % dim] += 1 / math.sqrt(2)
    return amps


def sylvester(dim):
    """The Walsh-Hadamard matrix, entries (-1)^popcount(j & x) / sqrt(N)."""
    both = np.arange(dim)[:, None] & np.arange(dim)
    parity = np.zeros_like(both)
    while both.any():
        parity ^= both & 1
        both >>= 1
    return (1.0 - 2.0 * parity) / math.sqrt(dim)


def dft_matrix(dim):
    """The DFT matrix R of the Fourier circuit, entries e^(2 pi i jk/N) / sqrt(N)."""
    k = np.arange(dim)
    return np.exp(2j * math.pi * (np.outer(k, k) % dim) / dim) / math.sqrt(dim)


def fourier_phases(dim, j):
    """e^(i pi T_j[x]) from the exact Fractions of the Fourier codeword."""
    return fraction_phases(fourier_fractions(dim, j))


def block_words(block):
    """The oracle string of each row of a Hadamard block: W_j XOR mask."""
    return [xor(hadamard_row(block.dim, int(j)), mask) for j, mask in zip(block.js, block.masks)]


def input_amps(dim):
    return two_component(dim, dim // 2 - 1, dim // 2)


def test_input_state():
    # the identity oracle (W_0, T_0) gives back the input state through R^dag R
    for transform, word in (("hadamard", (0, 0, 0, 0)), ("fourier", fourier_codeword(4, 0))):
        state = run_pipeline(word, transform)
        assert np.allclose(state.amps, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
        assert abs(np.sum(state.probabilities()) - 1.0) < 1e-15


def test_walsh_hadamard_involution_and_uniform():
    dim = 16
    dense = sylvester(dim)
    assert np.max(np.abs(dense @ dense - np.eye(dim))) < 1e-12
    assert np.max(np.abs(dense[:, 0] - 1 / math.sqrt(dim))) < 1e-12
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(2, dim))  # two real rows; _fwht overwrites its input
    assert np.max(np.abs(_fwht(_fwht(raw.copy())) - raw)) < 1e-12
    assert np.max(np.abs(_fwht(raw.copy()) - raw @ dense.T)) < 1e-12
    assert np.max(np.abs(_transformed_input(dim, "hadamard") - dense @ input_amps(dim))) < 1e-12


@pytest.mark.parametrize("n", range(2, 15))
def test_fwht_matches_the_complex_butterfly_bit_for_bit(n):
    # random normals round at every stage, unlike the +-R|in> rows the circuit
    # feeds, so this pins each stage's operand pairs and their order
    dim = 2**n
    rng = np.random.default_rng(n)
    for rows in (rng.normal(size=dim), rng.normal(size=(3, dim))):
        assert _fwht(rows.copy()).tobytes() == complex_fwht(rows).real.tobytes()


def test_walsh_hadamard_matches_dense_oracle():
    # run_pipeline and the decided spectra against S U_z S |in>, N = 4 .. 1024
    rng = np.random.default_rng(2)
    for n in range(2, 11):
        dim = 2**n
        dense = sylvester(dim)
        blocks = list(sample_blocks("restricted", dim, None, 6, rng))
        if dim >= 32:  # unrestricted errors exist from N/16 > 1 on
            blocks += sample_blocks("unrestricted", dim, None, 6, rng)
        for block, decided in decide_blocks(blocks):
            for i, word in enumerate(block_words(block)):
                ref = dense @ ((1.0 - 2.0 * np.array(word)) * (dense @ input_amps(dim)))
                assert np.max(np.abs(run_pipeline(word, "hadamard").amps - ref)) < 1e-12
                merged = merge_two_to_one(StateVector(ref), "symmetric").probabilities()
                assert np.max(np.abs(decided.raw[i] - merged)) < 1e-12


def test_dft_unitarity_and_uniform():
    dim = 16
    dense = dft_matrix(dim)
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(dim))) < 1e-12
    assert np.max(np.abs(dense[:, 0] - 0.25)) < 1e-12
    assert np.max(np.abs(_transformed_input(dim, "fourier") - dense @ input_amps(dim))) < 1e-12
    back = run_pipeline(fourier_codeword(dim, 0), "fourier")  # R^dag R |in>
    assert np.max(np.abs(back.amps - input_amps(dim))) < 1e-12


def test_dft_matches_dense_kernel():
    # run_pipeline and the decided spectra against R^dag U_z R |in>, N = 8 .. 512
    for n in range(3, 10):
        dim = 2**n
        dense = dft_matrix(dim)
        phases = np.stack([fourier_phases(dim, j) for j in range(dim)])
        refs = (dense.conj().T @ (phases * (dense @ input_amps(dim))).T).T
        decided = decide_blocks(enumerate_blocks("fourier", dim, None))
        spectra = np.concatenate([d.raw for _, d in decided])
        for j in range(dim):
            merged = merge_two_to_one(StateVector(refs[j]), "adjacent").probabilities()
            assert np.max(np.abs(spectra[j] - merged)) < 1e-12, (dim, j)
        for j in range(0, dim, max(dim // 16, 1)):
            out = run_pipeline(fourier_codeword(dim, j), "fourier")
            assert np.max(np.abs(out.amps - refs[j])) < 1e-12, (dim, j)


def test_shift_theorem():
    # R^dag U_(T_j) R moves |a> to |a+j>: on the dense reference for every
    # basis state, and on the circuit's input pair
    dim = 8
    dense = dft_matrix(dim)
    for j in range(dim):
        moved = dense.conj().T @ (fourier_phases(dim, j)[:, None] * dense)
        assert np.max(np.abs(moved - np.roll(np.eye(dim), j, axis=0))) < 1e-12
        out = run_pipeline(fourier_codeword(dim, j), "fourier")
        expected = two_component(dim, dim // 2 - 1 + j, dim // 2 + j)
        assert np.max(np.abs(out.amps - expected)) < 1e-12


@pytest.mark.parametrize("dim", [4, 8, 16, 32])
def test_codeword_pipeline_two_component_output(dim):
    for j in range(dim // 2):
        out = run_pipeline(hadamard_codeword(dim, j), "hadamard")
        expected = two_component(dim, dim // 2 - 1 - j, dim // 2 + j)
        assert np.max(np.abs(out.amps - expected)) < 1e-12


@pytest.mark.parametrize("dim", [8, 16])
def test_restricted_errors_cancel_exactly(dim):
    base = [run_pipeline(hadamard_codeword(dim, j), "hadamard").amps for j in range(dim // 2)]
    counts = [0] * (dim // 2)
    for block in enumerate_blocks("restricted", dim, None):
        for j, z in zip(block.js.tolist(), block_words(block)):
            out = run_pipeline(z, "hadamard").amps
            assert np.max(np.abs(out - base[j])) < 1e-12
            counts[j] += 1
    assert counts == [restricted_per_codeword(dim)] * (dim // 2)


def test_worst_case_error_amplitudes():
    dim = 64
    j = dim // 2 - 1
    for weight in (1, 2, 3, 4):
        mask = worst_case_error_mask(dim, weight)
        z = hadamard_codeword(dim, j) ^ mask
        out = run_pipeline(z, "hadamard")
        principal = (1 - 4 * weight / dim) / math.sqrt(2)
        assert abs(abs(out.amps[dim - 1]) - principal) < 1e-10
        assert abs(abs(out.amps[0]) - principal) < 1e-10
        rest = np.abs(out.amps.copy())
        rest[[0, dim - 1]] = 0.0
        assert abs(rest.max() - 4 * weight / (math.sqrt(2) * dim)) < 1e-10


def test_worst_case_mask_positions_are_unrestricted():
    guard = hadamard_codeword(64, 63)
    mask = worst_case_error_mask(64, 4)
    assert mask.dtype == np.uint8 and int(mask.sum()) == 4
    assert all(guard[x] == 0 for x, m in enumerate(mask) if m)
    with pytest.raises(ValueError):
        mask[1] = 1
    for weight in (-1, 17):  # 16 even positions of even parity at N = 64
        with pytest.raises(ConfigError):
            worst_case_error_mask(64, weight)


def test_balanced_and_constant_sums():
    dim = 16
    w = [hadamard_codeword(dim, j).tolist() for j in range(dim)]
    for j in range(dim):
        for k in range(dim):
            total = sum((-1) ** (w[j][x] ^ w[k][x]) for x in range(dim))
            assert total == (dim if j == k else 0)
    # one non-restricted error at a position where the XOR word has a one
    guard = w[dim - 1]
    for j, k in [(2, 5), (1, 6), (4, 4), (7, 7)]:
        both = xor(w[j], w[k])
        if j == k:
            x = next(x for x in range(dim) if guard[x] == 0)
        else:
            x = next(x for x in range(dim) if both[x] == 1 and guard[x] == 0)
        flipped = list(both)
        flipped[x] ^= 1
        total = sum((-1) ** b for b in flipped)
        assert total == (dim - 2 if j == k else 2)


@pytest.mark.parametrize("dim", [8, 16])
def test_merge_unitarity_dense(dim):
    for pairing in ("symmetric", "adjacent"):
        cols = []
        for i in range(dim):
            cols.append(merge_two_to_one(basis_state(dim, i), pairing).amps)
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
        run_pipeline(hadamard_codeword(8, 1), "fft")
    with pytest.raises(ConfigError):
        merge_two_to_one(StateVector(input_amps(4)), "mirror")


def test_the_transform_says_how_a_word_is_read():
    # (0, 2, 0, 0) once ran as W_0, since e^(2 pi i) = 1, and (0, 0.5, 0, 0.5)
    # as a half-phase word: a Hadamard word holds bits only
    for word in ((0, 2, 0, 0), (0, 0.5, 0, 0.5), (0, -1, 0, 0), (0, 1, 0), ((0, 1), (1, 0))):
        with pytest.raises(ConfigError):
            run_pipeline(word, "hadamard")
    for word in ((0, 5, 0, 0), (0, -4, 0, 0), (0, 0.5, 0, 0)):  # numerators in (-N, N]
        with pytest.raises(ConfigError):
            run_pipeline(word, "fourier")
    # the same integers are bits to the Hadamard circuit and numerators r/N to the DFT
    word, dim = (0, 1, 1, 0), 4
    dense = dft_matrix(dim)
    phases = fraction_phases([Fraction(v, dim) for v in word])
    ref = dense.conj().T @ (phases * (dense @ input_amps(dim)))
    assert np.max(np.abs(run_pipeline(word, "fourier").amps - ref)) < 1e-12
    assert np.max(np.abs(run_pipeline(fourier_row(dim, 2), "fourier").amps
                         - two_component(dim, dim // 2 + 1, dim // 2 + 2))) < 1e-12
    assert np.max(np.abs(run_pipeline(word, "hadamard").amps
                         - two_component(dim, dim // 2 - 1 - 3, dim // 2 + 3))) < 1e-12


def test_measure_designated_uniform():
    dim = 16
    uniform = StateVector(np.full(dim, 1 / math.sqrt(dim)))
    decided = measure_designated(uniform, dim - 1)
    assert decided.pr_top[0] == pytest.approx(1 / dim, abs=1e-12)
    assert decided.is_a.tolist() == [False]
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
            decided = measure_designated(raw, index, draws)
            assert decided.is_a[0] == (hits > len(draws) / 2)
            assert decided.rounds == len(draws)
        for index in range(dim):  # the interval [cdf[index-1], cdf[index]) is index's own
            lo = cdf[index - 1] if index else 0.0
            if lo < cdf[index]:
                assert measure_designated(raw, index, np.array([lo])).is_a[0]
            assert not measure_designated(raw, index, np.array([cdf[index]])).is_a[0]


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


# Each invariant check is written so that a NaN residual fails it: NaN > tol is False.
def test_a_nan_oracle_phase_is_not_unit_modulus():
    phases = oracle_phases(hadamard_codeword(8, 3)[None], "hadamard")
    phases[0, 5] = math.nan
    with pytest.raises(InvariantError, match="unit modulus"):
        _spectra(phases, "hadamard", "symmetric")


def test_a_nan_circuit_output_is_not_normalized(monkeypatch):
    def nan_merge(amps, pairing):
        out = amps.copy()
        out[:, 0] = math.nan
        return out

    monkeypatch.setattr(oracle_circuit, "_merge", nan_merge)
    phases = oracle_phases(hadamard_codeword(8, 3)[None], "hadamard")
    with pytest.raises(InvariantError, match="not normalized"):
        _spectra(phases, "hadamard", "symmetric")


def test_gathered_fourier_rows_are_checked_for_their_norm(monkeypatch):
    windows = oracle_circuit._fourier_windows(8)
    monkeypatch.setattr(oracle_circuit, "_fourier_windows", lambda dim: windows * 2)
    with pytest.raises(InvariantError, match="not normalized"):
        next(decide_blocks(enumerate_blocks("fourier", 8, None)))


def test_a_nan_outcome_probability_fails_the_sum_check():
    probs = np.array([[0.5, 0.5, math.nan, 0.0]])  # pr_top, column 1, is fine
    with pytest.raises(InvariantError, match="do not sum to 1"):
        Decisions(probs.copy(), probs, 1, probs[:, 1], np.array([False]), 1)


def test_norm_preserved_through_stages():
    dim = 32
    rng = np.random.default_rng(8)
    block = sample_instance("restricted", dim, None, rng)
    stage1 = StateVector(_transformed_input(dim, "hadamard"))
    stage2 = StateVector(block.phases()[0] * stage1.amps)
    stage3 = StateVector(_fwht(stage2.amps.real.copy()))  # the Hadamard circuit is real
    merged = merge_two_to_one(stage3, "symmetric")
    for state in (stage1, stage2, stage3, merged):
        assert abs(np.sum(state.probabilities()) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [8, 16])
def test_decide_restricted_exhaustive(dim):
    for block in enumerate_blocks("restricted", dim, None):
        decided = decide_restricted(block)
        assert decided.is_a.tolist() == block.is_a.tolist()
        assert decided.rounds == 1
        for p in decided.pr_top:
            assert p in (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_decide_restricted_wrong_variant():
    rng = np.random.default_rng(0)
    block = sample_instance("unrestricted", 64, 2, rng)
    with pytest.raises(ConfigError):
        decide_restricted(block)
    with pytest.raises(ConfigError):
        decide_fourier(block)


def test_unrestricted_worst_case_round_probability():
    dim = 64
    mask = worst_case_error_mask(dim, 3)
    block = instance_from_parts("unrestricted", dim, dim // 2 - 1, mask)
    decided = decide_unrestricted(block)
    assert decided.pr_top[0] == pytest.approx((1 - 12 / 64) ** 2, abs=1e-10)
    assert decided.rounds == 1
    clean = instance_from_parts("unrestricted", dim, dim // 2 - 1, worst_case_error_mask(dim, 0))
    assert decide_unrestricted(clean).pr_top[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):  # l = N/16 is outside the instance class
        instance_from_parts("unrestricted", dim, 3, worst_case_error_mask(dim, 4))


def test_unrestricted_majority_vote_queries():
    dim = 64
    rng = np.random.default_rng(21)
    mask = worst_case_error_mask(dim, 2)
    part = instance_from_parts("unrestricted", dim, 5, mask)
    block = InstanceBlock(part.variant, dim, part.js, part.masks, rng.random((1, 9)))
    decided = decide_unrestricted(block)
    assert decided.rounds == 9
    assert decided.is_a.tolist() == [False]


def test_unrestricted_random_errors_beat_worst_case_bound():
    # Monte-Carlo: per-round success for the designated codeword with random
    # weight-2 errors never drops below the in-phase worst-case bound
    # (restricted-type positions hit by chance cancel, pushing it higher)
    dim = 64
    weight = 2
    rng = np.random.default_rng(99)
    bound = 0.5 * (1 - 8 * weight / dim + 16 * weight**2 / dim**2)
    lows = []
    for block, decided in decide_blocks(sample_blocks("unrestricted", dim, weight, 10_000, rng)):
        lows += decided.pr_top[block.is_a].tolist()
    assert len(lows) > 100
    mask_block = instance_from_parts(
        "unrestricted", dim, dim // 2 - 1, worst_case_error_mask(dim, weight)
    )
    worst = decide_unrestricted(mask_block).pr_top[0]
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
        blocks = sample_blocks("unrestricted", dim, None, trials, rng, reps, mask=mask)
        for block, decided in decide_blocks(blocks):
            wrong += np.count_nonzero(decided.is_a != block.is_a)
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
    [block] = enumerate_blocks("fourier", 8, None)
    decided = decide_fourier(block)
    assert decided.rounds == 1
    assert block.js.tolist() == list(range(8))
    assert decided.pr_top[3] == pytest.approx(1.0, abs=1e-12)
    assert decided.is_a.tolist() == [j == 3 for j in range(8)]


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
    caches = (oracle_circuit._transformed_input, oracle_circuit._fourier_windows)
    for cache in caches:  # a cached Fourier base would skip R|in> altogether
        cache.cache_clear()
    try:
        assert len(list(decide_blocks(blocks()))) > 1
        shared = oracle_circuit._transformed_input(built[0], transform)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert built == [built[0]]  # one R|in> for every block
    assert not shared.flags.writeable


def shared_mask_blocks(dim, rng):
    """Blocks of sampled js (0 and N/2 - 1 among them) that all share one
    mask: the zero mask, worst-case masks and a restricted mask."""
    js = np.unique(np.concatenate([[0, dim // 2 - 1], rng.integers(0, dim // 2, 6)]))
    top = math.ceil(dim / 16) - 1  # the heaviest unrestricted weight
    masks = [("restricted", np.zeros(dim, dtype=np.uint8)),
             ("restricted", next(sample_blocks("restricted", dim, None, 1, rng)).masks[0])]
    masks += [("unrestricted", worst_case_error_mask(dim, w)) for w in sorted({0, min(1, top), top})]
    for variant, mask in masks:
        yield InstanceBlock(variant, dim, js, np.broadcast_to(mask, (len(js), dim)))


@pytest.mark.parametrize("dim", [2**n for n in range(2, 15)])
def test_shared_mask_hadamard_rows_are_the_per_row_circuit_bit_for_bit(dim):
    # W_j XOR e reads e's one spectrum at y XOR j: the same bits as a
    # transform of each row
    for block in shared_mask_blocks(dim, np.random.default_rng(dim)):
        decided = next(decide_blocks([block]))[1]
        assert decided.raw.tobytes() == _spectra(block.phases(), "hadamard", "symmetric").tobytes()


def fourier_base(dim):
    """The per-row spectra of T_0 and T_1, the rows every Fourier row is rolled from."""
    return _spectra(InstanceBlock("fourier", dim, np.array([0, 1])).phases(), "fourier", "adjacent")


def fourier_blocks(dim):
    """Every j up to N = 1024; above that 0, 1, N/2 - 1, N/2, N - 1 and 16 sampled js."""
    if dim <= 1024:
        yield from enumerate_blocks("fourier", dim, None)
        return
    sampled = np.random.default_rng(dim).integers(0, dim, 16)
    yield InstanceBlock("fourier", dim, np.concatenate([[0, 1, dim // 2 - 1, dim // 2, dim - 1],
                                                        sampled]))


@pytest.mark.parametrize("dim", [2**n for n in range(2, 15)])
def test_fourier_rows_are_rolled_base_rows(dim):
    base = fourier_base(dim)
    for block, decided in decide_blocks(fourier_blocks(dim)):
        for j, raw in zip(block.js.tolist(), decided.raw):
            assert raw.tobytes() == np.roll(base[j & 1], j - (j & 1)).tobytes()
        per_row = _spectra(block.phases(), "fourier", "adjacent")
        assert np.max(np.abs(decided.raw - per_row)) <= 1e-15


def test_each_shared_mask_is_transformed_once(monkeypatch, tmp_path, capsys):
    # rows through the transforms: two per N for a whole Fourier run, one per
    # block for a fixed mask or zero masks, one per trial for random masks
    rows = []

    def counted(transform):
        def count(amps, *args, **kwargs):
            rows.append(amps.size // amps.shape[-1])
            return transform(amps, *args, **kwargs)
        return count

    for dim in (16, 64):  # R|in> is computed before counting starts
        _transformed_input(dim, "hadamard")
        _transformed_input(dim, "fourier")
    oracle_circuit._fourier_windows.cache_clear()
    monkeypatch.setattr(oracle_circuit, "_fwht", counted(oracle_circuit._fwht))
    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))

    def transformed(run):
        rows.clear()
        run()
        return sum(rows)

    for n in (4, 6):  # the probability table and the reports: one solve
        run = ["solve", "--variant", "fourier", "--n", str(n), "--out", str(tmp_path / str(n))]
        assert transformed(lambda: main(run)) == 2
        assert transformed(lambda: main(run)) == 0  # the base spectra are cached per N
    capsys.readouterr()
    rng = np.random.default_rng(3)
    fixed = sample_blocks("unrestricted", 64, None, 600, rng, 3, mask=worst_case_error_mask(64, 3))
    assert transformed(lambda: list(decide_blocks(fixed))) == 3  # 256 + 256 + 88 rows
    zero = enumerate_blocks("restricted", 16, 0)  # one block of 8 rows
    assert transformed(lambda: list(decide_blocks(zero))) == 1
    random = sample_blocks("unrestricted", 64, 3, 600, rng, 3)
    assert transformed(lambda: list(decide_blocks(random))) == 600
    one = [instance_from_parts("unrestricted", 64, 5, worst_case_error_mask(64, 3))]
    assert transformed(lambda: list(decide_blocks(one))) == 1


def test_oracle_phases_exact_for_bits():
    phases = oracle_phases(hadamard_codeword(8, 7), "hadamard")
    assert phases.dtype == np.float64
    assert set(phases.tolist()) == {1.0, -1.0}
    block = sample_instance("restricted", 8, 0, np.random.default_rng(0))
    word = hadamard_row(8, int(block.js[0]))
    assert block.phases().tobytes() == bit_phases(word)[None].tobytes()


def test_hadamard_circuit_is_real_and_fourier_complex():
    dim = 64
    rng = np.random.default_rng(5)
    for variant in ("restricted", "unrestricted"):
        block = next(sample_blocks(variant, dim, None, 4, rng))
        assert block.phases().dtype == np.float64
        assert next(decide_blocks([block]))[1].raw.dtype == np.float64
    assert _transformed_input(dim, "hadamard").dtype == np.float64
    assert next(enumerate_blocks("fourier", dim, None)).phases().dtype == np.complex128
    assert _transformed_input(dim, "fourier").dtype == np.complex128


def reference_block_phases(block):
    """The block's oracle phases from popcount rows and Python-int masks."""
    return np.array([bit_phases(xor(hadamard_row(block.dim, int(j)), mask))
                     for j, mask in zip(block.js, block.masks.tolist())])


@pytest.mark.parametrize("variant", ["restricted", "unrestricted"])
def test_real_spectra_equal_the_complex_circuit_bit_for_bit(variant):
    rng = np.random.default_rng(23)
    for dim in (2**n for n in range(3, 15)):
        block = next(sample_blocks(variant, dim, None, max(2, 512 // dim), rng))
        spectra = _spectra(block.phases(), "hadamard", "symmetric")
        assert spectra.tobytes() == complex_spectra(reference_block_phases(block)).tobytes()
        word = xor(hadamard_row(dim, int(block.js[0])), block.masks[0].tolist())
        probs = np.abs(complex_pipeline(bit_phases(word)[None])[0]) ** 2
        assert run_pipeline(word, "hadamard").probabilities().tobytes() == probs.tobytes()


def test_worst_case_and_fourier_spectra_equal_the_complex_circuit():
    dim = 64
    designated = hadamard_row(dim, dim // 2 - 1)
    for weight in range(7):
        word = xor(designated, worst_case_error_mask(dim, weight).tolist())
        reference = complex_spectra(bit_phases(word)[None])[0]
        assert worst_case_spectrum(dim, weight).tobytes() == reference.tobytes()
    block = next(enumerate_blocks("fourier", dim, None))
    reference = complex_spectra(block.phases(), "fourier", "adjacent")
    assert _spectra(block.phases(), "fourier", "adjacent").tobytes() == reference.tobytes()


def first_report_keys(blocks):
    """The report keys and shared values solve writes for the first decided block."""
    shared, per_row = report_columns(*next(decide_blocks(blocks)))
    return set(shared) | set(per_row), shared, per_row


def test_report_serialization():
    keys, _, per_row = first_report_keys(enumerate_blocks("restricted", 8, None))
    assert keys == {
        "variant", "N", "hiddenJ", "label", "decision", "prTop", "queries", "repetitions",
        "perOutcome",
    }
    assert per_row["perOutcome"].shape[1] == 8
    # spectra embed only up to N = 64
    rng = np.random.default_rng(0)
    keys128, shared128, _ = first_report_keys(sample_blocks("restricted", 128, 1, 1, rng))
    assert shared128["N"] == 128
    assert "perOutcome" not in keys128
