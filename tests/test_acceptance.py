"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its elapsed time (run with ``pytest -s`` to see them
inline).  Every tolerance is pinned here; nothing is deferred.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np

import spinoracle as so
from spinoracle.cli import main as cli_main

MU_STAR = math.pi / (6 * math.sqrt(3))


def criterion(number, title, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {number:2d} FAIL ({elapsed:6.2f}s): {title}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {title}")
            assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"
        return run

    return wrap


@criterion(1, "N=4 perfect squeezing at mu = pi/(6 sqrt 3)", budget_s=1.0)
def test_criterion_01_perfect_squeezing():
    res = so.optimize_mu(so.make_spin_system(2), 1e-9)
    assert abs(res.mu - MU_STAR) < 1e-6
    assert np.max(np.abs(res.distribution - [0.0, 0.5, 0.5, 0.0])) < 1e-9


@criterion(2, "squeezing sweep trends up to N=1024", budget_s=600.0)
def test_criterion_02_squeezing_sweep():
    points = []
    for n in range(2, 11):  # s = 3/2 .. 1023/2, i.e. N = 4 .. 1024
        sys = so.make_spin_system(n)
        points.append((sys, so.sweep_row(sys, so.optimize_mu(sys, 1e-8))))
    v = [pt["v_min"] for _, pt in points]
    assert all(x < 0.5 for x in v)
    assert all(b >= a - 1e-6 for a, b in zip(v, v[1:]))
    for _, pt in points[1:]:
        assert 0.484 <= pt["p_c"] <= 0.5


@criterion(3, "bounding-distribution solve: eps = 1/64, pc = 0.484375", budget_s=5.0)
def test_criterion_03_bounding_distribution():
    bound = so.bounding_epsilon()
    assert bound.epsilon == Fraction(1, 64)
    assert bound.pc == Fraction(31, 64)
    assert round(float(bound.pc), 3) == 0.484


@criterion(4, "two-component outputs, exhaustive N in {4,8,16,32}", budget_s=5.0)
def test_criterion_04_codeword_outputs():
    for dim in (4, 8, 16, 32):
        for j in range(dim // 2):
            out = so.run_pipeline(so.hadamard_codeword(dim, j), "hadamard")
            expected = np.zeros(dim, dtype=complex)
            expected[dim // 2 - 1 - j] = expected[dim // 2 + j] = 1 / math.sqrt(2)
            assert np.max(np.abs(out.amps - expected)) < 1e-12


@criterion(5, "restricted errors cancel exactly, exhaustive N in {8,16}", budget_s=30.0)
def test_criterion_05_restricted_error_cancellation():
    for dim, per_codeword in ((8, 5), (16, 93)):
        assert so.restricted_set_size(dim) == per_codeword
        words = [so.hadamard_codeword(dim, j) for j in range(dim // 2)]
        base = [so.run_pipeline(w, "hadamard").amps for w in words]
        counts = [0] * (dim // 2)
        for block in so.enumerate_blocks("restricted", dim, None):  # every d < N/4
            for j, mask in zip(block.js.tolist(), block.masks):
                out = so.run_pipeline(words[j] ^ mask, "hadamard").amps
                assert np.max(np.abs(out - base[j])) < 1e-12
                counts[j] += 1
        assert counts == [per_codeword] * (dim // 2)


@criterion(6, "worst-case in-phase degradation, N=64, l in {1..4}", budget_s=5.0)
def test_criterion_06_worst_case_amplitudes():
    dim = 64
    for weight in (1, 2, 3, 4):
        mask = so.worst_case_error_mask(dim, weight)
        z = so.hadamard_codeword(dim, dim // 2 - 1) ^ mask
        out = so.run_pipeline(z, "hadamard")
        principal = (1 - 4 * weight / dim) / math.sqrt(2)
        assert abs(abs(out.amps[dim - 1]) - principal) < 1e-10
        if weight == dim // 16:
            merged = so.merge_two_to_one(out, "symmetric")
            assert abs(merged.probabilities()[dim - 1] - 9 / 16) < 1e-10


@criterion(7, "restricted decisions: exhaustive 100% accuracy, 1 query", budget_s=30.0)
def test_criterion_07_restricted_decisions():
    for dim in (8, 16):
        decided = list(so.decide_blocks(so.enumerate_blocks("restricted", dim, None)))
        assert sum(len(block) for block, _ in decided) == so.restricted_set_size(dim) * (dim // 2)
        for block, result in decided:
            assert result.is_a.tolist() == block.is_a.tolist()
            assert result.rounds == 1


@criterion(8, "majority-vote error decays in q and is < 5% at q=13", budget_s=120.0)
def test_criterion_08_majority_vote_decay():
    # 10^4 sampled instances per repetition count, with common random numbers
    # across the q values (same instances, nested vote rounds): each q sees
    # an exact 10^4-trial sample while the q-to-q comparison stays sharp
    dim = 64
    weight = 3
    reps_grid = (1, 5, 9, 13)
    trials = 10_000
    mask = so.worst_case_error_mask(dim, weight)
    rng = np.random.default_rng(42)
    words = [so.hadamard_codeword(dim, j) for j in range(dim // 2)]
    wrong = {q: 0 for q in reps_grid}
    for _ in range(trials):
        j = int(rng.integers(0, dim // 2))
        z = words[j] ^ mask
        merged = so.merge_two_to_one(so.run_pipeline(z, "hadamard"), "symmetric")
        probs = merged.probabilities()
        outcomes = rng.choice(dim, size=max(reps_grid), p=probs / probs.sum())
        hits = np.cumsum(outcomes == dim - 1)
        label = "A" if j == dim // 2 - 1 else "B"
        for q in reps_grid:
            decision = "A" if hits[q - 1] > q / 2 else "B"
            wrong[q] += decision != label
    errors = [wrong[q] / trials for q in reps_grid]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 0.05


@criterion(9, "classical baseline: n queries up to N=1024, monotone depth", budget_s=120.0)
def test_criterion_09_classical_baseline():
    rng = np.random.default_rng(7)
    for n in range(2, 11):
        dim = 2**n
        indices = range(dim // 2) if dim <= 64 else rng.integers(0, dim // 2, 32)
        for j in indices:
            oracle = so.BitOracle(so.hadamard_codeword(dim, int(j)))
            result = so.classical_identify(oracle, dim)
            assert result.j == int(j)
            assert result.queries == n
    depths = [so.min_decision_tree_depth(dim) for dim in (4, 8, 16)]
    assert depths == sorted(depths)
    assert all(d >= 1 for d in depths)


@criterion(10, "Fourier variant: exact tables and shift theorem", budget_s=5.0)
def test_criterion_10_fourier_variant():
    for dim in (8, 16):
        table = so.fourier_probability_table(dim)
        expected = np.zeros(dim)
        expected[dim // 2 - 1] = 1.0
        expected[dim // 2 - 2] = expected[dim // 2] = 0.25
        assert np.max(np.abs(table - expected)) < 1e-12
    # shift theorem on an explicit DFT matrix R with entries e^(2 pi i jk/N)/sqrt(N)
    # and oracle phases from the exact Fractions r/N of the codeword's
    # numerators r; the circuit shifts |in> alike
    dim = 8
    k = np.arange(dim)
    dft = np.exp(2j * math.pi * (np.outer(k, k) % dim) / dim) / math.sqrt(dim)
    for j in range(dim):
        word = so.fourier_codeword(dim, j)
        phases = np.exp(1j * math.pi * np.array([float(Fraction(r, dim)) for r in word.tolist()]))
        for a in range(dim):
            moved = dft.conj().T @ (phases * dft[:, a])
            expected = np.zeros(dim, dtype=complex)
            expected[(a + j) % dim] = 1.0
            assert np.max(np.abs(moved - expected)) < 1e-12
        shifted = np.zeros(dim, dtype=complex)
        shifted[[(dim // 2 - 1 + j) % dim, (dim // 2 + j) % dim]] = 1 / math.sqrt(2)
        assert np.max(np.abs(so.run_pipeline(word, "fourier").amps - shifted)) < 1e-12


@criterion(11, "codeword tables reproduce exactly; group laws to N=64", budget_s=5.0)
def test_criterion_11_codeword_tables():
    w4 = ["0000", "0101", "0011", "0110"]

    def bits(dim, j):
        return "".join(map(str, so.hadamard_codeword(dim, j).tolist()))

    assert [bits(4, j) for j in range(4)] == w4
    assert bits(8, 7) == "01101001"
    assert bits(8, 4) == "00001111"
    t8 = [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, "1/4", "1/2", "3/4", 1, "-3/4", "-1/2", "-1/4"],
        [0, "1/2", 1, "-1/2", 0, "1/2", 1, "-1/2"],
        [0, "3/4", "-1/2", "1/4", 1, "-1/4", "1/2", "-3/4"],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, "-3/4", "1/2", "-1/4", 1, "1/4", "-1/2", "3/4"],
        [0, "-1/2", 1, "1/2", 0, "-1/2", 1, "1/2"],
        [0, "-1/4", "-1/2", "-3/4", 1, "3/4", "1/2", "1/4"],
    ]
    for j, row in enumerate(t8):
        word = so.fourier_codeword(8, j).tolist()
        assert [Fraction(r, 8) for r in word] == [Fraction(v) for v in row]
    for dim in (4, 8, 16, 32, 64):
        assert so.group_properties_check(dim).passed


@criterion(12, "CLI determinism: byte-identical reruns", budget_s=120.0)
def test_criterion_12_cli_determinism(tmp_path, capsys):
    commands = [
        ("squeeze-scan", "--s-range", "3/2:15/2", "--seed", "3"),
        ("qfunc", "--n", "3", "--state", "squeezed", "--grid", "16x16", "--seed", "3"),
        ("solve", "--variant", "restricted", "--n", "3", "--seed", "9"),
        ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "2",
         "--reps", "3", "--trials", "25", "--seed", "9"),
        ("solve", "--variant", "fourier", "--n", "3", "--seed", "1"),
        ("classical", "--s-range", "3/2:31/2", "--trials", "3", "--seed", "1"),
    ]
    for i, args in enumerate(commands):
        first = tmp_path / f"a{i}"
        second = tmp_path / f"b{i}"
        assert cli_main([*args, "--out", str(first)]) == 0
        assert cli_main([*args, "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir()) and names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
    capsys.readouterr()  # drop the path listings the CLI prints
