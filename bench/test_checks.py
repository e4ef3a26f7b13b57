"""Each output check accepts real CLI output and rejects a corrupted copy.

Run from the repository root:  python3 -m pytest bench/test_checks.py -q
The CLI runs in-process at small sizes; the checks are the ones run.py uses.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from spinoracle.cli import main  # noqa: E402


def cli(tmp_path, name, *args):
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    return out


def edit_csv(path, row, col, change):
    lines = path.read_text().split("\n")
    cells = lines[2 + row].split(",")
    cells[col] = change(cells[col])
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines))


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def scan(tmp_path):
    return cli(tmp_path, "scan", "squeeze-scan", "--s-range", "3/2:31/2", "--tol", "1e-8")


def check_scan(tmp_path, out):
    checks.check_squeeze_scan(out, 1e-8, range(2, 6))


def shift(delta, relative=False):
    def change(cell):
        x = float(cell)
        return repr(x * (1 + delta) if relative else x + delta)

    return change


def flip_pr_top(index_of):
    def change(doc):
        rep = doc["reports"][index_of(doc["reports"])]
        rep["prTop"] = 1.0 - rep["prTop"]

    return change


def first_b(reports):
    return next(i for i, r in enumerate(reports) if r["label"] == "B")


CASES = {
    # name: (make output dir, check it, corrupt it)
    "scan: mu at s=3/2 shifted past tol": (
        scan, check_scan,
        lambda out: edit_csv(out / "squeeze_scan.csv", 0, 1, shift(1e-6)),
    ),
    "scan: mu at s=15/2 shifted by 0.1%": (
        scan, check_scan,
        lambda out: edit_csv(out / "squeeze_scan.csv", 2, 1, shift(1e-3, relative=True)),
    ),
    "scan: histogram entry moved off centre": (
        scan, check_scan,
        lambda out: edit_csv(out / "hist_N16.csv", 6, 1, shift(1e-4)),
    ),
    "qfunc coherent: one Q value perturbed": (
        lambda tmp: cli(tmp, "q", "qfunc", "--n", "4", "--state", "coherent", "--grid", "32x32"),
        lambda tmp, out: checks.check_qfunc(out, 4, "coherent", (32, 32), None),
        lambda out: edit_csv(out / "qfunc_coherent_N16.csv", 500, 2, shift(1e-5)),
    ),
    "qfunc squeezed: distribution differs from the scan": (
        lambda tmp: (scan(tmp), cli(tmp, "q", "qfunc", "--n", "4", "--state", "squeezed",
                                    "--grid", "32x32", "--tol", "1e-8"))[1],
        lambda tmp, out: checks.check_qfunc(out, 4, "squeezed", (32, 32), tmp / "scan"),
        lambda out: edit_csv(out / "dist_squeezed_N16.csv", 7, 1, shift(1e-4)),
    ),
    "majority worst: one prTop flipped": (
        lambda tmp: cli(tmp, "w", "solve", "--variant", "unrestricted", "--n", "6", "--errors",
                        "3", "--reps", "3", "--trials", "40", "--seed", "5"),
        lambda tmp, out: checks.check_unrestricted(out, 6, 3, 3, 40, 5, "worst"),
        lambda out: edit_json(out / "solve_unrestricted_N64.json", flip_pr_top(lambda r: 7)),
    ),
    "majority random: one B prTop flipped": (
        lambda tmp: cli(tmp, "r", "solve", "--variant", "unrestricted", "--n", "6", "--errors",
                        "3", "--reps", "3", "--trials", "40", "--seed", "5",
                        "--error-mode", "random"),
        lambda tmp, out: checks.check_unrestricted(out, 6, 3, 3, 40, 5, "random"),
        lambda out: edit_json(out / "solve_unrestricted_N64.json", flip_pr_top(first_b)),
    ),
    "restricted sampled: one prTop flipped": (
        lambda tmp: cli(tmp, "s", "solve", "--variant", "restricted", "--n", "5",
                        "--trials", "30", "--seed", "1"),
        lambda tmp, out: checks.check_restricted(out, 5, 30, 1),
        lambda out: edit_json(out / "solve_restricted_N32.json", flip_pr_top(lambda r: 3)),
    ),
    "restricted exhaustive: one prTop flipped": (
        lambda tmp: cli(tmp, "e", "solve", "--variant", "restricted", "--n", "3"),
        lambda tmp, out: checks.check_restricted(out, 3, None, 0),
        lambda out: edit_json(out / "solve_restricted_N8.json", flip_pr_top(lambda r: 11)),
    ),
    "fourier: one table entry perturbed": (
        lambda tmp: cli(tmp, "f", "solve", "--variant", "fourier", "--n", "4"),
        lambda tmp, out: checks.check_fourier(out, 4, 0),
        lambda out: edit_json(out / "solve_fourier_N16.json",
                              lambda d: d["probability_table"].__setitem__(3, 1e-6)),
    ),
    "worst-case spectrum: one entry perturbed": (
        lambda tmp: cli(tmp, "l", "solve", "--variant", "unrestricted", "--n", "6", "--errors",
                        "2", "--trials", "0"),
        lambda tmp, out: checks.check_worst_spectrum(out, 6, 2, 0),
        lambda out: edit_json(out / "solve_unrestricted_N64.json",
                              lambda d: d["worst_case_spectrum"].__setitem__(40, 1e-9)),
    ),
    "classical: query count off by one": (
        lambda tmp: cli(tmp, "c", "classical", "--s-range", "3/2:31/2"),
        lambda tmp, out: checks.check_classical(out, range(2, 6)),
        lambda out: edit_csv(out / "classical_comparison.csv", 1, 2, lambda c: str(int(c) - 1)),
    ),
    "classical: minimum depth changed": (
        lambda tmp: cli(tmp, "c", "classical", "--s-range", "3/2:31/2"),
        lambda tmp, out: checks.check_classical(out, range(2, 6)),
        lambda out: edit_csv(out / "classical_comparison.csv", 2, 3, lambda c: str(int(c) + 1)),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_accepts_output_and_rejects_corruption(tmp_path, case):
    make, check, corrupt = CASES[case]
    out = make(tmp_path)
    check(tmp_path, out)
    corrupt(out)
    with pytest.raises(checks.CheckFailed):
        check(tmp_path, out)


def test_independent_physics_matches_closed_forms():
    # s = 3/2: perfect squeezing at mu = pi/(6 sqrt 3), weights {0, 1/2, 1/2, 0}
    p = checks.squeezed_distribution(4, 3.141592653589793 / (6 * 3**0.5))
    assert abs(p - [0, 0.5, 0.5, 0]).max() < 1e-12
    # classical minimum depth at N = 4, 8, 16 is n - 1
    assert [checks.min_decision_tree_depth(d) for d in (4, 8, 16)] == [1, 2, 3]
    # Fourier pattern: 1 at N/2-1, 1/4 at its even neighbours
    assert [round(checks.fourier_probability(16, j), 12) for j in (6, 7, 8, 5)] == [0.25, 1, 0.25, 0]
