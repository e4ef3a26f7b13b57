"""CLI behaviour: outputs, formats, determinism, config file, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinoracle
from spinoracle.cli import _OPTIONS, RunConfig, load_config, main


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_squeeze_scan_outputs(tmp_path):
    code, out = run(tmp_path, "squeeze-scan", "--s-range", "3/2:7/2")
    assert code == 0
    header, rows = read_csv(out / "squeeze_scan.csv")
    assert header == ["s", "mu_opt", "v_min", "p_c", "overlap"]
    assert [r[0] for r in rows] == ["1.5", "3.5"]
    assert float(rows[0][1]) == pytest.approx(0.302299894, abs=1e-6)
    assert float(rows[0][2]) == 0.25
    hist_header, hist_rows = read_csv(out / "hist_N8.csv")
    assert hist_header == ["index", "probability", "bound"]
    assert len(hist_rows) == 8
    assert float(hist_rows[3][2]) == pytest.approx(31 / 64)


def test_squeeze_scan_optimizes_once_per_size(tmp_path, monkeypatch):
    from spinoracle import squeezing

    sizes, optimize_mu = [], squeezing.optimize_mu

    def counted(sys, tol):
        sizes.append(sys.dim)
        return optimize_mu(sys, tol)

    monkeypatch.setattr(squeezing, "optimize_mu", counted)
    code, _ = run(tmp_path, "squeeze-scan", "--s-range", "3/2:31/2")
    assert code == 0 and sizes == [4, 8, 16, 32]


def test_csv_files_use_lf_and_nine_digits(tmp_path):
    code, out = run(tmp_path, "squeeze-scan", "--s-range", "3/2")
    assert code == 0
    raw = (out / "squeeze_scan.csv").read_bytes()
    assert b"\r" not in raw
    header, rows = read_csv(out / "squeeze_scan.csv")
    mu = rows[0][1]
    assert len(mu.replace(".", "").replace("-", "").lstrip("0")) <= 9


def test_qfunc_outputs(tmp_path):
    code, out = run(tmp_path, "qfunc", "--n", "3", "--state", "coherent", "--grid", "9x8")
    assert code == 0
    header, rows = read_csv(out / "qfunc_coherent_N8.csv")
    assert header == ["theta", "phi", "q"]
    assert len(rows) == 72
    top = max(rows, key=lambda r: float(r[2]))
    assert float(top[0]) == pytest.approx(math.pi / 2, abs=math.pi / 8)  # equatorial peak
    assert float(top[1]) == 0.0
    dist_header, dist_rows = read_csv(out / "dist_coherent_N8.csv")
    assert dist_header == ["index", "probability"]
    assert len(dist_rows) == 8
    assert sum(float(r[1]) for r in dist_rows) == pytest.approx(1.0, abs=1e-9)


def test_qfunc_csv_matches_the_json_rows_at_nine_digits(tmp_path):
    args = ("qfunc", "--n", "3", "--state", "coherent", "--grid", "9x12")
    assert main([*args, "--out", str(tmp_path / "csv")]) == 0
    assert main([*args, "--format", "json", "--out", str(tmp_path / "json")]) == 0
    _, rows = read_csv(tmp_path / "csv" / "qfunc_coherent_N8.csv")
    doc = json.loads((tmp_path / "json" / "qfunc_coherent_N8.json").read_text())
    expected = [[format(row[key], ".9g") for key in ("theta", "phi", "q")]
                for row in doc["qfunc_coherent_N8"]]
    assert rows == expected


def test_solve_restricted_exhaustive(tmp_path):
    code, out = run(tmp_path, "solve", "--variant", "restricted", "--n", "4")
    assert code == 0
    doc = json.loads((out / "solve_restricted_N16.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["summary"]["instances"] == 93 * 8
    assert doc["summary"]["accuracy"] == 1.0
    assert doc["summary"]["mean_queries"] == 1.0
    assert all(rep["queries"] == 1 for rep in doc["reports"])


def test_solve_fourier_table(tmp_path):
    code, out = run(tmp_path, "solve", "--variant", "fourier", "--n", "3")
    assert code == 0
    doc = json.loads((out / "solve_fourier_N8.json").read_text())
    table = doc["probability_table"]
    assert table[3] == pytest.approx(1.0, abs=1e-12)
    assert table[2] == pytest.approx(0.25, abs=1e-12)
    assert table[4] == pytest.approx(0.25, abs=1e-12)


def test_solve_unrestricted_spectrum_and_trials(tmp_path):
    code, out = run(
        tmp_path, "solve", "--variant", "unrestricted", "--n", "6",
        "--errors", "3", "--reps", "5", "--trials", "40", "--seed", "5",
    )
    assert code == 0
    doc = json.loads((out / "solve_unrestricted_N64.json").read_text())
    assert doc["summary"]["instances"] == 40
    assert doc["summary"]["mean_queries"] == 5.0
    assert doc["worst_case_spectrum"][63] == pytest.approx((1 - 12 / 64) ** 2, abs=1e-10)


def test_solve_unrestricted_accuracy_report(tmp_path):
    code, out = run(
        tmp_path, "solve", "--variant", "unrestricted", "--n", "6",
        "--errors", "3", "--reps", "9", "--trials", "400", "--seed", "77",
    )
    assert code == 0
    doc = json.loads((out / "solve_unrestricted_N64.json").read_text())
    assert doc["summary"]["accuracy"] >= 0.95
    assert doc["summary"]["mean_queries"] == 9.0


def test_solve_restricted_sampled_above_exhaustive_cutoff(tmp_path):
    code, out = run(
        tmp_path, "solve", "--variant", "restricted", "--n", "5",
        "--trials", "64", "--seed", "2",
    )
    assert code == 0
    doc = json.loads((out / "solve_restricted_N32.json").read_text())
    assert doc["summary"]["instances"] == 64
    assert doc["summary"]["accuracy"] == 1.0


def test_solve_csv_format(tmp_path):
    code, out = run(tmp_path, "solve", "--variant", "restricted", "--n", "3", "--format", "csv")
    assert code == 0
    header, rows = read_csv(out / "solve_restricted_N8.csv")
    assert header[:3] == ["variant", "N", "hiddenJ"]
    assert len(rows) == 20


def test_classical_outputs(tmp_path):
    code, out = run(tmp_path, "classical", "--s-range", "3/2:1023/2", "--trials", "4")
    assert code == 0
    header, rows = read_csv(out / "classical_comparison.csv")
    assert header == ["N", "quantum_queries", "classical_queries", "classical_min_depth"]
    assert int(rows[-1][0]) == 1024
    for row in rows:
        dim = int(row[0])
        assert row[1] == "1"
        assert int(row[2]) == dim.bit_length() - 1
    assert rows[1][3] == "2"  # N=8 brute-force depth
    assert rows[3][3] == ""  # no search beyond N=16


def test_classical_at_the_trials_cap(tmp_path):
    from spinoracle.cli import MAX_TRIALS

    code, out = run(tmp_path, "classical", "--s-range", "3/2:1023/2", "--trials", str(MAX_TRIALS))
    assert code == 0
    _, rows = read_csv(out / "classical_comparison.csv")
    assert [int(r[0]) for r in rows] == [2**n for n in range(2, 11)]
    assert [int(r[2]) for r in rows] == list(range(2, 11))  # log2 N queries


def test_a_failed_classical_identification_exits_4(tmp_path, monkeypatch, capsys):
    from spinoracle import classical_baseline

    codeword_oracle = classical_baseline.codeword_oracle

    def one_flipped_bit(dim, js):
        oracle = codeword_oracle(dim, js)

        def answer(positions):
            bits = oracle(positions).copy()
            bits[1, 0] ^= 1  # the second string's answer at x = 1
            return bits

        return answer

    monkeypatch.setattr(classical_baseline, "codeword_oracle", one_flipped_bit)
    code, out = run(tmp_path, "classical", "--s-range", "3/2:7/2", "--trials", "4", "--seed", "3")
    j = np.random.default_rng(3).integers(0, 2, size=4)[1]  # the second index drawn at N=4
    assert code == 4 and not out.exists()
    assert capsys.readouterr().err == (
        f"invariant violation: classical identification failed at N=4, j={j}\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ("squeeze-scan", "--s-range", "3/2:15/2", "--seed", "3"),
        ("qfunc", "--n", "3", "--state", "squeezed", "--grid", "16x16"),
        ("solve", "--variant", "restricted", "--n", "3", "--seed", "9"),
        ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "2",
         "--reps", "3", "--trials", "25", "--seed", "9"),
        ("solve", "--variant", "fourier", "--n", "3"),
        ("classical", "--s-range", "3/2:31/2", "--trials", "3", "--seed", "1"),
    ],
)
def test_rerun_is_byte_identical(tmp_path, args):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s-range=3/2:3/2\nseed=4\ntol=1e-7\n")
    out = tmp_path / "out"
    code = main(["squeeze-scan", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "squeeze_scan.csv")
    assert len(rows) == 1
    out2 = tmp_path / "out2"
    code = main([
        "squeeze-scan", "--config", str(cfg), "--s-range", "3/2:7/2", "--out", str(out2)
    ])
    assert code == 0
    _, rows2 = read_csv(out2 / "squeeze_scan.csv")
    assert len(rows2) == 2  # explicit flag overrides the config file
    # seed and out from a config file are used, not the defaults
    solve = ["solve", "--variant", "restricted", "--n", "5", "--trials", "20"]
    cfg.write_text(f"seed=5\nout={tmp_path / 'from_config'}\n")
    assert main([*solve, "--config", str(cfg)]) == 0
    assert main([*solve, "--seed", "5", "--out", str(tmp_path / "from_flag")]) == 0
    assert main([*solve, "--out", str(tmp_path / "default_seed")]) == 0
    report = "solve_restricted_N32.json"
    from_config = (tmp_path / "from_config" / report).read_bytes()
    assert from_config == (tmp_path / "from_flag" / report).read_bytes()
    assert from_config != (tmp_path / "default_seed" / report).read_bytes()


UNSET = dict(n=None, s_range=None, variant=None, errors=None, grid=None, state=None,
             error_mode=None)
SHARED = dict(reps=1, trials=1000, seed=0, tol=1e-8, out=Path("out"), format="csv")
DEFAULT_CONFIGS = {  # what each command resolves to when no flag or config file sets a key
    "squeeze-scan": {"s_range": "3/2:511/2"},
    "qfunc": {"n": 6, "grid": "64x64", "state": "coherent"},
    "solve": {"n": 3, "variant": "restricted", "error_mode": "worst", "format": "json"},
    "classical": {"s_range": "3/2:511/2", "trials": 32},
}


@pytest.mark.parametrize("command", sorted(DEFAULT_CONFIGS))
def test_default_run_configs(command):
    fields = {**UNSET, **SHARED, **DEFAULT_CONFIGS[command]}
    assert load_config([command]) == RunConfig(command=command, **fields)


def test_exit_code_config_error(tmp_path):
    assert main(["qfunc", "--n", "99", "--out", str(tmp_path / "x")]) == 2
    assert main([
        "solve", "--variant", "unrestricted", "--n", "3", "--errors", "1",
        "--out", str(tmp_path / "y"),
    ]) == 2


def test_exit_code_resource_guard(tmp_path):
    assert main([
        "squeeze-scan", "--s-range", "2047/2:2047/2", "--out", str(tmp_path / "z")
    ]) == 3


def test_exit_code_invariant_violation(tmp_path, monkeypatch):
    from spinoracle import InvariantError
    from spinoracle import cli as cli_mod

    def boom(cfg):
        raise InvariantError("synthetic")

    monkeypatch.setitem(cli_mod._COMMANDS, "classical", boom)
    assert main(["classical", "--out", str(tmp_path / "w")]) == 4


def test_json_reports_have_wire_format_keys(tmp_path):
    code, out = run(tmp_path, "solve", "--variant", "restricted", "--n", "3")
    assert code == 0
    doc = json.loads((out / "solve_restricted_N8.json").read_text())
    rep = doc["reports"][0]
    for key in ("variant", "N", "hiddenJ", "decision", "prTop", "queries", "repetitions"):
        assert key in rep
    assert len(rep["perOutcome"]) == 8


@pytest.mark.parametrize("errors", [[], ["--errors", "20"]])
def test_solve_restricted_sampled_at_n8(tmp_path, errors):
    code, out = run(
        tmp_path, "solve", "--variant", "restricted", "--n", "8", *errors, "--seed", "3"
    )
    assert code == 0
    doc = json.loads((out / "solve_restricted_N256.json").read_text())
    assert doc["summary"]["instances"] == 1000
    assert doc["summary"]["accuracy"] == 1.0


def run_python(tmp_path, *args, timeout=60):
    """Run an interpreter that imports this spinoracle, so a hang fails instead of blocking."""
    env = dict(os.environ)
    src = str(Path(spinoracle.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=timeout,
    )


def run_process(tmp_path, *args, timeout=60):
    """Run the CLI in its own interpreter."""
    return run_python(tmp_path, "-m", "spinoracle.cli", *args, timeout=timeout)


def test_stalled_mu_search_exits_4(tmp_path):
    done = run_process(tmp_path, "squeeze-scan", "--s-range", "3/2:3/2", "--tol", "1e-300")
    assert done.returncode == 4
    assert done.stderr.startswith("numerical failure:") and done.stderr.count("\n") == 1


def test_exit_code_numerics_error(tmp_path, monkeypatch):
    from spinoracle import NumericsError
    from spinoracle import squeezing

    def boom(sys, tol=1e-8):
        raise NumericsError("synthetic", trace=[(0.0, 1.0)])

    monkeypatch.setattr(squeezing, "optimize_mu", boom)
    assert main(["qfunc", "--n", "3", "--state", "squeezed", "--out", str(tmp_path / "v")]) == 4


def test_wrong_sx_spectrum_exits_4(tmp_path, monkeypatch, capsys):
    from spinoracle import squeezing
    from spinoracle.squeezing import _propagator

    real_series = squeezing._bessel_series
    # a series off by a relative 1e-6 rotates the squeezed state off unit norm
    monkeypatch.setattr(squeezing, "_bessel_series", lambda a: real_series(a) * (1 + 1e-6))
    _propagator.cache_clear()  # a cached factorization would skip the series
    try:
        code, out = run(tmp_path, "squeeze-scan", "--s-range", "3/2:7/2")
    finally:
        _propagator.cache_clear()
    assert code == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: exp(-i pi/2 Sy) off unit norm by")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "args",  # the documented exit code, then the command line
    [
        (2, "qfunc", "--n", "99"),
        (2, "qfunc", "--n", "3", "--grid", "abc"),
        (4, "qfunc", "--n", "3", "--state", "squeezed", "--tol", "1e-300"),
        (3, "squeeze-scan", "--s-range", "2047/2:2047/2"),
        (2, "squeeze-scan", "--s-range", "3/2", "--tol", "-1"),
        (2, "squeeze-scan", "--s-range", "1e400:1e401"),
        (2, "classical", "--s-range", "abc"),
        (3, "solve", "--variant", "restricted", "--n", "3", "--trials", "65537"),
        (2, "solve", "--variant", "restricted", "--n", "5", "--errors", "99", "--trials", "3"),
        (2, "solve", "--variant", "unrestricted", "--n", "3", "--errors", "1"),
        (2, "solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--reps", "0",
         "--trials", "5"),
        (2, "solve", "--variant", "unrestricted", "--n", "6", "--errors", "70", "--trials", "0"),
        (2, "solve", "--variant", "fourier", "--n", "20"),
        (2, "solve", "--variant", "restricted", "--n", "5", "--trials", "-5"),
        (2, "solve", "--variant", "unrestricted", "--n", "6", "--errors", "-1", "--trials", "2"),
        (2, "qfunc", "--config", "missing.cfg"),
        (2, "qfunc", "--config", "bad.cfg"),
        (2, "solve", "--n", "3", "--config", "latin.cfg"),
        (2, "qfunc", "--n", "3", "--out", "bad.cfg"),
        (2, "solve", "--variant", "restricted", "--n", "3", "--seed", "-1"),
        (2, "squeeze-scan", "--s-range", "3/2", "--tol", "inf"),
        (2, "solve", "--variant", "restricted", "--n", "3", "--reps", "-1"),
        (2, "solve", "--n", "abc"),
        (2, "squeeze-scan", "--s-range", "3/2", "--tol", "-inf"),
        (2, "solve", "--variant", "restricted", "--n", "3", "--reps", "5"),
        (2, "solve", "--variant", "restricted", "--n", "3", "--reps", "1000000000000"),
        (2,),  # no command
        (2, "solve-all", "--n", "3"),
        (2, "solve", "--n", "3", "restricted"),  # a stray positional argument
        (2, "solve", "--variant", "fourier", "--n"),  # a flag that ends the line
        (2, "solve", "--var", "fourier", "--n", "3"),  # only exact flag names
    ],
)
def test_bad_inputs_exit_with_a_documented_code(tmp_path, args):
    code, *argv = args
    (tmp_path / "bad.cfg").write_text("n=abc\n")
    (tmp_path / "latin.cfg").write_bytes(b"seed=1\n\xff\xfe=3\n")  # not UTF-8
    done = run_process(tmp_path, *argv)
    assert done.returncode == code, done.stderr
    assert done.stderr.count("\n") == 1, done.stderr  # one line, no traceback
    assert not (tmp_path / "out").exists()


def test_sampled_restricted_solve_above_the_enumeration_size_succeeds(tmp_path):
    # N = 256 is sampled, not enumerated (cli._blocks)
    done = run_process(tmp_path, "solve", "--variant", "restricted", "--n", "8", "--trials", "20",
                       "--out", "out")
    assert done.returncode == 0, done.stderr
    assert [path.name for path in (tmp_path / "out").iterdir()] == ["solve_restricted_N256.json"]


IMPORTED_PACKAGES = """
import sys
before = set(sys.modules)
import spinoracle.cli
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_imports_only_declared_dependencies(tmp_path):
    # pyproject.toml declares numpy alone, and every import counts in start-up
    done = run_python(tmp_path, "-c", IMPORTED_PACKAGES)
    assert done.returncode == 0, done.stderr
    packages = set(done.stdout.split())
    assert "numpy" in packages and "spinoracle" in packages
    undeclared = packages - set(sys.stdlib_module_names) - {"numpy", "spinoracle"}
    assert not undeclared, sorted(undeclared)


def test_cli_import_loads_no_dataclasses(tmp_path):
    # the value types are slots classes: building dataclasses was a third of the import
    done = run_python(tmp_path, "-c",
                      "import sys, spinoracle.cli; print('dataclasses' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_cli_run_loads_no_argparse(tmp_path):
    # the command line is read straight from the option table; argparse with
    # gettext and locale was the largest fixed cost of a run
    cli = ("import sys; from spinoracle.cli import main; "
           "code = main(['solve', '--variant', 'fourier', '--n', '3']); "
           "print(code, *[m in sys.modules for m in ('argparse', 'gettext', 'locale')])")
    done = run_python(tmp_path, "-c", cli)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-4:] == ["0", "False", "False", "False"]


@pytest.mark.parametrize(
    "args, loaded",
    [
        (("--variant", "fourier", "--n", "3"), False),
        (("--variant", "restricted", "--n", "4"), False),
        (("--variant", "restricted", "--n", "5", "--trials", "3"), True),
    ],
)
def test_only_sampled_solves_import_numpy_random(tmp_path, args, loaded):
    # the seeded generator is made where a trial is drawn; numpy.random brings
    # in secrets and hmac, which an enumerated run does not need
    cli = (f"import sys; from spinoracle.cli import main; code = main(['solve', *{args!r}]); "
           "print(code, 'numpy.random' in sys.modules)")
    done = run_python(tmp_path, "-c", cli)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", str(loaded)]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_solve_at_the_trials_cap_holds_no_whole_document(tmp_path):
    # report rows are rendered per block and written unjoined; the report dicts,
    # the joined text and its encoded bytes used to peak near 416 MB here
    args = ["solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--reps", "9",
            "--trials", str(2**16)]
    cli = ("import os, resource; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
           f"from spinoracle.cli import main; code = main({args!r}); "
           "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    done = run_python(tmp_path, "-c", cli)
    assert done.returncode == 0, done.stderr
    code, peak_kib = done.stdout.split()[-2:]
    assert code == "0" and int(peak_kib) <= 150 * 1024, peak_kib


@pytest.mark.parametrize(
    "args, flag",
    [
        (("--variant", "restricted", "--n", "5", "--trials", "-5"), "--trials"),
        (("--variant", "unrestricted", "--n", "6", "--errors", "-1", "--trials", "2"), "--errors"),
        (("--variant", "restricted", "--n", "3", "--seed", "-1"), "--seed"),
        (("--variant", "restricted", "--n", "3", "--reps", "-1"), "--reps"),
        (("--variant", "fourier", "--n", "3", "--reps", "0"), "--reps"),
        # restricted and fourier decisions are exact with one query
        (("--variant", "restricted", "--n", "3", "--reps", "5"), "--reps"),
        (("--variant", "restricted", "--n", "3", "--reps", "1000000000000"), "--reps"),
        (("--variant", "fourier", "--n", "3", "--reps", "2"), "--reps"),
    ],
)
def test_negative_counts_are_rejected(tmp_path, capsys, args, flag):
    assert main(["solve", *args, "--out", str(tmp_path / "neg")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err, err
    assert main(["solve", "--variant", "restricted", "--n", "5", "--trials", "0",
                 "--out", str(tmp_path / "zero")]) == 0


@pytest.mark.parametrize("args", [("--tol", "-inf"), ("--tol=-inf",)])
def test_a_value_may_start_with_a_dash(tmp_path, capsys, args):
    # the token after a flag is its value: -inf reaches the finite check
    assert main(["squeeze-scan", "--s-range", "3/2", *args, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--tol must be finite" in err, err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--variant", "unrestricted", "--n", "6", "--errors", "2", "--trials", "9",
         "--error-mode", "random", "--format", "csv", "--out", "x"],
        ["squeeze-scan", "--s-range", "3/2:7/2", "--tol", "1e-9", "--seed", "4"],
        ["qfunc", "--n", "4", "--state", "squeezed", "--grid", "8x16"],
    ],
)
def test_flag_equals_value_reads_as_flag_then_value(argv):
    joined, pairs = [argv[0]], iter(argv[1:])
    joined += [f"{flag}={value}" for flag, value in zip(pairs, pairs)]
    assert load_config(joined) == load_config(argv)
    assert load_config(argv[:1]) != load_config(argv)


def test_a_repeated_flag_keeps_its_last_value():
    assert load_config(["solve", "--n", "3", "--n", "5"]).n == 5


def test_help_lists_every_solve_flag_and_exits_0(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--help"]) == 0
    listed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")}
    options = {"--" + key.replace("_", "-"): opt for key, opt in _OPTIONS.items()
               if "solve" in opt.commands}
    assert list(listed) == [*options, "--config"]
    for flag, opt in options.items():
        assert listed[flag].endswith(opt.help)
        assert all(choice in listed[flag] for choice in opt.choices)
    monkeypatch.setattr(sys, "argv", ["spinoracle", "solve", "-h"])  # main() reads sys.argv
    assert main() == 0 and "--error-mode" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    # an infinite tol used to skip the mu refinement and write the coarse bracket's midpoint
    args = ["squeeze-scan", "--s-range", "3/2", f"--tol={tol}", "--out", str(tmp_path / "t")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--tol" in err, err
    assert not (tmp_path / "t" / "squeeze_scan.csv").exists()


def count_codeword_builds(monkeypatch):
    """Count calls to the codeword builders wherever a module holds them."""
    from spinoracle import codewords, oracle_circuit

    calls = dict.fromkeys(("hadamard_codeword", "fourier_codeword"), 0)
    for name in ("hadamard_codeword", "fourier_codeword"):
        original = getattr(codewords, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (codewords, oracle_circuit):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "args, hadamard_builds",
    [
        (("--variant", "fourier", "--n", "6"), 0),
        (("--variant", "restricted", "--n", "4"), 0),
        (("--variant", "restricted", "--n", "7", "--trials", "50"), 0),
        # the one build is worst_case_spectrum's designated word
        (("--variant", "unrestricted", "--n", "6", "--errors", "2", "--trials", "50"), 1),
    ],
)
def test_decision_runs_rebuild_no_codewords(tmp_path, monkeypatch, args, hadamard_builds):
    calls = count_codeword_builds(monkeypatch)
    assert main(["solve", *args, "--out", str(tmp_path)]) == 0
    # enumerated runs too build their blocks straight from the enumeration
    assert calls == {"hadamard_codeword": hadamard_builds, "fourier_codeword": 0}


@pytest.mark.parametrize(
    "args, stem, key, index",
    [
        (("--variant", "fourier", "--n", "3"), "solve_fourier_N8", "probability_table", "j"),
        (("--variant", "unrestricted", "--n", "6", "--errors", "2", "--trials", "0"),
         "solve_unrestricted_N64", "worst_case_spectrum", "index"),
    ],
)
def test_solve_csv_writes_side_tables(tmp_path, args, stem, key, index):
    assert main(["solve", *args, "--out", str(tmp_path / "json")]) == 0
    assert main(["solve", *args, "--format", "csv", "--out", str(tmp_path / "csv")]) == 0
    expected = json.loads((tmp_path / "json" / f"{stem}.json").read_text())[key]
    header, rows = read_csv(tmp_path / "csv" / f"{stem}_{key}.csv")
    assert header == [index, "probability"]
    assert [int(r[0]) for r in rows] == list(range(len(expected)))
    assert [r[1] for r in rows] == [format(v, ".9g") for v in expected]


@pytest.mark.parametrize(
    "args, config, key",
    [
        (("qfunc", "--n", "2"), "format=xml", "--format"),
        (("solve", "--n", "3"), "sed=5", "'sed'"),
        (("solve", "--variant", "unrestricted", "--n", "6", "--trials", "2"),
         "error_mode=bogus", "--error-mode"),
        (("squeeze-scan", "--s-range", "3/2"), "variant=fourier", "'variant'"),
        (("squeeze-scan", "--s-range", "3/2", "--variant", "fourier"), None, "--variant"),
        (("classical", "--s-range", "3/2", "--tol", "1e-6"), None, "--tol"),
    ],
)
def test_keys_and_values_a_command_does_not_take_exit_2(tmp_path, capsys, args, config, key):
    # config-file values used to skip the choices that flags get, and unknown or
    # foreign keys, from a config file or a flag, used to be ignored
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        args = (*args, "--config", str(tmp_path / "run.cfg"))
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",  # (expected exit code, *command line)
    [
        (2, "squeeze-scan", "--s-range", "abc"),
        (2, "classical", "--s-range", "7/2:3/2"),
        (2, "qfunc", "--grid", "abc"),
        (2, "qfunc", "--grid", "8x8x8"),
        (2, "qfunc", "--n", "99"),
        # these fail inside the command, part-way through its work
        (3, "qfunc", "--n", "2", "--grid", "100000000x8"),
        (3, "qfunc", "--n", "11", "--state", "squeezed"),
        (2, "solve", "--variant", "restricted", "--n", "3", "--errors", "9"),
        (3, "squeeze-scan", "--s-range", "3/2:2047/2"),  # at N = 2048, after N = 4 .. 1024
        (4, "squeeze-scan", "--s-range", "3/2", "--tol", "1e-300"),
        (2, "classical", "--s-range", "3/2", "--trials", "0"),
        (2, "solve", "--variant", "fourier", "--n", "3", "--errors", "1"),
    ],
)
def test_rejected_values_write_no_output_directory(tmp_path, capsys, args):
    code, *args = args
    kept = tmp_path / "Y" / "kept.txt"
    kept.parent.mkdir()
    kept.write_bytes(b"kept\n")
    for out in (tmp_path / "X", kept.parent):
        assert main([*args, "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "X").exists()
    assert list(kept.parent.iterdir()) == [kept] and kept.read_bytes() == b"kept\n"


def run_capped(tmp_path, *args):
    """Run the CLI with its address space capped at 4 GiB, so a missing guard fails fast."""
    limit = (  # one BLAS thread, so the cap does not depend on the core count
        "import os, resource; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
        "resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))"
    )
    cli = f"{limit}; from spinoracle.cli import main; raise SystemExit(main({list(args)!r}))"
    return run_python(tmp_path, "-c", cli)


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--trials", "1",
         "--reps", "100000000000"),
        ("qfunc", "--n", "14", "--grid", "8x100000000"),
        ("qfunc", "--n", "2", "--grid", "100000000x8"),
        ("qfunc", "--n", "14", "--grid", "1025x1024"),  # one theta row over the cell cap
        ("classical", "--s-range", "3/2", "--trials", "1000000000000"),
    ],
)
def test_huge_reps_and_grids_hit_a_resource_guard(tmp_path, args):
    done = run_capped(tmp_path, *args, "--out", "out")
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("resource guard:") and done.stderr.count("\n") == 1


def test_a_wide_q_map_at_the_largest_n_runs_under_the_cap(tmp_path):
    # 1025 phi steps at N = 16384: each theta row is one folded length-1025 FFT
    done = run_capped(tmp_path, "qfunc", "--n", "14", "--grid", "8x1025", "--out", "out")
    assert done.returncode == 0, done.stderr
    _, rows = read_csv(tmp_path / "out" / "qfunc_coherent_N16384.csv")
    assert len(rows) == 8 * 1025


HUGE = 10**12  # an allocation this size fails at once, so a missing guard cannot hang the sweep
SWEEP_BASES = {  # a small command for each numeric key; {} marks where the value goes
    "n": ("qfunc", "--grid", "8x8", "--n={}"),
    "errors": ("solve", "--variant", "restricted", "--n", "3", "--errors={}"),
    "reps": ("solve", "--variant", "unrestricted", "--n", "6", "--trials", "2", "--reps={}"),
    "trials": ("solve", "--variant", "unrestricted", "--n", "6", "--trials={}"),
    "seed": ("solve", "--variant", "restricted", "--n", "3", "--seed={}"),
    "tol": ("squeeze-scan", "--s-range", "3/2", "--tol={}"),
    "grid_theta": ("qfunc", "--n", "2", "--grid={}x8"),
    "grid_phi": ("qfunc", "--n", "2", "--grid=8x{}"),
}
GUARDED = {"n", "errors", "reps", "trials", "grid_theta", "grid_phi"}  # keys with an upper bound


def test_bad_value_sweep_exits_with_a_documented_code(tmp_path, capsys):
    cases = [(key, value) for key in SWEEP_BASES for value in ("-1", "0", "1.5", "inf", "nan")]
    cases += [(key, str(HUGE)) for key in sorted(GUARDED)]
    wrong = []
    for key, value in cases:
        args = [arg.format(value) for arg in SWEEP_BASES[key]]
        code = main([*args, "--out", str(tmp_path / f"{key}_{value}")])
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or (code and err.count("\n") != 1):
            wrong.append((key, value, code, err))
    assert not wrong, wrong


def test_readme_lists_each_commands_options():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = {
        match[1]: sorted(re.findall(r"`(--[a-z-]+)`", match[2]))
        for match in re.finditer(r"^- `([a-z-]+)`: (.*)$", readme.read_text(), re.MULTILINE)
    }
    commands = sorted({command for opt in _OPTIONS.values() for command in opt.commands})
    flags = {
        command: sorted(["--config", *("--" + key.replace("_", "-")
                                       for key, opt in _OPTIONS.items() if command in opt.commands)])
        for command in commands
    }
    assert documented == flags
