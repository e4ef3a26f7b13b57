"""Benchmark of the spinoracle CLI: the squeezing sweep and the decision experiments.

Usage (from the repository root):

    python3 bench/run.py --workload squeeze|decide-sampled|decide-exact \
        --seed N --seconds S --trace 0|1

One operation is one CLI command, run in its own fresh interpreter
(bench/worker.py) so that module-level caches start cold.  A run repeats
whole passes over the workload's commands, one at a time from this one
parent process, until --seconds have gone by, and checks every output of
every pass with bench/checks.py.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
    wall_s       seconds inside cli.main, summed over one pass (median of passes)
    setup_s      interpreter start until spinoracle.cli is imported (median of
                 all interpreters in the run)
    peak_rss_mb  largest peak RSS among one pass's interpreters (median of passes)
--trace 1 wraps each layer's public functions (bench/tracing.py) and reports
the per-layer metrics listed in PER_LAYER instead.

Every time is rescaled to a nominal machine speed by references timed
around it, which cancels most of this shared machine's drift: the time in
cli.main by a fixed reference workload timed in the same interpreter just
before and just after it (worker.REFERENCES), set-up and import times by
bare interpreter starts timed just before and just after the worker.
bench/README.md gives the reasoning; raw figures and every per-interpreter
record go to .bench_out/results/.
"""

import os
import sys

# One BLAS/OpenMP thread for the workers and for the checks in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# Each workload's reference (worker.REFERENCES) exercises what its commands
# spend their time on: large complex LAPACK for squeeze, interpreter loops and
# small numpy calls for the decision workloads.
WORKLOAD_REFERENCE = {"squeeze": "lapack", "decide-sampled": "python", "decide-exact": "python"}
# Typical timings, on the machine that produced the README figures, of each
# reference and of a bare interpreter start (see bare_start).  A time t is
# reported as t * NOMINAL / mean(the two reference timings around it).
REF_NOMINAL_S = {"python": 0.065, "lapack": 0.215}
START_NOMINAL_S = 0.045
SAMPLED_TRIALS = 2000  # trials per decide-sampled command
RUN_LIMIT_S = 170  # a run never starts a command after this, and kills one that overruns


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its outputs: check(name, out_dirs_by_op_name)."""

    name: str
    argv: tuple
    check: object


def _check(fn, *args, needs=(), **kwargs):
    """Bind a checks.* function to its op's output dir (and those it `needs`)."""

    def check(name, dirs):
        extra = [dirs[n] for n in needs]
        return fn(dirs[name], *args, *extra, **kwargs)

    return check


def build_workloads(seed: int) -> dict:
    import checks

    s_range = "3/2:1023/2"
    scan_exponents = range(2, 11)
    trials = str(SAMPLED_TRIALS)
    majority = ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "3",
                "--reps", "9", "--trials", trials, "--seed", str(seed))
    return {
        "squeeze": [
            Op("scan", ("squeeze-scan", "--s-range", s_range, "--tol", "1e-8"),
               _check(checks.check_squeeze_scan, 1e-8, scan_exponents)),
            Op("qfunc_squeezed",
               ("qfunc", "--n", "10", "--state", "squeezed", "--grid", "128x128", "--tol", "1e-8"),
               _check(checks.check_qfunc, 10, "squeezed", (128, 128), needs=("scan",))),
            Op("qfunc_coherent", ("qfunc", "--n", "6", "--state", "coherent", "--grid", "128x128"),
               _check(checks.check_qfunc, 6, "coherent", (128, 128), None)),
        ],
        "decide-sampled": [
            Op("majority_worst", majority,
               _check(checks.check_unrestricted, 6, 3, 9, SAMPLED_TRIALS, seed, "worst")),
            Op("majority_random", majority + ("--error-mode", "random"),
               _check(checks.check_unrestricted, 6, 3, 9, SAMPLED_TRIALS, seed, "random")),
            Op("restricted_n7",
               ("solve", "--variant", "restricted", "--n", "7", "--trials", trials, "--seed", str(seed)),
               _check(checks.check_restricted, 7, SAMPLED_TRIALS, seed)),
        ],
        "decide-exact": [
            Op("fourier_n9", ("solve", "--variant", "fourier", "--n", "9"),
               _check(checks.check_fourier, 9, seed)),
            Op("restricted_n4", ("solve", "--variant", "restricted", "--n", "4"),
               _check(checks.check_restricted, 4, None, 0)),
            *(
                Op(f"worst_l{l}",
                   ("solve", "--variant", "unrestricted", "--n", "6", "--errors", str(l),
                    "--trials", "0", "--seed", str(seed)),
                   _check(checks.check_worst_spectrum, 6, l, seed))
                for l in (0, 2, 4, 6)
            ),
            Op("classical", ("classical", "--s-range", s_range, "--seed", str(seed)),
               _check(checks.check_classical, scan_exponents)),
        ],
    }


# Per-layer metrics (name, unit); layer_metrics computes them from one traced pass.
PER_LAYER = (
    ("setup.numpy_import_s", "s"),
    ("setup.spinoracle_import_s", "s"),
    ("spin_core.spin_operators_s", "s"),
    ("spin_core.expi_hermitian_s", "s"),
    ("squeezing.twist_generator_s", "s"),
    ("squeezing.optimize_mu_s", "s"),
    ("qfunction.q_function_s", "s"),
    ("codewords.hadamard_codeword_s", "s"),
    ("codewords.hadamard_codeword_calls", "count"),
    ("codewords.fourier_codeword_s", "s"),
    ("codewords.fourier_codeword_calls", "count"),
    ("codewords.codeword_builds_per_instance", "ratio"),
    ("codewords.sample_instance_s", "s"),
    ("codewords.instance_from_parts_s", "s"),
    ("oracle_circuit.run_pipeline_s", "s"),
    ("oracle_circuit.run_pipeline_calls", "count"),
    ("oracle_circuit.merge_two_to_one_s", "s"),
    ("oracle_circuit.measure_designated_s", "s"),
    ("oracle_circuit.decide_s", "s"),
    ("oracle_circuit.fourier_probability_table_s", "s"),
    ("classical_baseline.classical_identify_s", "s"),
    ("classical_baseline.min_decision_tree_depth_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
)

# span name -> metric, for spans reported by total or by self time
_TOTAL_SPANS = {
    "spin_core.spin_operators": "spin_core.spin_operators_s",
    "spin_core.expi_hermitian": "spin_core.expi_hermitian_s",
    "squeezing.twist_generator": "squeezing.twist_generator_s",
    "qfunction.q_function": "qfunction.q_function_s",
    "codewords.hadamard_codeword": "codewords.hadamard_codeword_s",
    "codewords.fourier_codeword": "codewords.fourier_codeword_s",
    "oracle_circuit.run_pipeline": "oracle_circuit.run_pipeline_s",
    "oracle_circuit.merge_two_to_one": "oracle_circuit.merge_two_to_one_s",
    "oracle_circuit.measure_designated": "oracle_circuit.measure_designated_s",
    "classical_baseline.classical_identify": "classical_baseline.classical_identify_s",
    "classical_baseline.min_decision_tree_depth": "classical_baseline.min_decision_tree_depth_s",
}
_SELF_SPANS = {
    "squeezing.optimize_mu": "squeezing.optimize_mu_s",
    "codewords.sample_instance": "codewords.sample_instance_s",
    "codewords.instance_from_parts": "codewords.instance_from_parts_s",
    "oracle_circuit.decide_restricted": "oracle_circuit.decide_s",
    "oracle_circuit.decide_unrestricted": "oracle_circuit.decide_s",
    "oracle_circuit.decide_fourier": "oracle_circuit.decide_s",
    "oracle_circuit.fourier_probability_table": "oracle_circuit.fourier_probability_table_s",
}
_CALL_SPANS = {
    "codewords.hadamard_codeword": "codewords.hadamard_codeword_calls",
    "codewords.fourier_codeword": "codewords.fourier_codeword_calls",
    "oracle_circuit.run_pipeline": "oracle_circuit.run_pipeline_calls",
}


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def bare_start(env: dict) -> float:
    """Seconds from starting an interpreter to its first statement, the part
    of setup_s that owes nothing to imports."""
    started = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls with sleeps of up to 50 ms
    proc = subprocess.run([sys.executable, "-c", "import time; print(time.perf_counter())"],
                          env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout) - started


def run_worker(op_argv, out_dir: Path, traced: bool, reference: str, env: dict,
               deadline: float) -> dict:
    """Run one CLI command in a fresh interpreter, between two bare starts.

    Returns the worker's record plus "setup_s", "start_s" and the factors that
    rescale its times, "main_scale" and "start_scale"; or {"error": message}.
    """
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--trace", "1" if traced else "0",
            "--ref", reference, "--", *op_argv, "--out", str(out_dir)]
    start_before = bare_start(env)
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("BENCH_WORKER "):
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    record = json.loads(lines[-1][len("BENCH_WORKER "):])
    if record["exit_code"] != 0:
        return {"error": f"cli exit {record['exit_code']}: {proc.stderr.strip()[-300:]}"}
    record["setup_s"] = record["imported_at"] - started
    record["start_s"] = [start_before, bare_start(env)]
    record["main_scale"] = REF_NOMINAL_S[reference] / statistics.mean(record["ref_s"])
    record["start_scale"] = START_NOMINAL_S / statistics.mean(record["start_s"])
    return record


def import_times(env: dict) -> tuple:
    """Rescaled (numpy, spinoracle-without-numpy) import seconds, from
    python -X importtime between two bare starts."""
    start_before = bare_start(env)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spinoracle.cli"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    scale = START_NOMINAL_S / statistics.mean([start_before, bare_start(env)])
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    numpy_s = cumulative["numpy"]
    return numpy_s * scale, (cumulative["spinoracle.cli"] - numpy_s) * scale


def instances_reported(out_dir: Path) -> int:
    total = 0
    for path in out_dir.glob("solve_*.json"):
        total += json.loads(path.read_text())["summary"]["instances"]
    return total


def layer_metrics(records, out_dirs) -> dict:
    """Per-layer values of one traced pass, times rescaled per interpreter."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for rec in records:
        scale = rec["main_scale"]
        for parent, name, total, self_s, calls in rec["layers"]:
            if name in _TOTAL_SPANS:
                values[_TOTAL_SPANS[name]] += total * scale
            if name in _SELF_SPANS:
                values[_SELF_SPANS[name]] += self_s * scale
            if name in _CALL_SPANS:
                values[_CALL_SPANS[name]] += calls
            if name.startswith("cli.cmd_"):
                values["cli.self_s"] += self_s * scale
    builds = values["codewords.hadamard_codeword_calls"] + values["codewords.fourier_codeword_calls"]
    instances = sum(instances_reported(d) for d in out_dirs)
    values["codewords.codeword_builds_per_instance"] = builds / instances if instances else 0.0
    values["cli.bytes_written"] = sum(
        p.stat().st_size for d in out_dirs for p in d.iterdir() if p.is_file()
    )
    return values


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    from checks import CheckFailed

    ops = build_workloads(seed)[workload]
    reference = WORKLOAD_REFERENCE[workload]
    env = worker_env()
    work_dir = OUT_ROOT / workload
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    # compile bytecode caches before anything is timed
    subprocess.run([sys.executable, "-c", "import spinoracle.cli"], env=env, check=True, timeout=120)

    attempted = failed = 0
    correct = True
    problems = []
    passes = []  # per pass: {"records": [...]}, plus "layers" and "import" when traced
    first_pass_at = time.perf_counter()
    while True:
        if work_dir.exists():
            shutil.rmtree(work_dir)
        dirs = {op.name: work_dir / op.name for op in ops}
        records = []
        for op in ops:
            attempted += 1
            rec = run_worker(op.argv, dirs[op.name], traced, reference, env, deadline)
            rec["op"] = op.name
            records.append(rec)
            if "error" in rec:
                failed += 1
                problems.append(f"{op.name}: {rec['error']}")
                continue
            try:
                t_check = time.perf_counter()
                op.check(op.name, dirs)
                rec["check_s"] = time.perf_counter() - t_check
            except (CheckFailed, LookupError, ValueError, TypeError) as exc:
                failed += 1
                correct = False
                problems.append(f"{op.name}: check failed: {exc!r}")
        this_pass = {"records": records}
        if traced and all("error" not in r for r in records):
            this_pass["layers"] = layer_metrics(records, list(dirs.values()))
            this_pass["import"] = import_times(env)
        passes.append(this_pass)
        now = time.perf_counter()
        if now - first_pass_at >= seconds or now >= deadline or problems:
            break

    good = [p for p in passes if all("error" not in r for r in p["records"])]
    all_records = [r for p in good for r in p["records"]]
    raw, metrics = {}, {}
    if good:
        raw = {
            "wall_s": statistics.median(sum(r["main_s"] for r in p["records"]) for p in good),
            "setup_s": statistics.median(r["setup_s"] for r in all_records),
            "ref_s": statistics.median(t for r in all_records for t in r["ref_s"]),
            "start_s": statistics.median(t for r in all_records for t in r["start_s"]),
        }
    if good and not traced:
        wall = statistics.median(sum(r["main_s"] * r["main_scale"] for r in p["records"])
                                 for p in good)
        setup = statistics.median(r["setup_s"] * r["start_scale"] for r in all_records)
        peak = statistics.median(max(r["maxrss_kb"] for r in p["records"]) / 1024 for p in good)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    elif good:
        for name, unit in PER_LAYER:
            if name == "setup.numpy_import_s":
                value = statistics.median(p["import"][0] for p in good)
            elif name == "setup.spinoracle_import_s":
                value = statistics.median(p["import"][1] for p in good)
            else:
                value = statistics.median(p["layers"][name] for p in good)
            metrics[name] = {"value": value, "unit": unit}

    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
              "passes": len(passes), "raw": raw, "problems": problems,
              "run_s": time.perf_counter() - started, "metrics": metrics,
              "records": [p["records"] for p in passes]}
    name = f"{workload}_seed{seed}_trace{int(traced)}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{workload} seed={seed} trace={int(traced)}: {len(passes)} passes, "
          f"raw {json.dumps({k: round(v, 4) for k, v in raw.items()})}", file=sys.stderr)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("squeeze", "decide-sampled", "decide-exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinoracle" / "cli.py").is_file():
        print(f"bench: no spinoracle sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("bench: --seconds must be at least 1", file=sys.stderr)
        return 2
    seed = args.seed & 0xFFFFFFFF  # the CLI's --seed must be non-negative
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
