"""Run one spinoracle CLI command in this fresh interpreter and report timings.

Usage: python3 bench/worker.py --trace 0|1 --ref python|lapack -- <cli arguments>

The parent (bench/run.py) starts one worker per CLI command, so module-level
caches start cold exactly as they do for a user.  The worker prints the CLI's
own output, then one line "BENCH_WORKER <json>" holding:

    imported_at   time.perf_counter() right after `import spinoracle.cli`
                  (CLOCK_MONOTONIC, comparable with the parent's clock)
    main_s        seconds spent inside spinoracle.cli.main
    cpu_s         CPU seconds of this process inside spinoracle.cli.main
    ref_s         seconds of the chosen reference workload, run just before
                  and just after cli.main (see REFERENCES)
    maxrss_kb     this interpreter's peak resident set size when cli.main returns
    exit_code     the value cli.main returned
    layers        traced runs only: per-span totals, see bench/tracing.py
"""

import json
import resource
import sys
import time

import spinoracle.cli  # noqa: E402  (the import is what setup time measures)

IMPORTED_AT = time.perf_counter()

import numpy as np  # noqa: E402  (already loaded by spinoracle)


def python_reference() -> float:
    """Interpreter loops and small numpy calls, like the decision workloads."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((160, 160))
    h = m + m.T
    np.linalg.eigh(h)  # first LAPACK call pays one-off dispatch set-up
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    a = np.arange(64.0)
    for _ in range(2000):
        a = np.abs(np.fft.fft(a)) / 64 + 1
    for _ in range(5):
        np.linalg.eigh(h)
    return time.perf_counter() - t0


def lapack_reference() -> float:
    """A complex Hermitian eigendecomposition at N = 512, like the squeeze workload."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    h = m + m.conj().T
    np.linalg.eigh(h[:8, :8])  # first LAPACK call pays one-off dispatch set-up
    t0 = time.perf_counter()
    w, v = np.linalg.eigh(h)
    (v * w) @ v.conj().T
    return time.perf_counter() - t0


# A fixed reference workload, timed just before and just after cli.main in the
# same interpreter (after the import, so that setup time stays one interval).
# run.py rescales the command's time by these timings (see REF_NOMINAL_S).
REFERENCES = {"python": python_reference, "lapack": lapack_reference}


def main(argv) -> int:
    if len(argv) < 5 or argv[0] != "--trace" or argv[2] != "--ref" or argv[4] != "--" \
            or argv[3] not in REFERENCES:
        print("usage: worker.py --trace 0|1 --ref python|lapack -- <cli args>", file=sys.stderr)
        return 2
    traced = argv[1] == "1"
    reference = REFERENCES[argv[3]]
    cli_args = argv[5:]
    ref_before = reference()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    code = spinoracle.cli.main(cli_args)
    main_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    doc = {
        "imported_at": IMPORTED_AT,
        "main_s": main_s,
        "cpu_s": cpu_s,
        "ref_s": [ref_before, reference()],
        "maxrss_kb": maxrss_kb,
        "exit_code": code,
    }
    if tracer is not None:
        doc["layers"] = tracer.summary()
    print("BENCH_WORKER " + json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
