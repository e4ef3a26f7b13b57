"""The squeezing sweep against a committed full-precision reference.

tests/squeeze_reference.json holds the rows of ``squeeze-scan --s-range
3/2:1023/2 --tol 1e-8`` (s, mu_opt, v_min, p_c, overlap) and the hist_N
probabilities for N <= 64, written with ``--format json`` so no digit is
lost to printing.  The golden manifest leaves squeezing out because its
bytes depend on the LAPACK build, so this is the test that guards the
squeezing eigensolver.  mu_opt may move within twice the search tolerance
(the optimum is flat, so golden-section comparisons can flip there); every
other value must agree to 1e-9.
"""

import json
from pathlib import Path

from spinoracle.cli import main

REFERENCE = json.loads(Path(__file__).with_name("squeeze_reference.json").read_text())
VALUE_TOL = 1e-9


def test_sweep_matches_reference(tmp_path):
    out = tmp_path / "out"
    assert main([*REFERENCE["command"], "--format", "json", "--out", str(out)]) == 0
    rows = json.loads((out / "squeeze_scan.json").read_text())["squeeze_scan"]
    assert [row["s"] for row in rows] == [ref["s"] for ref in REFERENCE["scan"]]
    for row, ref in zip(rows, REFERENCE["scan"]):
        assert abs(row["mu_opt"] - ref["mu_opt"]) <= 2 * REFERENCE["tol"], row["s"]
        for key in ("v_min", "p_c", "overlap"):
            assert abs(row[key] - ref[key]) <= VALUE_TOL, (row["s"], key)
    for dim, ref_probs in REFERENCE["hist"].items():
        recs = json.loads((out / f"hist_N{dim}.json").read_text())[f"hist_N{dim}"]
        assert [rec["index"] for rec in recs] == list(range(int(dim)))
        dev = max(abs(rec["probability"] - p) for rec, p in zip(recs, ref_probs))
        assert dev <= VALUE_TOL, (dim, dev)
