"""The squeezing sweep against a committed full-precision reference.

tests/squeeze_reference.json holds the rows of ``squeeze-scan --s-range
3/2:1023/2 --tol 1e-8`` (s, mu_opt, v_min, p_c, overlap) and the hist_N
probabilities for N <= 64, written with ``--format json`` so no digit is
lost to printing.  The golden manifest leaves squeezing out because its
bytes depend on the LAPACK build, so this is the test that guards the
squeezing eigensolver.  mu_opt may move within twice the search tolerance
(the optimum is flat, so golden-section comparisons can flip there).  v_min
moves with mu_opt (about 0.28 per unit mu at s = 7/2), so it is compared at
the reference's own mu_opt: the library's reduced variance there must agree
with the committed v_min to 1e-9, and the written v_min must be the library's
value at the written mu_opt.  Every other value must agree to 1e-9.
"""

import json
from pathlib import Path

from spinoracle import make_spin_system, reduced_variance
from spinoracle.cli import main
from spinoracle.squeezing import _propagator

REFERENCE = json.loads(Path(__file__).with_name("squeeze_reference.json").read_text())
VALUE_TOL = 1e-9


def v_min_at(s, mu):
    sys = make_spin_system((int(2 * s) + 1).bit_length() - 1)
    return reduced_variance(_propagator(sys).state_at(mu))


def test_sweep_matches_reference(tmp_path):
    out = tmp_path / "out"
    assert main([*REFERENCE["command"], "--format", "json", "--out", str(out)]) == 0
    rows = json.loads((out / "squeeze_scan.json").read_text())["squeeze_scan"]
    assert [row["s"] for row in rows] == [ref["s"] for ref in REFERENCE["scan"]]
    for row, ref in zip(rows, REFERENCE["scan"]):
        assert abs(row["mu_opt"] - ref["mu_opt"]) <= 2 * REFERENCE["tol"], row["s"]
        assert abs(v_min_at(ref["s"], ref["mu_opt"]) - ref["v_min"]) <= VALUE_TOL, row["s"]
        assert row["v_min"] == v_min_at(row["s"], row["mu_opt"]), row["s"]
        for key in ("p_c", "overlap"):
            assert abs(row[key] - ref[key]) <= VALUE_TOL, (row["s"], key)
    for dim, ref_probs in REFERENCE["hist"].items():
        recs = json.loads((out / f"hist_N{dim}.json").read_text())[f"hist_N{dim}"]
        assert [rec["index"] for rec in recs] == list(range(int(dim)))
        dev = max(abs(rec["probability"] - p) for rec, p in zip(recs, ref_probs))
        assert dev <= VALUE_TOL, (dim, dev)
