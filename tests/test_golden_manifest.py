"""Seeded CLI outputs against the committed golden manifest.

tests/golden_manifest.json holds the sha256 and size of every file a fixed
set of seeded commands writes.  A change that alters any of these bytes
fails here; regenerate an entry only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_manifest.py

The squeezing sweep and the squeezed CSV Q map are left out: their bytes
depend on the LAPACK build behind numpy's svd.  Squeezing depends on
LAPACK only through one SVD per N, of the N/4 x N/4 bidiagonal coupling
of the twist's chain in the Sx eigenbasis; the rotation exp(-i pi/2 Sy)
into that basis is a Chebyshev series of tridiagonal products, and the
row of it that the mu search reads a three-term recurrence, both in plain
numpy arithmetic.  The one squeezed entry, an N = 16 JSON Q map, shares
the SVD dependence; regenerate it if numpy's LAPACK changes and the run is
otherwise unchanged.  The Q grid itself is numpy's pocketfft
over phi, not a BLAS product, so no entry depends on the BLAS build or its
thread count through the grid.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from spinoracle.cli import main

MANIFEST = Path(__file__).with_name("golden_manifest.json")

COMMANDS = [
    ("solve", "--variant", "restricted", "--n", "3", "--seed", "9"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "2",
     "--reps", "3", "--trials", "25", "--seed", "9"),
    ("solve", "--variant", "fourier", "--n", "3", "--seed", "1"),
    ("classical", "--s-range", "3/2:31/2", "--trials", "3", "--seed", "1"),
    ("solve", "--variant", "restricted", "--n", "7", "--trials", "200", "--seed", "7"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--reps", "9",
     "--trials", "200", "--seed", "7"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--reps", "9",
     "--trials", "200", "--error-mode", "random", "--seed", "7"),
    ("solve", "--variant", "fourier", "--n", "6", "--seed", "7"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "6", "--trials", "0",
     "--seed", "7"),
    ("qfunc", "--n", "4", "--state", "coherent", "--grid", "16x16", "--seed", "7"),
    ("solve", "--variant", "restricted", "--n", "8", "--trials", "65", "--seed", "21"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--reps", "101",
     "--trials", "257", "--error-mode", "random", "--seed", "21"),
    ("solve", "--variant", "restricted", "--n", "4"),
    ("solve", "--variant", "fourier", "--n", "8"),
    ("qfunc", "--n", "4", "--state", "coherent", "--grid", "16x16", "--format", "json",
     "--seed", "7"),
    ("qfunc", "--n", "4", "--state", "squeezed", "--grid", "16x16", "--format", "json",
     "--seed", "7"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "4", "--trials", "0",
     "--format", "csv", "--seed", "7"),
    ("solve", "--variant", "fourier", "--n", "3", "--format", "csv", "--seed", "1"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--reps", "9",
     "--trials", "257", "--error-mode", "random", "--format", "csv", "--seed", "21"),
    ("classical", "--s-range", "3/2:31/2", "--trials", "3", "--format", "json", "--seed", "1"),
    ("solve", "--variant", "restricted", "--n", "4", "--errors", "2"),
    ("solve", "--variant", "restricted", "--n", "7", "--errors", "5", "--trials", "64",
     "--seed", "3"),
    # runs of many blocks, one of them a word of N = 8192: a change to the
    # block size must leave their bytes as they are
    ("solve", "--variant", "restricted", "--n", "7", "--trials", "700", "--seed", "5"),
    ("solve", "--variant", "unrestricted", "--n", "6", "--errors", "3", "--reps", "3",
     "--trials", "600", "--seed", "5", "--error-mode", "random"),
    ("solve", "--variant", "restricted", "--n", "13", "--trials", "5", "--seed", "5"),
]


def digest_outputs(workdir: Path) -> dict:
    """{command line: {file name: {sha256, size}}} for every command."""
    entries = {}
    for i, args in enumerate(COMMANDS):
        out = workdir / f"run{i}"
        code = main([*args, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{' '.join(args)} exited {code}")
        entries[" ".join(args)] = {
            path.name: {
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "size": path.stat().st_size,
            }
            for path in sorted(out.iterdir())
        }
    return entries


def test_seeded_outputs_match_golden_manifest(tmp_path, capsys):
    expected = json.loads(MANIFEST.read_text())
    actual = digest_outputs(tmp_path)
    capsys.readouterr()  # drop the path listings the CLI prints
    assert sorted(actual) == sorted(expected)
    for command, files in expected.items():
        assert actual[command] == files, command


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = digest_outputs(Path(tmp))
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
