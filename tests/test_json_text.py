"""The CLI's text renderers: the JSON writer and the solve report rows
against json.dumps(indent=2, sort_keys=True), and the CSV report rows
against _csv of the same rows."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spinoracle import oracle_circuit
from spinoracle.cli import _blocks, _csv, _json_text, _JsonReports, cmd_solve, load_config

CORPUS = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[1.5, [2.5, []]], {"z": 1, "a": [0.1, 0.2]}],
    ("tuple", (1.0, 2.0), [("nested", None)]),
    "plain",
    "café 中文 \U0001f600  ",
    "\x00\x01\x1f\x7f \" \\ / \b\f\n\r\t",
    {"é": 1, "\x00": 2, "quote\"key": 3, "": 4},
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    5e-324,
    1e16,
    1e-7,
    [math.nan, 1.0],
    [1.0, math.inf, -math.inf],
    [-0.0, 5e-324, 1e16, 0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308],
    [1.0, 2, 3.0],
    [1.0, True],
    [1.0, None],
    [1.0, "x"],
    [np.float64(0.25), np.float64(math.nan)],
    {"x": np.float64(1 / 7)},
    True,
    False,
    None,
    [True, False, None, 0, -1],
    2**100,
    -(2**70),
    [2**64, -(2**63), 0],
    {"variant": "unrestricted", "N": 64, "hiddenJ": 31, "decision": "A", "prTop": 0.5625,
     "queries": 9, "repetitions": 9, "perOutcome": [0.0, 0.015625, 0.5625], "label": "A"},
]


@pytest.mark.parametrize("value", CORPUS, ids=range(len(CORPUS)))
def test_matches_json_dumps_byte_for_byte(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_matches_json_dumps_on_a_whole_corpus_document():
    doc = {f"k{i:02d}": value for i, value in enumerate(CORPUS)}
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert _json_text(CORPUS) == json.dumps(CORPUS, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), {1, 2}, object(), [1.0, np.int64(2)], {"a": {2}}, {(1, 2): "tuple key"},
     {"a": 1, 2: "mixed keys"}],
    ids=["int64", "set", "object", "int64-in-list", "set-in-dict", "tuple-key", "mixed-keys"],
)
def test_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("key", [1, 2.5, True, None], ids=["int", "float", "bool", "none"])
def test_takes_only_string_keys(key):
    json.dumps({key: 1}, indent=2, sort_keys=True)  # json.dumps would write it as a string
    with pytest.raises(TypeError):
        _json_text({key: 1})


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


# The writer keeps the text of each all-float list under its indent and bits,
# and each dict's key layout under its indent and keys, for one document.
@pytest.mark.parametrize(
    "first, second",
    [
        ([1.0, 2.0], [1, 2.0]),
        ([1.0], [True]),
        ([0.0], [-0.0]),
        ([-0.0, 0.5], [0.0, 0.5]),
        ([0.25, 0.5], [np.float64(0.25), np.float64(0.5)]),
        ([np.float64(0.25)], [0.25]),
    ],
    ids=["int", "bool", "negative-zero", "zero-after-negative-zero", "float64", "float64-first"],
)
def test_lists_equal_by_value_keep_their_own_text(first, second):
    doc = {"a": first, "b": second, "c": [first, second, second, first]}
    assert _json_text(doc) == dumps(doc)


def test_a_float_list_at_two_depths():
    spectrum = [0.1, 0.2, 0.7]
    doc = {"a": spectrum, "b": {"c": [spectrum, {"d": spectrum}]}, "e": spectrum}
    assert _json_text(doc) == dumps(doc)


def test_dicts_with_the_same_keys_in_other_orders_and_depths():
    doc = [{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"a": {"b": 5, "a": 6}}, {"b": [{"a": 7, "b": 8}]}]
    assert _json_text(doc) == dumps(doc)


def test_a_report_shaped_document_with_repeated_spectra():
    rng = np.random.default_rng(14)
    spectra = [rng.dirichlet(np.ones(64)).tolist() for _ in range(32)]
    spectra[0][5] = -0.0
    reports = [
        {"variant": "unrestricted", "N": 64, "hiddenJ": i % 32, "label": "AB"[i % 2],
         "decision": "AB"[i % 3 % 2], "prTop": spectra[i % 32][63], "queries": 9,
         "repetitions": 9, "perOutcome": spectra[i % 32]}
        for i in range(2000)
    ]
    doc = {"schema_version": 1, "summary": {"instances": 2000, "accuracy": 0.5},
           "reports": reports, "worst_case_spectrum": spectra[3]}
    assert _json_text(doc) == dumps(doc)


def test_a_fraction_list_is_rejected_after_an_equal_float_list():
    doc = {"a": [0.5], "b": [Fraction(1, 2)]}
    with pytest.raises(TypeError):
        dumps(doc)
    with pytest.raises(TypeError):
        _json_text(doc)


def reference_report_docs(block, decided):
    """The reports of a decided block as one dict per row, the form solve
    rendered whole before its rows were rendered block by block."""
    labels = np.where(block.is_a, "A", "B").tolist()
    decisions = np.where(decided.is_a, "A", "B").tolist()
    docs = [
        {"variant": block.variant, "N": block.dim, "hiddenJ": j, "label": label,
         "decision": decision, "prTop": p, "queries": decided.rounds,
         "repetitions": decided.rounds}
        for j, label, decision, p in zip(block.js.tolist(), labels, decisions,
                                         decided.pr_top.tolist())
    ]
    if block.dim <= 64:
        for doc, spectrum in zip(docs, decided.probs.tolist()):
            doc["perOutcome"] = spectrum
    return docs


def reference_solve_doc(cfg):
    """solve's JSON document built as a dict, and its report dicts."""
    dim = 2**cfg.n
    reports, table, correct = [], [], 0
    for block, decided in oracle_circuit.decide_blocks(_blocks(cfg, dim)):
        reports += reference_report_docs(block, decided)
        correct += int(np.count_nonzero(decided.is_a == block.is_a))
        table += decided.raw[:, decided.index].tolist()
    extra = {}
    if cfg.variant == "unrestricted" and cfg.error_mode != "random":
        spectrum = oracle_circuit.worst_case_spectrum(dim, cfg.errors or 0)
        extra["worst_case_spectrum"] = spectrum.tolist()
    if cfg.variant == "fourier":
        extra["probability_table"] = table
    summary = {"instances": len(reports)}
    if reports:
        summary["accuracy"] = correct / len(reports)
        summary["mean_queries"] = sum(rep["queries"] for rep in reports) / len(reports)
    config = {"variant": cfg.variant, "N": dim, "errors": cfg.errors, "reps": cfg.reps,
              "trials": cfg.trials, "seed": cfg.seed, "error_mode": cfg.error_mode}
    doc = {"schema_version": 1, "command": "solve", "config": config, "summary": summary,
           "reports": reports, **extra}
    return doc, reports


SOLVE_RUNS = {
    # 128 rows per block at N = 64: three blocks
    "worst-n64": "--variant unrestricted --n 6 --errors 3 --reps 9 --trials 257 --seed 21",
    "random-n64": "--variant unrestricted --n 6 --errors 3 --reps 9 --trials 257 "
                  "--error-mode random --seed 21",
    "restricted-n128": "--variant restricted --n 7 --trials 70 --seed 4",  # no perOutcome
    "fourier-n8": "--variant fourier --n 3",
    "fourier-n512": "--variant fourier --n 9",
    "no-trials": "--variant unrestricted --n 6 --errors 2 --trials 0 --seed 5",
}


@pytest.mark.parametrize("argv", SOLVE_RUNS.values(), ids=SOLVE_RUNS)
def test_solve_pieces_join_to_json_dumps_of_the_report_dicts(argv):
    cfg = load_config(["solve", *argv.split()])
    (pieces,) = cmd_solve(cfg).values()
    doc, reports = reference_solve_doc(cfg)
    assert isinstance(pieces, list)
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not reports:
        assert '"reports": []' in pieces[0]


@pytest.mark.parametrize("argv", SOLVE_RUNS.values(), ids=SOLVE_RUNS)
def test_solve_csv_rows_match_csv_of_the_report_rows(argv):
    cfg = load_config(["solve", *argv.split(), "--format", "csv"])
    files = cmd_solve(cfg)
    _, reports = reference_solve_doc(cfg)
    header = ["variant", "N", "hiddenJ", "label", "decision", "prTop", "queries", "repetitions"]
    name = f"solve_{cfg.variant}_N{2**cfg.n}.csv"
    assert "".join(files[name]) == _csv(header, [[rep[k] for k in header] for rep in reports])


def test_equal_spectra_share_one_text_piece():
    cfg = load_config(["solve", *SOLVE_RUNS["worst-n64"].split()])
    (pieces,) = cmd_solve(cfg).values()
    spectra = [piece for piece in pieces if piece.startswith("[\n        ")]
    assert len(spectra) == 257  # one per row
    # worst-case spectra depend only on the hidden index: at most N/2 texts
    assert len({id(piece) for piece in spectra}) <= 32


def test_report_rows_of_any_key_set_match_json_dumps():
    # non-finite floats, -0.0, a "%" in a key or a value, and a shared key
    # sorting after the spectra
    spectra = np.array([[math.nan, math.inf, -math.inf, -0.0], [0.25, 0.25, 0.5, 0.0],
                        [math.nan, math.inf, -math.inf, -0.0]])
    reports = _JsonReports()
    reports.add({"N": 4, "variant": "50%"}, {"hiddenJ": [0, 1, 2], "p%s": [0.5, 1e-7, 2.0],
                                             "perOutcome": spectra})
    rows = [{"N": 4, "variant": "50%", "hiddenJ": j, "p%s": p, "perOutcome": spectrum}
            for j, p, spectrum in zip([0, 1, 2], [0.5, 1e-7, 2.0], spectra.tolist())]
    doc = {"command": "x", "summary": {"instances": 3}}
    expected = {"schema_version": 1, **doc, "reports": rows}
    assert "".join(reports.document(doc)) == dumps(expected) + "\n"
