"""The CLI's row renderers: _JsonRows against json.dumps(indent=2,
sort_keys=True) of the whole document, _CsvRows against _csv of whole rows,
and every JSON file the CLI writes against json.dumps of itself."""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from spinoracle import cli, oracle_circuit
from spinoracle.cli import (_blocks, _CsvRows, _fmt, _json_scalar, _JsonRows, _Texts, cmd_solve,
                            load_config, main)

CORPUS = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[1.5, [2.5, []]], {"z": 1, "a": [0.1, 0.2]}],
    ("tuple", (1.0, 2.0), [("nested", None)]),
    "plain",
    "café 中文 \U0001f600 \u2028",
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
SCALARS = [value for value in CORPUS if not isinstance(value, (dict, list, tuple))]


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


def rows_text(blocks, key="rows", **head):
    """The joined pieces of a JSON document whose rows are added as blocks."""
    rows = _JsonRows(key)
    for shared, per_row in blocks:
        rows.add(shared, per_row)
    return "".join(rows.file(**head))


def expected_text(rows, key="rows", **head):
    return dumps({"schema_version": 1, **head, key: rows}) + "\n"


def as_row(value):
    """A dict as the columns of one row, a float list as a one-row spectrum;
    None if a value of it is neither a builtin scalar nor a float list."""
    columns = {}
    for key, item in value.items():
        if isinstance(item, list) and {type(x) for x in item} == {float}:
            columns[key] = np.array([item])
        elif type(item) not in (str, int, float, bool, type(None)):
            return None
        else:
            columns[key] = [item]
    return columns


# A scalar goes through the rows as a per-row value and as a shared one; any
# value goes into the document's head, around which the rows are spliced at
# their key, "rows", and not at a longer top-level key or a nested "rows".
@pytest.mark.parametrize("value", CORPUS, ids=range(len(CORPUS)))
def test_matches_json_dumps_byte_for_byte(value):
    head = {"head": value, "rows_": value, "nested": {"rows": value}}
    assert rows_text([({}, {"i": [0, 1]})], **head) == expected_text(
        [{"i": 0}, {"i": 1}], **head)
    if not isinstance(value, (dict, list, tuple)):
        rows = [{"i": 0, "v": value}, {"i": 1, "v": value}]
        assert rows_text([({}, {"i": [0, 1], "v": [value, value]})]) == expected_text(rows)
        assert rows_text([({"v": value}, {"i": [0, 1]})]) == expected_text(rows)
    elif isinstance(value, dict) and value and (columns := as_row(value)):
        assert rows_text([({}, columns)]) == expected_text([value])


def test_matches_json_dumps_on_a_whole_corpus_document():
    head = {f"k{i:02d}": value for i, value in enumerate(CORPUS)}
    columns = {f"k{i:02d}": [value] for i, value in enumerate(SCALARS)}
    assert rows_text([({}, columns)], **head) == expected_text(
        [{key: col[0] for key, col in columns.items()}], **head)
    assert rows_text([({}, {"v": SCALARS})]) == expected_text([{"v": v} for v in SCALARS])


@pytest.mark.parametrize(
    "value, error",
    [(np.int64(1), KeyError), ({1, 2}, KeyError), (object(), KeyError),
     ([1.0, np.int64(2)], KeyError), ({"a": {2}}, KeyError),
     ({(1, 2): "tuple key"}, TypeError), ({"a": 1, 2: "mixed keys"}, TypeError)],
    ids=["int64", "set", "object", "int64-in-list", "set-in-dict", "tuple-key", "mixed-keys"],
)
def test_rejects_what_json_dumps_rejects(value, error):
    with pytest.raises(TypeError):
        dumps(value)
    # a dict is one row's keys and values, anything else the value of "v"
    row = value if isinstance(value, dict) else {"v": value}
    with pytest.raises(error):
        rows_text([({}, {key: [item] for key, item in row.items()})])
    with pytest.raises(error):
        rows_text([(row, {"i": [0]})])


@pytest.mark.parametrize("key", [1, 2.5, True, None], ids=["int", "float", "bool", "none"])
def test_takes_only_string_keys(key):
    json.dumps({key: 1}, indent=2, sort_keys=True)  # json.dumps would write it as a string
    with pytest.raises(TypeError):
        rows_text([({}, {key: [1]})])
    with pytest.raises(TypeError):
        rows_text([({key: 1}, {"i": [0]})])


# Nothing is served by value: a row's template is kept per key tuple and a
# spectrum's text per exact bits, and every other value is written per block.
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
    cells = [*first, *second, *second, *first]
    if any(type(x) is np.float64 for x in cells):  # refused, never served an equal float's text
        with pytest.raises(KeyError):
            rows_text([({}, {"v": cells})])
        return
    assert rows_text([({}, {"v": cells})]) == expected_text([{"v": x} for x in cells])
    blocks = [({"v": x}, {"i": [k]}) for k, x in enumerate(cells)]
    assert rows_text(blocks) == expected_text([{"i": k, "v": x} for k, x in enumerate(cells)])
    if {type(x) for x in cells} == {float}:  # as spectra, under their bits
        spectra = [np.array([first]), np.array([second]), np.array([second, first])]
        blocks = [({}, {"perOutcome": probs}) for probs in spectra]
        rows = [{"perOutcome": first}, {"perOutcome": second}, {"perOutcome": second},
                {"perOutcome": first}]
        assert rows_text(blocks) == expected_text(rows)


def test_a_float_list_at_two_depths():
    # the head's spectrum sits at a two-space indent, a row's at six
    spectrum = [0.1, 0.2, 0.7]
    blocks = [({"N": 3}, {"perOutcome": np.array([spectrum, spectrum])})]
    assert rows_text(blocks, worst_case_spectrum=spectrum) == expected_text(
        [{"N": 3, "perOutcome": spectrum}] * 2, worst_case_spectrum=spectrum)


def test_dicts_with_the_same_keys_in_other_orders_and_depths():
    blocks = [({}, {"b": [1], "a": [2]}), ({}, {"a": [3], "b": [4]}), ({"b": 5}, {"a": [6]}),
              ({"a": 7}, {"b": [8, 9]})]
    rows = [{"a": 2, "b": 1}, {"a": 3, "b": 4}, {"a": 6, "b": 5}, {"a": 7, "b": 8},
            {"a": 7, "b": 9}]
    head = {"summary": {"b": 1, "a": {"b": 2, "a": 3}}}
    assert rows_text(blocks, **head) == expected_text(rows, **head)


def test_a_report_shaped_document_with_repeated_spectra():
    rng = np.random.default_rng(14)
    spectra = rng.dirichlet(np.ones(64), size=32)
    spectra[0, 5] = -0.0
    reports, blocks = [], []
    for start in range(0, 2000, 128):  # blocks of 128 rows, as decide_blocks gives them
        idx = np.arange(start, min(start + 128, 2000))
        per_row = {"hiddenJ": (idx % 32).tolist(), "label": ["AB"[i % 2] for i in idx],
                   "decision": ["AB"[i % 3 % 2] for i in idx],
                   "prTop": spectra[idx % 32, 63].tolist(), "perOutcome": spectra[idx % 32]}
        blocks.append(({"variant": "unrestricted", "N": 64, "queries": 9, "repetitions": 9},
                       per_row))
        reports += [{"variant": "unrestricted", "N": 64, "queries": 9, "repetitions": 9,
                     **{key: col[k] for key, col in per_row.items() if key != "perOutcome"},
                     "perOutcome": spectra[i % 32].tolist()} for k, i in enumerate(idx)]
    head = {"summary": {"instances": 2000, "accuracy": 0.5},
            "worst_case_spectrum": spectra[3].tolist()}
    assert rows_text(blocks, "reports", **head) == expected_text(reports, "reports", **head)


# A block of no rows adds nothing: neither "[" and "]" on lines of their
# own in place of [], nor a "," before the first row of a later block.
@pytest.mark.parametrize("empty", [{"i": []}, {"i": [], "perOutcome": np.empty((0, 3))}],
                         ids=["scalars", "spectra"])
def test_a_block_with_no_rows_adds_no_piece(empty):
    rows = _JsonRows("rows")
    rows.add({"N": 3}, empty)
    assert rows.pieces == []
    text = "".join(rows.file())
    assert text == expected_text([]) and json.loads(text)["rows"] == []
    full = {"i": [1, 2], "perOutcome": np.array([[0.5, 0.25, 0.25], [1.0, -0.0, 0.0]])}
    blocks = [({"N": 3}, empty), ({"N": 3}, full), ({"N": 3}, empty), ({"N": 3}, full)]
    text = rows_text(blocks)
    spectra = full["perOutcome"].tolist()
    assert text == expected_text([{"N": 3, "i": i, "perOutcome": spectrum}
                                  for i, spectrum in zip([1, 2], spectra)] * 2)
    assert len(json.loads(text)["rows"]) == 4


def test_each_spectrum_value_is_rendered_once(monkeypatch):
    # many distinct spectra over nine values, whose texts all differ: -0.0
    # and 0.0 sit in rows and blocks of their own, and 0.1 is one ulp from
    # its neighbour; a table by float value serves 0.0 the text of -0.0 (or
    # the other way round) and renders NaN again at each row
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1,
              float(np.nextafter(0.1, 1.0)), 0.75]
    rng = np.random.default_rng(30)
    picks = rng.integers(2, len(values), size=(96, 5))
    picks[:24:2, 0] = 1  # -0.0 in the first block, in every other row
    picks[48::3, 4] = 0  # 0.0 in the third and fourth blocks only
    spectra = np.array(values)[picks]
    made, text = Counter(), cli._float_text

    def counted(x):
        made[np.float64(x).view(np.uint64).item()] += 1
        return text(x)

    monkeypatch.setattr(cli, "_float_text", counted)
    blocks = [({"N": 5}, {"i": list(range(k, k + 24)), "perOutcome": spectra[k:k + 24]})
              for k in range(0, 96, 24)]
    assert rows_text(blocks) == expected_text(
        [{"N": 5, "i": i, "perOutcome": spectrum} for i, spectrum in enumerate(spectra.tolist())])
    assert len({*map(bytes, spectra)}) > 80  # many distinct rows
    assert made == Counter(np.unique(spectra.view(np.uint64)).tolist())  # each value once
    assert len(made) == len(values)


STRS = ['"', "\\", "%", "%s", "é", "\u2028", ""]


# In JSON a column of exact ints is written by '%d' in the template and a
# column of exact strs by its distinct values' texts; a bool is no int, so
# a column holding one goes cell by cell.
@pytest.mark.parametrize(
    "cells, rendered",
    [([0, 1, True], [0, 1, True]), ([2**100, -(2**70), 0, 2**100], []), (STRS * 2, STRS)],
    ids=["bool", "big-ints", "strs"],
)
def test_json_int_and_str_columns(monkeypatch, cells, rendered):
    made = []
    monkeypatch.setattr(_JsonRows, "text", staticmethod(lambda x: made.append(x) or
                                                       _json_scalar(x)))
    rows = _JsonRows("rows")
    rows.add({}, {"i": list(range(len(cells))), "v": cells})
    assert len(rows.pieces) == 1
    assert "".join(rows.file()) == expected_text([{"i": i, "v": v} for i, v in enumerate(cells)])
    assert sorted(made, key=repr) == sorted(rendered, key=repr)  # no int, each str once


def test_a_fraction_list_is_rejected_after_an_equal_float_list():
    doc = {"a": [0.5], "b": [Fraction(1, 2)]}
    with pytest.raises(TypeError):
        dumps(doc)
    with pytest.raises(KeyError):
        rows_text([({}, {"v": [0.5, Fraction(1, 2)]})])
    with pytest.raises(TypeError):  # in the head, json.dumps refuses it
        rows_text([({}, {"v": [0.5]})], **doc)


def _csv(header, rows):
    """The CSV text of whole rows: the schema line, the header, then each
    row's cells through _fmt."""
    lines = [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(["# schema_version=1", ",".join(header), *lines]) + "\n"


# A column rendered once (the Q maps' phi) is written as given, and gives
# the text its values would.
@pytest.mark.parametrize("make, text", [(lambda: _JsonRows("rows"), _json_scalar),
                                        (lambda: _CsvRows(["i", "v"]), _fmt)], ids=["json", "csv"])
def test_a_rendered_column_is_written_as_given(make, text):
    plain, rendered = make(), make()
    index = list(range(len(SCALARS)))
    plain.add({}, {"i": index, "v": SCALARS})
    rendered.add({}, {"i": index, "v": _Texts(map(text, SCALARS))})
    assert "".join(rendered.file()) == "".join(plain.file())


def test_csv_rows_match_csv_of_whole_rows():
    csv_scalars = [*SCALARS, np.float64(0.1), 2.5]  # _fmt takes any float
    rows = _CsvRows(["i", "v", "w"])
    rows.add({}, {"i": list(range(len(csv_scalars))), "v": csv_scalars, "w": csv_scalars})
    for k, value in enumerate(csv_scalars):
        rows.add({"v": value}, {"i": [k], "w": [value]})
    whole = [[k, v, v] for k, v in enumerate(csv_scalars)] * 2
    assert "".join(rows.file()) == _csv(["i", "v", "w"], whole)
    assert "".join(_CsvRows(["a", "b"]).file()) == _csv(["a", "b"], [])


def test_csv_float_columns_go_through_the_template():
    # a column of floats is written by '%.9g' in the block's template, one
    # piece per block, with the bytes _fmt gives each cell
    floats = [value for value in SCALARS if type(value) in (float, np.float64)]
    floats += [np.float64(0.1), 1 / 3, 2.0**-1074, 1.7976931348623157e308, 123456789.5]
    rows = _CsvRows(["i", "v", "w"])
    rows.add({"w": 0.5}, {"i": list(range(len(floats))), "v": floats})
    assert len(rows.file()) == 2  # the header, then the block
    whole = [[k, v, 0.5] for k, v in enumerate(floats)]
    assert "".join(rows.file()) == _csv(["i", "v", "w"], whole)


def test_json_float_columns_go_through_the_template():
    # a block with no spectra is one piece; a column of finite builtin floats
    # is written by '%r' in its template, and one holding a non-finite float
    # or cells whose sum overflows goes cell by cell: both give json.dumps'
    # bytes
    finite = [-0.0, 5e-324, 1e16, 1e-7, 0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308]
    for cells in [finite, finite * 2, finite + [math.nan], finite + [-math.inf]]:
        rows = _JsonRows("rows")
        rows.add({"w": 0.5}, {"i": list(range(len(cells))), "v": cells})
        assert len(rows.pieces) == 1
        doc = [{"i": k, "v": v, "w": 0.5} for k, v in enumerate(cells)]
        assert "".join(rows.file()) == expected_text(doc)


# Each file's text is json.dumps of its own parse.  This holds for the sweep
# too, whose bytes depend on the LAPACK build, so the golden manifest leaves
# it out.
JSON_RUNS = {
    "squeeze-scan": "squeeze-scan --s-range 3/2:15/2",  # hist_N4 has "" bounds
    "qfunc-coherent": "qfunc --n 4 --state coherent --grid 16x16",
    "qfunc-squeezed": "qfunc --n 4 --state squeezed --grid 16x16",
    "classical": "classical --s-range 3/2:31/2 --trials 3",
    "restricted-enumerated": "solve --variant restricted --n 4",
    "restricted-sampled": "solve --variant restricted --n 7 --trials 70 --seed 4",
    "worst": "solve --variant unrestricted --n 6 --errors 3 --reps 9 --trials 257 --seed 21",
    "random": "solve --variant unrestricted --n 6 --errors 3 --reps 9 --trials 257 "
              "--error-mode random --seed 21",
    "fourier": "solve --variant fourier --n 3",
    "no-trials": "solve --variant unrestricted --n 6 --errors 2 --trials 0 --seed 5",
}


@pytest.mark.parametrize("argv", JSON_RUNS.values(), ids=JSON_RUNS)
def test_every_json_file_is_json_dumps_of_itself(tmp_path, capsys, argv):
    assert main([*argv.split(), "--format", "json", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    paths = sorted(tmp_path.iterdir())
    assert paths and all(path.suffix == ".json" for path in paths)
    for path in paths:
        text = path.read_text()
        assert text == dumps(json.loads(text)) + "\n", path.name


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
    reports = _JsonRows("reports")
    reports.add({"N": 4, "variant": "50%"}, {"hiddenJ": [0, 1, 2], "p%s": [0.5, 1e-7, 2.0],
                                             "perOutcome": spectra})
    rows = [{"N": 4, "variant": "50%", "hiddenJ": j, "p%s": p, "perOutcome": spectrum}
            for j, p, spectrum in zip([0, 1, 2], [0.5, 1e-7, 2.0], spectra.tolist())]
    doc = {"command": "x", "summary": {"instances": 3}}
    expected = {"schema_version": 1, **doc, "reports": rows}
    assert "".join(reports.file(**doc)) == dumps(expected) + "\n"
