"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True)."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spinoracle.cli import _json_text

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
