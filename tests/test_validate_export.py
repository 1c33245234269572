"""validate_export's two paths give one verdict.

A str export in render_json's own layout is checked by
_passes_in_render_layout without a dict per record; every other text goes to
json.loads and _check_document, the reference here.  On any text, damaged or
not, validate_export must accept exactly when the reference does, or raise
the same ValueError message.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skabelund import Family, compute_spectrum, render_json, validate_export
from skabelund.catalog import KINDS_BY_NAME
from skabelund.spectrum import _JSON_RECORD, _check_document, _passes_in_render_layout

KIND_FILTERS = [None, *KINDS_BY_NAME]


def outcome(check, text):
    """None if check accepts text, else the message of its ValueError."""
    try:
        check(text)
    except ValueError as exc:
        return str(exc)
    return None


def json_path(text):
    _check_document(json.loads(text))


def assert_same_verdict(text):
    assert outcome(validate_export, text) == outcome(json_path, text)


# --- every export takes the fast path ----------------------------------------


@pytest.mark.parametrize(
    "family,s",
    [(Family.SUZUKI, s) for s in range(1, 5)] + [(Family.REE, s) for s in range(1, 4)],
    ids=lambda x: getattr(x, "value", x),
)
def test_every_render_json_export_takes_the_fast_path(family, s):
    """A change to render_json's template that the layout pattern does not
    follow fails here, instead of sending every export to the json path."""
    for kind in KIND_FILTERS:
        report = compute_spectrum(family, s, kind)
        text = render_json(report)
        # an empty records array is written "[]" and takes the json path
        assert _passes_in_render_layout(text) is (report.record_count > 0), kind
        assert validate_export(text) is None


# --- equivalence gate: one mutation of an export -----------------------------


@pytest.fixture(scope="module")
def gate_exports():
    return [
        render_json(compute_spectrum(family, s, kind))
        for family, s_max in ((Family.SUZUKI, 3), (Family.REE, 2))
        for s in range(1, s_max + 1)
        for kind in KIND_FILTERS
    ]


# where render_json's layout joins its parts: a one-character change there
# is the likeliest to slip past a layout check
LANDMARKS = re.compile(r'^|\n "records": \[|,\n  \{|\n   \]\n  \}|\n \]|\n\}\n\Z')
RECORD = re.compile(
    r'  \{\n   "delta": ([0-9]+),\n   "genus": ([0-9]+),\n   "kind": "[^"]*",'
    r'\n   "order": ([0-9]+),\n   "params": \[[^\]]*\]\n  \}'
)
CHARACTERS = st.one_of(st.sampled_from('0123456789-+.eE ,:\n{}[]"\\u\u0663'), st.characters())


def one_character_edit(data, text):
    landmarks = [m.start() for m in LANDMARKS.finditer(text)]
    offset = data.draw(
        st.one_of(
            st.integers(0, len(text) - 1),
            st.sampled_from(landmarks).flatmap(lambda at: st.integers(at, at + 16)),
        )
    )
    offset = min(offset, len(text) - 1)
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "delete":
        return text[:offset] + text[offset + 1 :]
    char = data.draw(CHARACTERS)
    return text[:offset] + char + text[offset + (edit == "replace") :]


def swap_adjacent_records(data, records, text):
    i = data.draw(st.integers(0, len(records) - 2))
    a, b = records[i], records[i + 1]
    return text[: a.start()] + b[0] + text[a.end() : b.start()] + a[0] + text[b.end() :]


def change_one_digit(data, records, text, rebalance):
    """Change one digit of a record's delta, genus or order; with rebalance,
    rewrite its delta so that Riemann-Hurwitz holds again."""
    record = data.draw(st.sampled_from(records))
    group = data.draw(st.sampled_from([1, 2, 3]))  # delta, genus, order
    at = data.draw(st.integers(record.start(group), record.end(group) - 1))
    digit = data.draw(st.sampled_from("0123456789"))
    edits = {group: text[record.start(group) : at] + digit + text[at + 1 : record.end(group)]}
    if rebalance and group != 1:
        ambient = json.loads(text)["ambient_degree"]
        genus, order = (int(edits.get(g, record[g])) for g in (2, 3))
        edits[1] = str(ambient - order * (2 * genus - 2))
    for g in sorted(edits, key=record.start, reverse=True):
        text = text[: record.start(g)] + edits[g] + text[record.end(g) :]
    return text


def draw_mutation(data, texts):
    """One of texts with one mutation drawn by data."""
    text = data.draw(st.sampled_from(texts))
    records = list(RECORD.finditer(text))
    mutations = ["character"]
    if len(records) > 1:
        mutations.append("swap")
    if records:
        mutations += ["digit", "rebalanced digit"]
    mutation = data.draw(st.sampled_from(mutations))
    if mutation == "character":
        return one_character_edit(data, text)
    if mutation == "swap":
        return swap_adjacent_records(data, records, text)
    return change_one_digit(data, records, text, rebalance=mutation == "rebalanced digit")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_one_mutation_gives_the_json_path_verdict(gate_exports, data):
    assert_same_verdict(draw_mutation(data, gate_exports))


# --- named damage in render_json's layout ------------------------------------


def suzuki1_export():
    return render_json(compute_spectrum(Family.SUZUKI, 1))


def closing_with(text, member):
    """text with one more top-level member before the final brace."""
    assert text.endswith("\n}\n")
    return text[: -len("\n}\n")] + ",\n " + member + "\n}\n"


FIRST_PARAM = '"params": [\n    1,'
NAMED_DAMAGE = {
    "leading-zero": lambda t: t.replace('"genus": 2,', '"genus": 07,', 1),
    "leading-zero-in-params": lambda t: t.replace(FIRST_PARAM, FIRST_PARAM[:-2] + "01,", 1),
    "non-ascii-digit": lambda t: t.replace(FIRST_PARAM, FIRST_PARAM[:-1] + "\u0661,", 1),
    "exponent": lambda t: t.replace('"delta": 340,', '"delta": 34e1,', 1),
    "minus-zero": lambda t: t.replace('"delta": 0,', '"delta": -0,', 1),
    "escaped-duplicate-records": lambda t: closing_with(t, '"rec\\u006frds": []'),
    "records-key-twice": lambda t: t.replace("{\n", '{\n "records": [],\n', 1),
    "records-in-a-nested-object": lambda t: t.replace(
        '\n "records": [\n', '\n "records": [],\n "x": {\n "records": [\n', 1
    ).replace('\n ],\n "s"', '\n ]},\n "s"', 1),
    "records-not-comma-separated": lambda t: t.replace("},\n  {", "}  {", 1),
    "trailing-comma": lambda t: t.replace("}\n ],\n \"s\"", '},\n\n ],\n "s"', 1),
    "trailing-text": lambda t: t + "{}",
    "bytes": str.encode,
}
ACCEPTED = {"minus-zero", "records-key-twice", "bytes"}  # by json.loads and the checks


@pytest.mark.parametrize("name", NAMED_DAMAGE)
def test_named_damage_takes_the_json_path(name):
    text = NAMED_DAMAGE[name](suzuki1_export())
    assert text != suzuki1_export()
    assert not _passes_in_render_layout(text)
    assert (outcome(json_path, text) is None) is (name in ACCEPTED)
    assert_same_verdict(text)


# --- the possessive layout pattern splits as the backtracking one did --------

# _JSON_RECORD as written before its quantifiers were made possessive
BACKTRACKING_RECORD = (
    r'  \{\n   ("delta": INT,\n   "genus": INT,\n   "kind": "[a-z0-9-]+",\n   "order": INT),'
    r"\n   \"params\": \[\n    INT(?:,\n    INT)*\n   \]\n  \}(?:,\n(?=  \{)|(?=\n \]))"
).replace("INT", "(?:0|[1-9][0-9]*)")


def assert_same_split(text):
    assert re.split(_JSON_RECORD, text) == re.split(BACKTRACKING_RECORD, text)


@pytest.mark.parametrize(
    "family,s",
    [(Family.SUZUKI, s) for s in range(1, 7)] + [(Family.REE, s) for s in range(1, 5)],
    ids=lambda x: getattr(x, "value", x),
)
def test_possessive_pattern_splits_every_export_alike(family, s):
    for kind in KIND_FILTERS:
        assert_same_split(render_json(compute_spectrum(family, s, kind)))


@pytest.mark.parametrize("name", [n for n in NAMED_DAMAGE if n != "bytes"])
def test_possessive_pattern_splits_named_damage_alike(name):
    assert_same_split(NAMED_DAMAGE[name](suzuki1_export()))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_possessive_pattern_splits_one_mutation_alike(gate_exports, data):
    assert_same_split(draw_mutation(data, gate_exports))
