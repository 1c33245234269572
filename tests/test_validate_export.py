"""validate_export accepts the export this version writes and nothing else.

It rebuilds the export a text's head names and compares: a text passes only
if json.loads gives the same document as that export, type for type.  Every
damage to the rows, even one that keeps every record balanced and the genus
list right, must raise ValueError, in render_json's layout and in compact
JSON alike, with a one-line message naming the first record that differs,
or else the first head key.
"""

import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skabelund import Family, compute_spectrum, render_json, spectrum, validate_export
from skabelund.catalog import family_kinds


def kind_filters(family):
    """The kind filters compute_spectrum takes for a curve of family: none,
    or one kind of that family."""
    return [None, *(kind.name for kind in family_kinds(family))]


GATE_CURVES = [(Family.SUZUKI, s) for s in (1, 2, 3)] + [(Family.REE, s) for s in (1, 2)]


def render_layout(doc):
    """doc as render_json writes it."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


LAYOUTS = pytest.mark.parametrize(
    "dump", [render_layout, json.dumps], ids=["render_json", "compact"]
)


def outcome(text):
    """None if validate_export accepts text, else its one-line message."""
    try:
        validate_export(text)
    except ValueError as exc:
        assert "\n" not in str(exc)
        return str(exc)
    return None


def export(family, s, kind=None):
    return render_json(compute_spectrum(family, s, kind))


@pytest.fixture(scope="module")
def gate_docs():
    """Every export of the gate curves, each kind filter included, parsed."""
    return [
        json.loads(export(family, s, kind))
        for family, s in GATE_CURVES
        for kind in kind_filters(family)
    ]


def rebalanced(doc):
    """doc with each record's delta set so that Riemann-Hurwitz holds and the
    genus list set to the records' spectrum, so the damage stays subtle."""
    for record in doc["records"]:
        record["delta"] = doc["ambient_degree"] - record["order"] * (2 * record["genus"] - 2)
    doc["genera"] = sorted({record["genus"] for record in doc["records"]})
    return doc


def assert_rows_damage_is_caught(doc, dump):
    """validate_export names the first record of doc that is not the export's."""
    message = outcome(dump(doc))
    assert message is not None and message.startswith("record "), message


# --- the exports this version writes pass --------------------------------------


@pytest.mark.parametrize("family,s", GATE_CURVES, ids=lambda x: getattr(x, "value", x))
def test_every_export_passes_in_both_layouts(family, s):
    for kind in kind_filters(family):
        text = export(family, s, kind)
        assert outcome(text) is None, kind
        assert outcome(json.dumps(json.loads(text))) is None, kind
        assert outcome(text.encode()) is None, kind


SUZUKI1 = export(Family.SUZUKI, 1)

SAME_DOCUMENT = {
    "minus-zero": lambda t: t.replace('"delta": 0,', '"delta": -0,', 1),
    "whitespace": lambda t: t.replace(",\n", " ,\r\n\t "),
    "no-whitespace": lambda t: json.dumps(json.loads(t), separators=(",", ":")),
    "keys-reversed": lambda t: json.dumps(dict(reversed(json.loads(t).items()))),
    "records-key-twice": lambda t: t.replace("{\n", '{\n "records": [],\n', 1),
    "bytes": str.encode,
    # the encodings json.loads reads
    "utf-8-bom": lambda t: t.encode("utf-8-sig"),
    "utf-16": lambda t: t.encode("utf-16"),
    "utf-16-be": lambda t: t.encode("utf-16-be"),
    "utf-32": lambda t: t.encode("utf-32"),
    "utf-32-le": lambda t: t.encode("utf-32-le"),
    "bytearray": lambda t: bytearray(t.encode()),
}


@pytest.mark.parametrize("name", SAME_DOCUMENT)
def test_the_same_document_written_otherwise_passes(name):
    text = SAME_DOCUMENT[name](SUZUKI1)
    assert text != SUZUKI1
    assert outcome(text) is None


def test_bytes_that_do_not_decode_and_a_memoryview_are_refused():
    broken = SUZUKI1.encode()[:50] + b"\xff" + SUZUKI1.encode()[50:]
    assert outcome(broken) == (
        "'utf-8' codec can't decode byte 0xff in position 50: invalid start byte"
    )
    with pytest.raises(UnicodeDecodeError):
        validate_export(broken)
    message = "^the JSON object must be str, bytes or bytearray, not memoryview$"
    with pytest.raises(TypeError, match=message):
        validate_export(memoryview(SUZUKI1.encode()))


@pytest.mark.parametrize("convert", [str, str.encode], ids=["str", "bytes"])
def test_an_export_passes_after_one_parse_of_its_head(convert, monkeypatch):
    """The export this version writes passes from its head alone: one
    json.loads of a text far shorter than the export, as str or as bytes."""
    text = export(Family.REE, 2)
    parsed = []
    loads = json.loads

    def recording(source, *args, **kwargs):
        parsed.append(len(source))
        return loads(source, *args, **kwargs)

    monkeypatch.setattr(spectrum.json, "loads", recording)
    assert outcome(convert(text)) is None
    assert len(parsed) == 1 and parsed[0] < len(text) // 10


def test_an_export_without_records_passes_and_one_record_more_fails():
    report = compute_spectrum(Family.REE, 1, "n2-skew-full")  # 7 does not divide m = 19
    assert report.record_count == 0
    text = render_json(report)
    assert outcome(text) is None
    doc = json.loads(text)
    doc["records"].append(json.loads(SUZUKI1)["records"][0])
    for dump in (render_layout, json.dumps):
        assert outcome(dump(rebalanced(doc))).startswith("record 0 ")


# --- damage to the rows raises ---------------------------------------------------


def suzuki2_doc():
    return json.loads(export(Family.SUZUKI, 2))


def drop_one_repeat_another(doc):
    records = doc["records"]
    records[3] = dict(records[5])
    return doc


def swap_two(doc):
    records = doc["records"]
    records[3], records[5] = records[5], records[3]
    return doc


def params_999(doc):
    records = doc["records"]
    i = next(i for i, r in enumerate(records) if r["kind"] == "sigma-cm")
    records[i]["params"] = [999, 999, 999]
    return doc


@LAYOUTS
@pytest.mark.parametrize("damage", [drop_one_repeat_another, swap_two, params_999])
def test_rows_that_are_not_the_catalog_are_caught(damage, dump):
    """Each damage keeps the record count, every Riemann-Hurwitz identity and
    the genus list, so only a comparison with the catalog sees it."""
    doc = damage(suzuki2_doc())
    assert len(doc["records"]) == len(suzuki2_doc()["records"])
    assert doc["genera"] == suzuki2_doc()["genera"]
    assert_rows_damage_is_caught(doc, dump)


FIRST_PARAM = '"params": [\n    1,'


def closing_with(text, member):
    """text with one more top-level member before the final brace."""
    assert text.endswith("\n}\n")
    return text[: -len("\n}\n")] + ",\n " + member + "\n}\n"


# damage to the text around the rows is caught as well
NAMED_DAMAGE = {
    "leading-zero": lambda t: t.replace('"genus": 2,', '"genus": 07,', 1),
    "leading-zero-in-params": lambda t: t.replace(FIRST_PARAM, FIRST_PARAM[:-2] + "01,", 1),
    "non-ascii-digit": lambda t: t.replace(FIRST_PARAM, FIRST_PARAM[:-1] + "\u0661,", 1),
    "exponent": lambda t: t.replace('"delta": 340,', '"delta": 34e1,', 1),
    "escaped-duplicate-records": lambda t: closing_with(t, '"rec\\u006frds": []'),
    "records-in-a-nested-object": lambda t: t.replace(
        '\n "records": [\n', '\n "records": [],\n "x": {\n "records": [\n', 1
    ).replace('\n ],\n "s"', '\n ]},\n "s"', 1),
    "records-not-comma-separated": lambda t: t.replace("},\n  {", "}  {", 1),
    "trailing-comma": lambda t: t.replace('}\n ],\n "s"', '},\n\n ],\n "s"', 1),
    "trailing-text": lambda t: t + "{}",
}


@pytest.mark.parametrize("name", NAMED_DAMAGE)
def test_named_damage_is_caught(name):
    text = NAMED_DAMAGE[name](SUZUKI1)
    assert text != SUZUKI1
    assert outcome(text) is not None


# --- the head names a curve within the caps --------------------------------------


def suzuki1_with(**head):
    return dict(json.loads(SUZUKI1), **head)


HEAD_DAMAGE = {
    "unknown-family": ({"family": "hermitian"}, "unknown family 'hermitian'"),
    "no-family": ({"family": None}, "unknown family None"),
    "s-float": ({"s": 1.0}, "s 1.0 is not a positive integer"),
    "s-string": ({"s": "1"}, "s '1' is not a positive integer"),
    "s-bool": ({"s": True}, "s True is not a positive integer"),
    "s-0": ({"s": 0}, "s 0 is not a positive integer"),
    "q": ({"q": 9}, "q is 9, where this version writes 8"),
    "m": ({"m": 7}, "m is 7, where this version writes 5"),
    "another-kind": ({"families_covered": ["b0-cyclic"]}, "record 0 is "),
    "note": ({"completeness_note": ""}, "completeness_note is '', where this version writes "),
    "key-with-newline": ({"x\ny": 1}, "'x\\ny' is 1, where this version writes no 'x\\ny'"),
    "extra-null-key": ({"x": None}, "x is None, where this version writes no x"),
}


@LAYOUTS
@pytest.mark.parametrize("name", HEAD_DAMAGE)
def test_a_head_this_version_does_not_write_is_caught(name, dump):
    head, message = HEAD_DAMAGE[name]
    assert outcome(dump(suzuki1_with(**head))).startswith(message)


@LAYOUTS
def test_an_ambient_degree_make_params_does_not_give_is_caught(dump):
    ambient = suzuki1_with()["ambient_degree"]
    assert outcome(dump(suzuki1_with(ambient_degree=ambient + 1))) == (
        f"ambient_degree is {ambient + 1}, where this version writes {ambient}"
    )
    empty = json.loads(export(Family.REE, 1, "n2-skew-full"))
    empty["ambient_degree"] += 1
    assert outcome(dump(empty)).startswith("ambient_degree is ")


@LAYOUTS
def test_an_s_past_the_cap_is_refused_before_the_curve_is_built(dump, monkeypatch):
    monkeypatch.delenv("SKABELUND_MAX_S", raising=False)

    def refuse(*args):
        raise AssertionError("make_params called")

    monkeypatch.setattr(spectrum, "make_params", refuse)
    monkeypatch.setattr(spectrum, "compute_spectrum", refuse)
    text = dump(suzuki1_with(s=1_000_000))
    start = time.perf_counter()
    message = outcome(text)
    assert time.perf_counter() - start < 0.5
    assert message == "s=1000000 exceeds the cap 6 for suzuki (SKABELUND_MAX_S)"


def test_the_cap_follows_the_setting(monkeypatch):
    text = export(Family.REE, 2)
    monkeypatch.setenv("SKABELUND_MAX_S", "1")
    assert outcome(text) == "s=2 exceeds the cap 1 for ree (SKABELUND_MAX_S)"
    monkeypatch.setenv("SKABELUND_MAX_S", "2")
    assert outcome(text) is None


def test_an_s_past_the_cap_is_refused_from_the_head_alone(monkeypatch):
    """The head names the curve, so an s past the cap is refused after one
    parse of the head, not of the whole text: records that would not even
    parse get the same one-line message."""
    text = export(Family.REE, 2)
    monkeypatch.setenv("SKABELUND_MAX_S", "1")
    parsed = []
    loads = json.loads

    def recording(source, *args, **kwargs):
        parsed.append(len(source))
        return loads(source, *args, **kwargs)

    monkeypatch.setattr(spectrum.json, "loads", recording)
    message = "s=2 exceeds the cap 1 for ree (SKABELUND_MAX_S)"
    assert outcome(text) == message
    assert len(parsed) == 1 and parsed[0] < len(text) // 10
    records = text.index('"records": [') + len('"records": [')
    assert outcome(text[:records] + "not json, " + text[records:]) == message
    assert len(parsed) == 2


# --- the mutation gate -----------------------------------------------------------


def mutate(data, doc):
    """doc, which has records, with one mutation of its rows drawn by data,
    rebalanced."""
    records = doc["records"]
    n = len(records)
    mutations = ["params", "order", "genus", "repeat", "drop"] + (["swap"] if n > 1 else [])
    mutation = data.draw(st.sampled_from(mutations))
    i = data.draw(st.integers(0, n - 1))
    if mutation == "drop":
        del records[i]
    elif mutation == "repeat":
        records.insert(data.draw(st.integers(0, n)), dict(records[i]))
    elif mutation == "swap":
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        records[i], records[j] = records[j], records[i]
    elif mutation == "params":
        params = records[i]["params"]
        k = data.draw(st.integers(0, len(params) - 1))
        params[k] = data.draw(st.integers(0, 2 * doc["m"]).filter(lambda v: v != params[k]))
    else:
        # an order or genus another record of the curve has, or a small one
        values = {r[mutation] for r in records} | {1, 2, 3}
        records[i][mutation] = data.draw(st.sampled_from(sorted(values - {records[i][mutation]})))
    return rebalanced(doc)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_single_mutation_is_caught(gate_docs, data):
    """Exports without records are the subject of
    test_an_export_without_records_passes_and_one_record_more_fails."""
    doc = data.draw(st.sampled_from([doc for doc in gate_docs if doc["records"]]))
    doc = mutate(data, json.loads(json.dumps(doc)))
    dump = data.draw(st.sampled_from([render_layout, json.dumps]))
    # a rebalanced delta may fall below 0, and is named like any other damage
    assert_rows_damage_is_caught(doc, dump)


# where render_json's layout joins its parts: a one-character change there
# is the likeliest to slip past a check of the text
LANDMARKS = re.compile(r'^|\n "records": \[|,\n  \{|\n   \]\n  \}|\n \]|\n\}\n\Z')
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_character_edit_passes_only_if_the_document_is_unchanged(gate_docs, data):
    text = render_layout(data.draw(st.sampled_from(gate_docs)))
    edited = one_character_edit(data, text)
    try:
        unchanged = render_layout(json.loads(edited)) == text
    except ValueError:
        unchanged = False
    assert (outcome(edited) is None) is unchanged
