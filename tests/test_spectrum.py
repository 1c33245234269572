import hashlib
import json
import re
from pathlib import Path

import pytest

from skabelund import suite
from skabelund.catalog import (
    KINDS_BY_NAME,
    StandardExponents,
    enumerate_standard_exponents,
    kind_of,
    standard_exponent_elements,
)
from skabelund.curves import Family
from skabelund.oracle import realize_census
from skabelund.spectrum import (
    CSV_HEADER,
    SCHEMA_VERSION,
    ReferenceTable,
    compute_spectrum,
    render_csv,
    render_json,
    render_table,
    run_oracle_suite,
    validate_export,
    verify_tables,
)

from sampling import sample_evenly


def test_suzuki_s1_spectrum_contents():
    report = compute_spectrum(Family.SUZUKI, 1)
    assert len(report.records) == 16
    assert {2, 28, 38, 40, 92, 196} <= set(report.genera)
    assert report.genera == tuple(sorted(set(report.genera)))
    assert report.families_covered == ("sigma-cm", "b0-cyclic", "b0-dihedral")
    assert "not enumerated here" in report.completeness_note


def test_ree_s1_spectrum_contents():
    report = compute_spectrum(Family.REE, 1)
    assert {4, 445, 1433, 4393, 12942, 12951, 246051} <= set(report.genera)
    assert len(report.records) == 36


def test_family_filter():
    report = compute_spectrum(Family.SUZUKI, 1, "sigma-cm")
    assert len(report.records) == 8
    assert all(kind_of(r.descriptor).name == "sigma-cm" for r in report.records)
    with pytest.raises(ValueError):
        compute_spectrum(Family.SUZUKI, 1, "frobenius")


def test_rh_identity_on_every_record():
    for family, s in ((Family.SUZUKI, 3), (Family.REE, 2)):
        report = compute_spectrum(family, s)
        ambient = report.params.ambient_degree
        for r in report.records:
            assert ambient == r.order * (2 * r.genus - 2) + r.delta


def test_exports_are_deterministic():
    a = compute_spectrum(Family.REE, 2)
    b = compute_spectrum(Family.REE, 2)
    assert render_csv(a) == render_csv(b)
    assert render_json(a) == render_json(b)


def test_csv_schema():
    report = compute_spectrum(Family.SUZUKI, 1)
    lines = render_csv(report).strip().split("\n")
    assert lines[0] == (
        "family,s,q,m,descriptor_kind,param1,param2,param3,subgroup_order,delta,genus"
    )
    assert len(lines) == 1 + len(report.records)
    assert lines[1] == "suzuki,1,8,5,sigma-cm,1,1,0,25,340,2"
    b0_line = next(line for line in lines if ",b0-cyclic," in line)
    # B0 rows leave param3 empty
    assert b0_line.split(",")[7] == ""


def test_json_roundtrip_revalidates():
    report = compute_spectrum(Family.REE, 1)
    text = render_json(report)
    doc = validate_export(text)
    assert doc["family"] == "ree" and doc["m"] == 19
    assert doc["genera"] == list(report.genera)

    broken = json.loads(text)
    broken["records"][0]["genus"] += 1
    with pytest.raises(ValueError):
        validate_export(json.dumps(broken))

    stale = json.loads(text)
    stale["schema_version"] = 99
    with pytest.raises(ValueError):
        validate_export(json.dumps(stale))


def test_render_table_smoke():
    text = render_table(compute_spectrum(Family.SUZUKI, 1))
    assert "sigma-cm" in text and "spectrum:" in text


def test_verify_tables_all_pass():
    checks = verify_tables(s_max=4)
    assert len(checks) == 6
    assert all(check.ok for check in checks)


def test_verify_tables_s_max_filters():
    checks = verify_tables(s_max=1)
    assert {(c.table.source_table, c.table.s) for c in checks} == {(1, 1), (2, 1), (3, 1)}


def test_verify_tables_reports_missing_with_nearest():
    from skabelund.spectrum import ReferenceTable

    bogus = ReferenceTable(1, Family.SUZUKI, 1, (38, 42), ("sigma-cm",))
    (check,) = verify_tables(s_max=1, tables=(bogus,))
    assert not check.ok
    assert check.missing == (42,)
    assert check.nearest == (40,)  # closest genus the family actually produces


@pytest.mark.parametrize(
    "table, message",
    [
        (
            ReferenceTable(9, Family.SUZUKI, 1, (5,), ("psl28",)),
            "reference table 9 (suzuki s=1): subgroup family 'psl28' is a ree kind, "
            "not a suzuki one",
        ),
        (
            ReferenceTable(9, Family.REE, 1, (5,), ("sigma-cm", "b0-cyclic")),
            "reference table 9 (ree s=1): subgroup family 'b0-cyclic' is a suzuki kind, "
            "not a ree one",
        ),
        (
            ReferenceTable(9, Family.SUZUKI, 1, (5,), ()),
            "reference table 9 (suzuki s=1): no subgroup family given",
        ),
        (
            ReferenceTable(9, Family.SUZUKI, 1, (5,), ("sigma-cm", "frobenius")),
            "reference table 9 (suzuki s=1): unknown subgroup family 'frobenius'",
        ),
        (
            ReferenceTable(9, Family.REE, 1, (5,), ("n2-skew-full", "n2-skew-cyclic")),
            "reference table 9 (ree s=1): subgroup families n2-skew-full, n2-skew-cyclic "
            "give no genus",
        ),
    ],
    ids=["ree-kind-on-suzuki", "suzuki-kind-beside-a-ree-one", "no-kinds", "unknown-kind",
         "no-subgroups"],
)
def test_verify_tables_names_the_table_and_the_cause(table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_tables(4, (table,))


def test_sample_evenly():
    items = list(range(100))
    sampled = sample_evenly(items, 10)
    assert len(sampled) >= 10
    assert sampled[0] == 0 and sampled[-1] == 99
    assert sample_evenly(items, 200) == items


def test_oracle_suite_passes():
    for family, s in ((Family.SUZUKI, 1), (Family.REE, 1)):
        checks = run_oracle_suite(family, s)
        assert checks and all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_oracle_check_that_covers_nothing_fails():
    checks = {c.name: c for c in run_oracle_suite(Family.REE, 2, max_elements=-5)}
    for name in (
        "singer-square delta: closed form vs element enumeration",
        "congruence solution count: literal loop vs CRT product",
        "skew subgroups: closed forms vs element-level census and reduction",
    ):
        assert not checks[name].ok
        assert checks[name].detail.startswith("0 ")
        assert "none within the element cap -5" in checks[name].detail


def _off_by_one(target, hit):
    """target's result plus one on the calls whose arguments satisfy hit."""
    original = getattr(suite, target)
    return lambda *args, **kw: original(*args, **kw) + bool(hit(*args, **kw))


def _delta_off_by_one(target, hit):
    """target's record with its delta plus one on the calls whose arguments
    satisfy hit: a closed form broken for one case."""
    original = getattr(suite, target)

    def broken(*args):
        record = original(*args)
        return record._replace(delta=record.delta + 1) if hit(*args) else record

    return broken


def _drop_last(m):
    return enumerate_standard_exponents(m)[:-1]


def _repeated_and_cut(m, se):
    """(1, 5, 1) generates what (1, 5, 0) does; (5, 1, 0) loses its identity."""
    if se == StandardExponents(1, 5, 1):
        se = SE_1_5_0
    elements = standard_exponent_elements(m, se)
    return elements - {(0, 0)} if se == StandardExponents(5, 1, 0) else elements


def _one_more_involution(tag):
    realized = realize_census(tag)
    return {**realized, 2: realized[2] + 1} if tag == "n2_8" else realized


SE_1_5_0 = StandardExponents(1, 5, 0)
SE_31_7_4 = StandardExponents(31, 7, 4)  # Ree s=2: m = 217 = 7 * 31
# (curve, check name, suite attribute, broken replacement, FAIL detail)
BROKEN_CHECKS = [
    (
        (Family.SUZUKI, 1),
        "singer-square delta: closed form vs element enumeration",
        "delta_sigma_cm",
        lambda: _off_by_one("delta_sigma_cm", lambda params, se: se == SE_1_5_0),
        "StandardExponents(n1=1, n2=5, a=0): formula 1 != brute force 0",
    ),
    (
        (Family.SUZUKI, 1),
        "congruence solution count: literal loop vs CRT product",
        "count_congruence_solutions",
        lambda: _off_by_one(
            "count_congruence_solutions", lambda params, se, d, **_: (se, d) == (SE_1_5_0, 2)
        ),
        "StandardExponents(n1=1, n2=5, a=0) d=2: 2 vs 5",
    ),
    (
        (Family.SUZUKI, 1),
        "subgroup enumeration: standard exponents vs closure",
        "enumerate_standard_exponents",
        lambda: _drop_last,
        "closure subgroups no triple generates: 1, first of order 1; "
        "generated sets not closure subgroups: 0; "
        "triples repeating an earlier subgroup: 0",
    ),
    (
        (Family.SUZUKI, 1),
        "subgroup enumeration: standard exponents vs closure",
        "standard_exponent_elements",
        lambda: _repeated_and_cut,
        "closure subgroups no triple generates: 2, first of order 5; "
        "generated sets not closure subgroups: 1, first StandardExponents(n1=5, n2=1, a=0); "
        "triples repeating an earlier subgroup: 1, first StandardExponents(n1=1, n2=5, a=1)",
    ),
    (
        (Family.SUZUKI, 1),
        "B0 products: closed form vs census summation",
        "delta_b0_census",
        lambda: _off_by_one(
            "delta_b0_census", lambda params, d, n, dihedral: (d, n, dihedral) == (1, 5, True)
        ),
        "dihedral d=1 n=5",
    ),
    (
        (Family.SUZUKI, 1),
        "B0 products: closed form vs census summation",
        "genus_b0_cyclic",
        lambda: _delta_off_by_one("genus_b0_cyclic", lambda params, d, n: (d, n) == (7, 5)),
        "cyclic d=7 n=5",
    ),
    (
        (Family.REE, 2),
        "order censuses: tables vs permutation realizations",
        "realize_census",
        lambda: _one_more_involution,
        "n2_8: table {1: 1, 2: 7} vs realized {1: 1, 2: 8}",
    ),
    (
        (Family.REE, 2),
        "PSL(2,8)/N2 products: closed form vs census summation",
        "delta_census",
        lambda: _off_by_one("delta_census", lambda tag, params, n: (tag, n) == ("n2_56", 7)),
        "n2_56 n=7",
    ),
    (
        (Family.REE, 2),
        "PSL(2,8)/N2 products: closed form vs census summation",
        "genus_psl28",
        lambda: _delta_off_by_one("genus_psl28", lambda params, n: n == 31),
        "psl28 n=31",
    ),
    (
        (Family.REE, 2),
        "skew subgroups: closed forms vs element-level census and reduction",
        "delta_skew_census",
        lambda: _off_by_one(
            "delta_skew_census", lambda params, variant, i, w: (variant, i, w) == ("cyclic", 3, 1)
        ),
        "cyclic i=3 w=1",
    ),
    (
        (Family.REE, 2),
        "skew subgroups: closed forms vs element-level census and reduction",
        "genus_n2_skew_full",
        lambda: _delta_off_by_one("genus_n2_skew_full", lambda params, i, w: (i, w) == (2, 31)),
        "full i=2 w=31",
    ),
    (
        (Family.REE, 2),
        "skew subgroups: closed forms vs element-level census and reduction",
        "genus_sigma_cm_ree",
        # the cyclic skew subgroup (i, w) = (4, 1) is the triple (m/7, 7, 4)
        lambda: _delta_off_by_one("genus_sigma_cm_ree", lambda params, se: se == SE_31_7_4),
        "cyclic-reduction i=4 w=1",
    ),
]


@pytest.mark.parametrize(
    "curve, name, target, broken, detail", BROKEN_CHECKS, ids=[c[2] for c in BROKEN_CHECKS]
)
def test_each_oracle_check_fails_naming_its_broken_case(
    curve, name, target, broken, detail, monkeypatch
):
    """One broken input per FAIL branch: that branch's check, and no other,
    fails, and its detail names the broken case."""
    for setting in ("SKABELUND_MAX_ELEMENTS", "SKABELUND_MAX_CLOSURE_M"):
        monkeypatch.delenv(setting, raising=False)
    monkeypatch.setattr(suite, target, broken())
    checks = {c.name: c for c in run_oracle_suite(*curve)}
    assert (checks[name].ok, checks[name].detail) == (False, detail)
    assert all(c.ok for c in checks.values() if c.name != name)


GOLDEN = Path(__file__).resolve().parents[1] / "pipebench" / "golden.json"


@pytest.mark.parametrize(
    "family,s",
    [(Family.SUZUKI, s) for s in range(1, 7)] + [(Family.REE, s) for s in range(1, 5)],
    ids=lambda x: getattr(x, "value", x),
)
def test_exports_match_golden_hashes(family, s):
    expected = json.loads(GOLDEN.read_text())["export"][f"{family.value}-{s}"]
    report = compute_spectrum(family, s)
    digest = {
        "csv_sha256": hashlib.sha256(render_csv(report).encode()).hexdigest(),
        "json_sha256": hashlib.sha256(render_json(report).encode()).hexdigest(),
    }
    assert digest == expected


# --- exports streamed from the class tables vs the per-record reference ----
#
# The renderers below are the per-record exports the streaming renderers
# replaced; they read report.records and encode JSON with json.dumps.


def kind_name(record):
    return kind_of(record.descriptor).name


def padded_params(record):
    """The (param1, param2, param3) columns; unused slots are None."""
    params = tuple(record.descriptor)
    return params + (None,) * (3 - len(params))


def reference_csv(report):
    p = report.params
    lines = [CSV_HEADER]
    for record in report.records:
        p1, p2, p3 = padded_params(record)
        cells = [
            p.family.value,
            p.s,
            p.q,
            p.m,
            kind_name(record),
            p1,
            p2,
            p3,
            record.order,
            record.delta,
            record.genus,
        ]
        lines.append(",".join("" if c is None else str(c) for c in cells))
    return "\n".join(lines) + "\n"


def reference_json(report):
    p = report.params
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": p.family.value,
        "s": p.s,
        "q": p.q,
        "m": p.m,
        "ambient_degree": p.ambient_degree,
        "families_covered": list(report.families_covered),
        "completeness_note": report.completeness_note,
        "genera": list(report.genera),
        "records": [
            {
                "kind": kind_name(r),
                "params": [x for x in padded_params(r) if x is not None],
                "order": r.order,
                "delta": r.delta,
                "genus": r.genus,
            }
            for r in report.records
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def reference_table(report):
    p = report.params
    head = (
        f"{p.family.value} s={p.s}: q={p.q}, m={p.m}, "
        f"{len(report.records)} subgroups, {len(report.genera)} distinct genera"
    )
    rows = [head, ""]
    rows.append(f"{'kind':<16}{'params':<16}{'|H|':>12}{'delta':>16}{'genus':>16}")
    for r in report.records:
        ps = ",".join(str(x) for x in padded_params(r) if x is not None)
        rows.append(
            f"{kind_name(r):<16}{ps:<16}"
            f"{r.order:>12}{r.delta:>16}{r.genus:>16}"
        )
    rows.append("")
    rows.append("spectrum: " + ", ".join(str(g) for g in report.genera))
    return "\n".join(rows) + "\n"


def assert_same_text(got, want):
    """Byte equality, reporting the first differing line (pytest's own diff of
    two texts this long would take minutes)."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    i = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )
    pytest.fail(
        f"line {i}: got {got_lines[i:i + 1]!r}, want {want_lines[i:i + 1]!r} "
        f"({len(got_lines)} vs {len(want_lines)} lines)"
    )


def assert_exports_match_reference(report, expansions):
    streamed = (render_csv(report), render_json(report), render_table(report))
    count = report.record_count
    assert expansions == []  # neither streams nor count expanded
    assert_same_text(streamed[0], reference_csv(report))
    assert_same_text(streamed[1], reference_json(report))
    assert_same_text(streamed[2], reference_table(report))
    assert count == len(report.records)


@pytest.mark.parametrize(
    "family,s",
    [(Family.SUZUKI, s) for s in range(1, 7)] + [(Family.REE, s) for s in range(1, 6)],
    ids=lambda x: getattr(x, "value", x),
)
def test_streamed_exports_equal_per_record_exports(family, s, expansions):
    assert_exports_match_reference(compute_spectrum(family, s), expansions)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", list(KINDS_BY_NAME))
@pytest.mark.parametrize("s", [1, 2])
def test_streamed_exports_equal_per_record_exports_per_kind(family, kind, s, expansions):
    assert_exports_match_reference(compute_spectrum(family, s, kind), expansions)


def test_exports_of_a_kind_without_records():
    report = compute_spectrum(Family.REE, 1, "b0-cyclic")
    assert report.record_count == 0
    doc = validate_export(render_json(report))
    assert doc["records"] == [] and doc["genera"] == []
    assert '"records": [],' in render_json(report)
    assert render_csv(report) == CSV_HEADER + "\n"


# --- exports past the reference renderers ------------------------------------

EXPORT_GOLDEN = Path(__file__).resolve().parent / "data" / "export_golden.json"


@pytest.mark.parametrize("s", [7, 8])
def test_large_exports_match_recorded_hashes(s, expansions):
    """Suzuki s=7 and 8 (45,184 and 133,856 records), past the per-record
    reference gate, against hashes recorded from the per-row renderers."""
    report = compute_spectrum(Family.SUZUKI, s)
    digest = {
        "records": report.record_count,
        "csv_sha256": hashlib.sha256(render_csv(report).encode()).hexdigest(),
        "json_sha256": hashlib.sha256(render_json(report).encode()).hexdigest(),
    }
    assert expansions == []
    assert digest == json.loads(EXPORT_GOLDEN.read_text())[f"suzuki-{s}"]


# --- validate_export on damaged documents ------------------------------------


def one_line_value_error(text):
    with pytest.raises(ValueError) as info:
        validate_export(text)
    assert "\n" not in str(info.value)
    return str(info.value)


@pytest.fixture(scope="module")
def suzuki4_doc():
    return json.loads(render_json(compute_spectrum(Family.SUZUKI, 4)))


def largest_class(doc):
    """Indices of the records sharing the most common (order, genus, delta)."""
    members = {}
    for i, r in enumerate(doc["records"]):
        members.setdefault((r["order"], r["genus"], r["delta"]), []).append(i)
    return max(members.values(), key=len)


@pytest.mark.parametrize("where", [0, len, -1], ids=["first", "middle", "last"])
def test_one_corrupted_member_of_a_class_is_caught(suzuki4_doc, where):
    members = largest_class(suzuki4_doc)
    assert len(members) > 100
    i = members[len(members) // 2] if where is len else members[where]

    broken = json.loads(json.dumps(suzuki4_doc))
    broken["records"][i]["genus"] += 1
    message = one_line_value_error(json.dumps(broken))
    assert message == f"Riemann-Hurwitz identity fails for {broken['records'][i]}"

    # a float equal to the genus passes the identity and hides in the set
    broken = json.loads(json.dumps(suzuki4_doc))
    broken["records"][i]["genus"] = float(broken["records"][i]["genus"])
    assert f"record {i} " in one_line_value_error(json.dumps(broken))


TINY = {
    "schema_version": SCHEMA_VERSION,
    "ambient_degree": 10,
    "genera": [1],
    "records": [{"kind": "x", "order": 1, "genus": 1, "delta": 10, "params": [1]}] * 3,
}


def tiny_with(i, key, value):
    doc = json.loads(json.dumps(TINY))
    doc["records"][i][key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "key,value",
    [
        # equal to the int they replace, so the identity and a set both pass
        ("order", 1.0),
        ("genus", 1.0),
        ("delta", 10.0),
        ("order", True),
        ("genus", True),
        # unequal to the int they replace
        ("delta", True),
        ("genus", "1"),
        ("delta", None),
        ("order", [1]),
    ],
)
def test_non_integer_record_values_are_rejected(key, value):
    validate_export(json.dumps(TINY))
    for i in range(3):
        message = one_line_value_error(tiny_with(i, key, value))
        assert message.startswith(f"record {i} has no integer order, genus and delta")


@pytest.mark.parametrize(
    "order,genus,delta",
    [(0, 1, 10), (-1, 1, 10), (1, -3, 18), (1, 7, -2)],
    ids=["order-0", "order-negative", "genus-negative", "delta-negative"],
)
def test_records_no_subgroup_can_have_are_rejected(order, genus, delta):
    """Each record balances Riemann-Hurwitz and the spectrum matches, but
    make_record would refuse it: order >= 1, genus >= 0 and delta >= 0."""
    assert TINY["ambient_degree"] == order * (2 * genus - 2) + delta
    doc = json.loads(json.dumps(TINY))
    doc["records"][1].update(order=order, genus=genus, delta=delta)
    doc["genera"] = sorted({1, genus})
    message = one_line_value_error(json.dumps(doc))
    assert message == f"order, genus or delta out of range for {doc['records'][1]}"


@pytest.mark.parametrize(
    "key,value",
    [
        ("ambient_degree", 10.0),
        ("genera", [1.0]),
        ("genera", [True]),
        ("schema_version", True),
        ("schema_version", 1.0),
    ],
)
def test_non_integer_document_values_are_rejected(key, value):
    doc = dict(TINY, **{key: value})
    one_line_value_error(json.dumps(doc))


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"records": ' * 100_000], ids=["arrays", "objects"]
)
def test_deeply_nested_documents_are_rejected(text):
    assert "nested too deeply" in one_line_value_error(text)


@pytest.mark.parametrize("text", ["[]", "1", '"export"', "null", "[{}]"])
def test_non_object_documents_are_rejected(text):
    assert "not an object" in one_line_value_error(text)


@pytest.mark.parametrize("key", ["ambient_degree", "genera", "records"])
def test_missing_document_keys_are_rejected(key):
    doc = {k: v for k, v in TINY.items() if k != key}
    assert repr(key) in one_line_value_error(json.dumps(doc))


@pytest.mark.parametrize("key", ["order", "genus", "delta"])
def test_missing_record_keys_are_rejected(key):
    doc = json.loads(json.dumps(TINY))
    del doc["records"][1][key]
    assert one_line_value_error(json.dumps(doc)).startswith("record 1 ")


@pytest.mark.parametrize("records", [{}, 3, None, [[1, 3, 10]], [7]])
def test_malformed_record_lists_are_rejected(records):
    one_line_value_error(json.dumps(dict(TINY, records=records)))
