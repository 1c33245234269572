import hashlib
import json
import re
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

from skabelund import catalog, genus_ree, genus_suzuki, singer, suite
from skabelund.catalog import (
    KINDS_BY_NAME,
    B0Dihedral,
    N2NonSkew,
    N2SkewCyclic,
    N2SkewFull,
    SigmaCm,
    enumerate_descriptors,
    kind_of,
)
from skabelund.curves import CurveParams, Family, make_params
from skabelund.spectrum import (
    COMPLETENESS_NOTE,
    CSV_HEADER,
    SCHEMA_VERSION,
    ReferenceTable,
    compute_spectrum,
    evaluate_descriptor,
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


@pytest.mark.parametrize(
    "family, kind, owner",
    [(Family.SUZUKI, "psl28", Family.REE), (Family.REE, "b0-dihedral", Family.SUZUKI)],
)
def test_a_kind_of_the_other_family_gives_no_spectrum(family, kind, owner):
    """Not an empty report, whose export would validate: the kind names no
    subgroup of the curve."""
    message = f"^subgroup family '{kind}' is a {owner.value} kind, not a {family.value} one$"
    with pytest.raises(ValueError, match=message):
        compute_spectrum(family, 1, kind)


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
    assert validate_export(text) is None
    doc = json.loads(text)
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
    checks = {c.name: c for c in run_oracle_suite(Family.REE, 2, max_elements=0)}
    for name in (
        "singer-square delta: closed form vs element enumeration",
        "congruence solution count: literal loop vs CRT product",
        "skew subgroups: closed forms vs element-level census and reduction",
    ):
        assert not checks[name].ok
        assert checks[name].detail.startswith("0 ")
        assert "none within the element cap 0" in checks[name].detail


SKEW_CHECK = "skew subgroups: closed forms vs element-level census and reduction"
# (s, cap, ok, detail): the full orders 56*m/(7w) are 56 and 1736 for Ree
# s=2 and 56, 392, 2408 and 16856 for Ree s=3, six pairs (i, w) each
SKEW_CAPS = [
    (2, 55, False, "0 (i, w) pairs (none within the element cap 55)"),
    (2, 56, True, "6 (i, w) pairs"),
    (2, 1000, True, "6 (i, w) pairs"),
    (2, 1736, True, "12 (i, w) pairs"),
    (3, 391, True, "6 (i, w) pairs"),
    (3, 392, True, "12 (i, w) pairs"),
    (3, 2408, True, "18 (i, w) pairs"),
    (3, 16855, True, "18 (i, w) pairs"),
    (3, 16856, True, "24 (i, w) pairs"),
]


@pytest.mark.parametrize(
    "s, cap, ok, detail", SKEW_CAPS, ids=[f"ree-{s}-cap-{cap}" for s, cap, *_ in SKEW_CAPS]
)
def test_the_skew_check_takes_the_pairs_whose_full_order_is_within_the_cap(
    s, cap, ok, detail, monkeypatch
):
    monkeypatch.delenv("SKABELUND_MAX_ELEMENTS", raising=False)
    checks = {c.name: c for c in run_oracle_suite(Family.REE, s, max_elements=cap)}
    assert (checks[SKEW_CHECK].ok, checks[SKEW_CHECK].detail) == (ok, detail)


def record_censuses(monkeypatch) -> list:
    """The descriptors the suite's census calls take, in call order."""
    seen = []
    for name in ("delta_b0_census", "delta_census", "delta_skew_census"):

        def recording(params, h, *rest, original=getattr(suite, name)):
            seen.append(h)
            return original(params, h, *rest)

        monkeypatch.setattr(suite, name, recording)
    return seen


CENSUS_CAP = 2408  # all skew pairs of Ree s=2, 18 of the 24 of Ree s=3
CENSUS_CURVES = [(family, s) for family in Family for s in range(1, 5)]


@pytest.mark.parametrize(
    "family, s", CENSUS_CURVES, ids=[f"{f.value}-{s}" for f, s in CENSUS_CURVES]
)
def test_the_censuses_see_exactly_the_descriptors_kinds_lists(family, s, monkeypatch):
    """Every descriptor enumerate_descriptors lists, kind by kind in KINDS
    order, and each skew pair whose full order is within the cap, full then
    cyclic: no kind but the sampled sigma-cm goes unchecked."""
    monkeypatch.delenv("SKABELUND_MAX_ELEMENTS", raising=False)
    seen = record_censuses(monkeypatch)
    run_oracle_suite(family, s, max_elements=CENSUS_CAP)
    params = make_params(family, s)
    listed = enumerate_descriptors(params)
    skew = [
        (h, N2SkewCyclic(*h))
        for h in listed
        if type(h) is N2SkewFull and 56 * (params.m // (7 * h.w)) <= CENSUS_CAP
    ]
    products = [h for h in listed if type(h) not in (SigmaCm, N2SkewFull, N2SkewCyclic)]
    assert seen == products + [h for pair in skew for h in pair]
    assert {kind_of(h).name for h in seen} == {kind_of(h).name for h in listed} - {"sigma-cm"}


@pytest.mark.parametrize(
    "kind_name, curve",
    [
        ("b0-cyclic", (Family.SUZUKI, 2)),
        ("b0-dihedral", (Family.SUZUKI, 2)),
        ("psl28", (Family.REE, 2)),
        ("n2-nonskew", (Family.REE, 2)),
        ("n2-skew-full", (Family.REE, 2)),
    ],
    ids=lambda x: x if type(x) is str else f"{x[0].value}-{x[1]}",
)
def test_the_census_sees_only_what_the_kinds_entry_lists(kind_name, curve, monkeypatch):
    monkeypatch.delenv("SKABELUND_MAX_ELEMENTS", raising=False)
    kind = KINDS_BY_NAME[kind_name]

    def shortened(params):
        return list(kind.enumerate(params))[::2]

    monkeypatch.setitem(KINDS_BY_NAME, kind_name, kind._replace(enumerate=shortened))
    seen = record_censuses(monkeypatch)
    checks = run_oracle_suite(*curve)
    params = make_params(*curve)
    listed = shortened(params)
    assert 0 < len(listed) < len(list(kind.enumerate(params)))
    assert [h for h in seen if type(h) is kind.cls] == listed
    assert all(c.ok for c in checks)


def _off_by_one(hit):
    """The original's result plus one on the calls whose arguments satisfy hit."""
    return lambda original: lambda *args, **kw: original(*args, **kw) + bool(hit(*args, **kw))


def _entry_off_by_one(index, hit):
    """The original's tuple with entry index plus one on the calls whose
    arguments satisfy hit."""

    def breaking(original):
        def broken(*args, **kw):
            counts = original(*args, **kw)
            if hit(*args, **kw):
                counts = (*counts[:index], counts[index] + 1, *counts[index + 1 :])
            return counts

        return broken

    return breaking


def _delta_off_by_one(hit):
    """The original's record with its delta plus one on the calls whose
    arguments satisfy hit: a closed form broken for one case."""

    def breaking(original):
        def broken(*args):
            record = original(*args)
            return record._replace(delta=record.delta + 1) if hit(*args) else record

        return broken

    return breaking


def _drop_last(original):
    return lambda m: original(m)[:-1]


def _repeated_and_cut(original):
    """(1, 5, 1) generates what (1, 5, 0) does; (5, 1, 0) loses its identity."""

    def broken(m, se):
        if se == SigmaCm(1, 5, 1):
            se = SE_1_5_0
        elements = original(m, se)
        return elements & ~1 if se == SigmaCm(5, 1, 0) else elements

    return broken


def _one_more_involution(original):
    def broken(tag):
        realized = original(tag)
        return {**realized, 2: realized[2] + 1} if tag == "n2_8" else realized

    return broken


SE_1_5_0 = SigmaCm(1, 5, 0)
SE_31_7_4 = SigmaCm(31, 7, 4)  # Ree s=2: m = 217 = 7 * 31
# (curve, check name, (module, attribute) patched, original -> broken
# replacement, FAIL detail).  The closed forms and the sigma-cm enumerator
# are patched where the KINDS entries look them up at call time.
BROKEN_CHECKS = [
    (
        (Family.SUZUKI, 1),
        "singer-square delta: closed form vs element enumeration",
        (suite, "delta_sigma_cm"),
        _off_by_one(lambda params, se: se == SE_1_5_0),
        "SigmaCm(n1=1, n2=5, a=0): formula 1 != brute force 0",
    ),
    (
        (Family.SUZUKI, 1),
        "congruence solution count: literal loop vs CRT product",
        (suite, "count_congruence_solutions"),
        _entry_off_by_one(2, lambda params, se, **_: se == SE_1_5_0),
        "SigmaCm(n1=1, n2=5, a=0) d=2: 2 vs 5",
    ),
    (
        (Family.SUZUKI, 1),
        "subgroup enumeration: standard exponents vs closure",
        (catalog, "enumerate_standard_exponents"),
        _drop_last,
        "closure subgroups no triple generates: 1, first of order 1; "
        "generated sets not closure subgroups: 0; "
        "triples repeating an earlier subgroup: 0",
    ),
    (
        (Family.SUZUKI, 1),
        "subgroup enumeration: standard exponents vs closure",
        (suite, "standard_exponent_elements"),
        _repeated_and_cut,
        "closure subgroups no triple generates: 2, first of order 5; "
        "generated sets not closure subgroups: 1, first SigmaCm(n1=5, n2=1, a=0); "
        "triples repeating an earlier subgroup: 1, first SigmaCm(n1=1, n2=5, a=1)",
    ),
    (
        (Family.SUZUKI, 1),
        "B0 products: closed form vs census summation",
        (suite, "delta_b0_census"),
        _off_by_one(lambda params, h: h == B0Dihedral(1, 5)),
        "dihedral d=1 n=5",
    ),
    (
        (Family.SUZUKI, 1),
        "B0 products: closed form vs census summation",
        (genus_suzuki, "genus_b0_cyclic"),
        _delta_off_by_one(lambda params, d, n: (d, n) == (7, 5)),
        "cyclic d=7 n=5",
    ),
    (
        (Family.REE, 2),
        "order censuses: tables vs permutation realizations",
        (suite, "realize_census"),
        _one_more_involution,
        "n2_8: table {1: 1, 2: 7} vs realized {1: 1, 2: 8}",
    ),
    (
        (Family.REE, 2),
        "PSL(2,8)/N2 products: closed form vs census summation",
        (suite, "delta_census"),
        _off_by_one(lambda params, h: h == N2NonSkew(56, 7)),
        "n2_56 n=7",
    ),
    (
        (Family.REE, 2),
        "PSL(2,8)/N2 products: closed form vs census summation",
        (genus_ree, "genus_psl28"),
        _delta_off_by_one(lambda params, n: n == 31),
        "psl28 n=31",
    ),
    (
        (Family.REE, 2),
        "skew subgroups: closed forms vs element-level census and reduction",
        (suite, "delta_skew_census"),
        _off_by_one(lambda params, h, *_: h == N2SkewCyclic(3, 1)),
        "cyclic i=3 w=1",
    ),
    (
        (Family.REE, 2),
        "skew subgroups: closed forms vs element-level census and reduction",
        (genus_ree, "genus_n2_skew_full"),
        _delta_off_by_one(lambda params, i, w: (i, w) == (2, 31)),
        "full i=2 w=31",
    ),
    (
        (Family.REE, 2),
        "skew subgroups: closed forms vs element-level census and reduction",
        (singer, "sigma_cm_record"),
        # the cyclic skew subgroup (i, w) = (4, 1) is the triple (m/7, 7, 4)
        _delta_off_by_one(lambda params, se: se == SE_31_7_4),
        "cyclic-reduction i=4 w=1",
    ),
]


@pytest.mark.parametrize(
    "curve, name, target, broken, detail", BROKEN_CHECKS, ids=[c[2][1] for c in BROKEN_CHECKS]
)
def test_each_oracle_check_fails_naming_its_broken_case(
    curve, name, target, broken, detail, monkeypatch
):
    """One broken input per FAIL branch: that branch's check, and no other,
    fails, and its detail names the broken case."""
    for setting in ("SKABELUND_MAX_ELEMENTS", "SKABELUND_MAX_CLOSURE_M"):
        monkeypatch.delenv(setting, raising=False)
    module, attribute = target
    monkeypatch.setattr(module, attribute, broken(getattr(module, attribute)))
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
# replaced; they encode JSON with json.dumps and read a Reference, built
# descriptor by descriptor from enumerate_descriptors and evaluate_descriptor,
# so that no class table, walk or expand runs on the reference side.


def kind_name(record):
    return kind_of(record.descriptor).name


class Reference(NamedTuple):
    """The fields of a SpectrumReport that the reference renderers read."""

    params: CurveParams
    genera: tuple[int, ...]
    families_covered: tuple[str, ...]
    completeness_note: str
    records: list


@cache
def per_descriptor_records(family, s):
    """Each descriptor of the curve evaluated on its own, in catalog order.
    Built once per curve: the whole-catalog and per-kind export tests filter
    the same list (Ree s=5 has 176,436 records)."""
    params = make_params(family, s)
    return params, tuple(evaluate_descriptor(params, d) for d in enumerate_descriptors(params))


def per_descriptor_reference(family, s, kind=None):
    params, every_record = per_descriptor_records(family, s)
    records = [r for r in every_record if kind in (None, kind_name(r))]
    return Reference(
        params,
        tuple(sorted({r.genus for r in records})),
        tuple(dict.fromkeys(map(kind_name, records))),
        COMPLETENESS_NOTE,
        records,
    )


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


def assert_exports_match_reference(family, s, kind, expansions):
    report = compute_spectrum(family, s, kind)
    streamed = (render_csv(report), render_json(report), render_table(report))
    reference = per_descriptor_reference(family, s, kind)
    assert expansions == []  # neither the streams, the count nor the reference expanded
    assert_same_text(streamed[0], reference_csv(reference))
    assert_same_text(streamed[1], reference_json(reference))
    assert_same_text(streamed[2], reference_table(reference))
    assert report.record_count == len(reference.records)


@pytest.mark.parametrize(
    "family,s",
    [(Family.SUZUKI, s) for s in range(1, 7)] + [(Family.REE, s) for s in range(1, 6)],
    ids=lambda x: getattr(x, "value", x),
)
def test_streamed_exports_equal_per_record_exports(family, s, expansions):
    assert_exports_match_reference(family, s, None, expansions)


# every kind at s <= 2, and the sigma-cm export, whose last row is a Singer
# row, at every s within the default caps
PER_KIND = [(family, kind, s) for s in (1, 2) for kind in KINDS_BY_NAME for family in Family]
PER_KIND += [(Family.SUZUKI, "sigma-cm", s) for s in range(3, 7)]
PER_KIND += [(Family.REE, "sigma-cm", s) for s in range(3, 6)]


@pytest.mark.parametrize(
    "family,kind,s", PER_KIND, ids=[f"{s}-{kind}-{family.value}" for family, kind, s in PER_KIND]
)
def test_streamed_exports_equal_per_record_exports_per_kind(family, kind, s, expansions):
    owner = KINDS_BY_NAME[kind].family
    if owner not in (None, family):
        # a kind of the other curve family has no spectrum to export
        message = f"^subgroup family '{kind}' is a {owner.value} kind, not a {family.value} one$"
        with pytest.raises(ValueError, match=message):
            compute_spectrum(family, s, kind)
        return
    assert_exports_match_reference(family, s, kind, expansions)


def test_exports_of_a_kind_without_records():
    report = compute_spectrum(Family.REE, 1, "n2-skew-full")  # 7 does not divide m = 19
    assert report.record_count == 0
    text = render_json(report)
    assert validate_export(text) is None
    doc = json.loads(text)
    assert doc["records"] == [] and doc["genera"] == []
    assert '"records": [],' in text
    assert render_csv(report) == CSV_HEADER + "\n"


# --- exports past the reference renderers ------------------------------------

EXPORT_GOLDEN = Path(__file__).resolve().parent / "data" / "export_golden.json"


@pytest.mark.parametrize("s", [7, 8])
def test_large_exports_match_recorded_hashes(s, expansions, monkeypatch):
    """Suzuki s=7 and 8 (45,184 and 133,856 records), past the per-record
    reference gate, against hashes recorded from the per-row renderers, and
    through validate_export, with the curve-size cap raised to take them."""
    monkeypatch.setenv("SKABELUND_MAX_S", "8")
    report = compute_spectrum(Family.SUZUKI, s)
    json_text = render_json(report)
    digest = {
        "records": report.record_count,
        "csv_sha256": hashlib.sha256(render_csv(report).encode()).hexdigest(),
        "json_sha256": hashlib.sha256(json_text.encode()).hexdigest(),
    }
    assert expansions == []
    assert digest == json.loads(EXPORT_GOLDEN.read_text())[f"suzuki-{s}"]
    validate_export(json_text)


# --- validate_export on damaged documents ------------------------------------


def render_layout(doc):
    """doc in render_json's layout."""
    return json.dumps(doc, sort_keys=True, indent=1)


def in_both_layouts(cases):
    """Each pytest.param case once dumped compactly, under its own id, and
    once in render_json's layout, under its id + "-render_json"; the dump
    function is the last argument."""
    return [
        pytest.param(*case.values, dump, id=case.id + suffix)
        for case in cases
        for dump, suffix in ((json.dumps, ""), (render_layout, "-render_json"))
    ]


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


@pytest.mark.parametrize(
    "where,dump",
    in_both_layouts(
        [pytest.param(0, id="first"), pytest.param(len, id="middle"), pytest.param(-1, id="last")]
    ),
)
def test_one_corrupted_member_of_a_class_is_caught(suzuki4_doc, where, dump):
    members = largest_class(suzuki4_doc)
    assert len(members) > 100
    i = members[len(members) // 2] if where is len else members[where]

    broken = json.loads(json.dumps(suzuki4_doc))
    broken["records"][i]["genus"] += 1
    wanted = suzuki4_doc["records"][i]
    assert one_line_value_error(dump(broken)) == (
        f"record {i} is {broken['records'][i]}, where this version writes {wanted}"
    )

    # a float equal to the genus passes the identity and hides in the set
    broken = json.loads(json.dumps(suzuki4_doc))
    broken["records"][i]["genus"] = float(broken["records"][i]["genus"])
    assert one_line_value_error(dump(broken)) == (
        f"record {i} is {broken['records'][i]}, where this version writes {wanted}"
    )


SUZUKI1 = json.loads(render_json(compute_spectrum(Family.SUZUKI, 1)))
# records 7 and 8 are the trivial subgroup: order 1, delta 0, genus 196
TRIVIAL = (7, 8)


def suzuki1_with(i, key, value):
    doc = json.loads(json.dumps(SUZUKI1))
    doc["records"][i][key] = value
    return doc


def record_error(i, doc):
    """The message naming record i of doc, the first that is not SUZUKI1's."""
    return f"record {i} is {doc['records'][i]}, where this version writes {SUZUKI1['records'][i]}"


@pytest.mark.parametrize(
    "key,value,dump",
    in_both_layouts(
        [
            # equal to the int they replace, so only their type tells them apart
            pytest.param("order", 1.0, id="order-1.0"),
            pytest.param("genus", 196.0, id="genus-196.0"),
            pytest.param("delta", 0.0, id="delta-0.0"),
            pytest.param("order", True, id="order-True"),
            pytest.param("delta", False, id="delta-False"),
            # unequal to the int they replace
            pytest.param("delta", True, id="delta-True"),
            pytest.param("genus", "196", id="genus-196"),
            pytest.param("delta", None, id="delta-None"),
            pytest.param("order", [1], id="order-value8"),
        ]
    ),
)
def test_non_integer_record_values_are_rejected(key, value, dump):
    for i in TRIVIAL:
        record = SUZUKI1["records"][i]
        assert (record["order"], record["genus"], record["delta"]) == (1, 196, 0)
        doc = suzuki1_with(i, key, value)
        assert one_line_value_error(dump(doc)) == record_error(i, doc)


AMBIENT = SUZUKI1["ambient_degree"]


@pytest.mark.parametrize(
    "order,genus,delta",
    [(0, 1, AMBIENT), (-1, 1, AMBIENT), (1, -3, AMBIENT + 8), (1, AMBIENT // 2 + 2, -2)],
    ids=["order-0", "order-negative", "genus-negative", "delta-negative"],
)
def test_records_no_subgroup_can_have_are_rejected(order, genus, delta):
    """Each record balances Riemann-Hurwitz and the spectrum matches, but
    make_record would refuse it: order >= 1, genus >= 0 and delta >= 0."""
    assert AMBIENT == order * (2 * genus - 2) + delta
    doc = json.loads(json.dumps(SUZUKI1))
    doc["records"][1].update(order=order, genus=genus, delta=delta)
    doc["genera"] = sorted({r["genus"] for r in doc["records"]})
    assert one_line_value_error(json.dumps(doc)) == record_error(1, doc)


@pytest.mark.parametrize(
    "key,value",
    [
        ("ambient_degree", float(SUZUKI1["ambient_degree"])),
        ("genera", [*SUZUKI1["genera"][:-1], float(SUZUKI1["genera"][-1])]),
        ("genera", [True]),
        ("schema_version", True),
        ("schema_version", 1.0),
    ],
)
def test_non_integer_document_values_are_rejected(key, value):
    doc = dict(SUZUKI1, **{key: value})
    assert one_line_value_error(json.dumps(doc)) == (
        f"{key} is {value!r}, where this version writes {SUZUKI1[key]!r}"
    )


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
    doc = {k: v for k, v in SUZUKI1.items() if k != key}
    wanted = "16 records" if key == "records" else repr(SUZUKI1[key])
    assert one_line_value_error(json.dumps(doc)) == (
        f"{key} is missing, where this version writes {wanted}"
    )


@pytest.mark.parametrize("dump", [json.dumps, render_layout], ids=["compact", "render_json"])
def test_a_type_only_difference_before_a_value_difference_is_named_first(dump):
    doc = suzuki1_with(2, "genus", float(SUZUKI1["records"][2]["genus"]))
    doc["records"][5]["genus"] += 1
    assert one_line_value_error(dump(doc)) == record_error(2, doc)


@pytest.mark.parametrize("key", ["order", "genus", "delta"])
def test_missing_record_keys_are_rejected(key):
    doc = json.loads(json.dumps(SUZUKI1))
    del doc["records"][1][key]
    assert one_line_value_error(json.dumps(doc)) == record_error(1, doc)


@pytest.mark.parametrize("records", [{}, 3, None, [[1, 3, 10]], [7]])
def test_malformed_record_lists_are_rejected(records):
    message = one_line_value_error(json.dumps(dict(SUZUKI1, records=records)))
    if type(records) is list:
        assert message.startswith(f"record 0 is {records[0]}, where this version writes ")
    else:
        assert message == f"records is {records!r}, where this version writes 16 records"
