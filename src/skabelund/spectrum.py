"""Spectrum pipeline: enumerate descriptors, evaluate genera, verify tables.

The Singer square is evaluated once per nu-profile class (see singer.py),
not once per subgroup: genus spectra, verify_tables and the CSV, JSON and
table exports read the class tables alone.  Per-subgroup GenusRecords are
materialized only when SpectrumReport.records is read, afresh on each read:
SpectrumReport is a plain NamedTuple and caches nothing.  Every other
descriptor is evaluated on its own.

Each renderer has one row template, text_of(record) -> (before, after),
read from the record alone: every row, of any kind, is before +
str(last parameter of the descriptor) + after.  _runs yields the rows in
catalog order as runs of (values of the last parameter, texts): one run per
Singer block, whose texts SingerSquare.walk formats once per class, so its
rows are joined without a Python frame per row, and one run of one row per
other record.

validate_export has two paths with one verdict.  A str whose records array
is in render_json's own layout, the template records joined by ",\n" inside
a head that parses to one object with no repeated key, is checked by one
regular-expression split: the head and the distinct (delta, genus, kind,
order) texts are parsed, not the records.  Any other text, and any text
that fails a check there, goes to json.loads and _check_document, the only
code that raises, so the accepted texts and the error messages are those
of that path alone.

Output is deterministic: records follow the catalog enumeration order, the
genus spectrum is sorted and deduplicated, and both export formats (CSV and
JSON) are byte-stable across runs.  Reference genus tables are embedded as
data and verified by set membership - the published tables list only the
values that were new at the time, so computed spectra are supersets.

The oracle suite lives in suite.py and the environment settings and oracle
caps in settings.py.  run_oracle_suite here imports the suite on its first
call, so computing, exporting and verifying spectra never loads the
brute-force oracle (oracle.py, _kernels.py, iota.py).
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .arith import divisors
from .catalog import (
    KINDS,
    KINDS_BY_NAME,
    GenusRecord,
    SubgroupDescriptor,
    check_kind_family,
    kind_of,
)
from .curves import CurveParams, Family, make_params

# delta_sigma_cm is not called here; pipebench's tracer test reads this binding
from .singer import SingerSquare, delta_sigma_cm, evaluate_singer_square  # noqa: F401

if TYPE_CHECKING:
    from .suite import OracleCheck

SCHEMA_VERSION = 1

COMPLETENESS_NOTE = (
    "Spectrum covers the Singer-square family plus, per family, the B0 "
    "cyclic/dihedral products (Suzuki) or the PSL(2,8), N2 and skew N2 "
    "products (Ree). Quotients by Frobenius-group, opposite-Singer, "
    "involution-centralizer, N, and subfield-subgroup products have "
    "published genus formulas elsewhere and are not enumerated here."
)

CSV_HEADER = (
    "family,s,q,m,descriptor_kind,param1,param2,param3,subgroup_order,delta,genus"
)

# the one kind evaluated by class tables rather than descriptor by descriptor
_SINGER_KIND = KINDS_BY_NAME["sigma-cm"]


def evaluate_descriptor(
    params: CurveParams, descriptor: SubgroupDescriptor
) -> GenusRecord:
    """Closed-form genus record for one descriptor."""
    return kind_of(descriptor).evaluate(params, descriptor)


class SpectrumReport(NamedTuple):
    """A curve's genus spectrum.  repr shows the first four fields only, and
    hash leaves out singer, whose class tables hold dicts (equality compares
    them)."""

    params: CurveParams
    genera: tuple[int, ...]  # sorted, deduplicated
    families_covered: tuple[str, ...]
    completeness_note: str
    singer: SingerSquare = SingerSquare((), ())  # empty: sigma-cm not picked
    other_records: tuple[GenusRecord, ...] = ()

    def __hash__(self) -> int:
        return hash(self[:4] + self[5:])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:4], self))
        return f"SpectrumReport({shown})"

    @property
    def records(self) -> tuple[GenusRecord, ...]:
        """One record per descriptor in catalog enumeration order, expanded
        from the Singer-square class tables on each read."""
        return (*self.singer.expand(), *self.other_records)

    @property
    def record_count(self) -> int:
        """len(records), counted from the class tables without expanding them."""
        return self.singer.count() + len(self.other_records)


def compute_spectrum(
    family: Family, s: int, family_filter: str | None = None
) -> SpectrumReport:
    """Evaluate every cataloged descriptor (optionally one kind only)."""
    params = make_params(family, s)
    if family_filter is not None and family_filter not in KINDS_BY_NAME:
        raise ValueError(f"unknown subgroup family {family_filter!r}")
    kinds = [
        kind
        for kind in KINDS
        if kind.family in (None, params.family) and family_filter in (None, kind.name)
    ]
    singer = evaluate_singer_square(params) if _SINGER_KIND in kinds else SingerSquare((), ())
    m_divs = divisors(params.m)
    others = tuple(
        evaluate_descriptor(params, d)
        for kind in kinds
        if kind is not _SINGER_KIND
        for d in kind.enumerate(params, m_divs)
    )
    covered = (_SINGER_KIND.name,) if singer.blocks else ()
    covered += tuple(dict.fromkeys(kind_of(r.descriptor).name for r in others))
    genera = singer.genera() | {r.genus for r in others}
    return SpectrumReport(
        params=params,
        genera=tuple(sorted(genera)),
        families_covered=covered,
        completeness_note=COMPLETENESS_NOTE,
        singer=singer,
        other_records=others,
    )


# --- export ------------------------------------------------------------------


RowText = Callable[[GenusRecord], tuple[str, str]]


def _runs(
    report: SpectrumReport, text_of: RowText
) -> Iterator[tuple[Sequence[int], Iterator[tuple[str, str]]]]:
    """The rows in catalog order, as runs of (values, texts): the row of the
    i-th value v writes str(v) between the (before, after) of the i-th text.
    text_of(record) gives the text of the rows whose descriptors differ from
    record's in the last parameter alone, which is v.

    Each Singer block is one run over the valid a, its texts formatted once
    per class by SingerSquare.walk; every other record is a run of one row.
    """
    yield from report.singer.walk(text_of)
    for r in report.other_records:
        yield r.descriptor[-1:], (text_of(r),)


def _lines(report: SpectrumReport, text_of: RowText) -> Iterator[str]:
    """before + str(v) + after per row of _runs; str(v).join((before, after))
    assembles each row in map, so no Python frame runs per row."""
    return chain.from_iterable(
        map(str.join, map(str, values), texts) for values, texts in _runs(report, text_of)
    )


def render_csv(report: SpectrumReport) -> str:
    p = report.params
    prefix = f"{p.family.value},{p.s},{p.q},{p.m},"

    def text_of(r):
        lead = r.descriptor[:-1]
        # three parameter columns, unused slots left empty
        before = prefix + kind_of(r.descriptor).name + "," + "".join(f"{x}," for x in lead)
        return before, "," * (3 - len(lead)) + f"{r.order},{r.delta},{r.genus}"

    lines = [CSV_HEADER, *_lines(report, text_of), ""]  # "": the final newline
    return "\n".join(lines)


_JSON_KINDS = {name: json.dumps(name) for name in KINDS_BY_NAME}
_JSON_RECORD_TAIL = "\n   ]\n  }"


def render_json(report: SpectrumReport) -> str:
    """The document json.dumps(..., sort_keys=True, indent=1) would give.

    The head is encoded by json.dumps with an empty record list; the records
    are written from a fixed template (keys sorted, depth 2) and spliced in,
    since an indented json.dumps never uses the C encoder.
    """
    p = report.params
    head = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "family": p.family.value,
            "s": p.s,
            "q": p.q,
            "m": p.m,
            "ambient_degree": p.ambient_degree,
            "families_covered": list(report.families_covered),
            "completeness_note": report.completeness_note,
            "genera": list(report.genera),
            "records": [],
        },
        sort_keys=True,
        indent=1,
    )

    def text_of(r):
        before = (
            f'  {{\n   "delta": {r.delta},\n   "genus": {r.genus},'
            f'\n   "kind": {_JSON_KINDS[kind_of(r.descriptor).name]},\n   "order": {r.order},'
            f'\n   "params": [\n    '
        )
        return before + "".join(f"{x},\n    " for x in r.descriptor[:-1]), _JSON_RECORD_TAIL

    records = list(_lines(report, text_of))
    if not records:
        return head + "\n"
    before, _, after = head.partition('"records": []')
    return "".join((before, '"records": [\n', ",\n".join(records), "\n ]", after, "\n"))


def render_table(report: SpectrumReport) -> str:
    p = report.params
    head = (
        f"{p.family.value} s={p.s}: q={p.q}, m={p.m}, "
        f"{report.record_count} subgroups, {len(report.genera)} distinct genera"
    )
    rows = [head, ""]
    rows.append(f"{'kind':<16}{'params':<16}{'|H|':>12}{'delta':>16}{'genus':>16}")

    def text_of(r):
        # every kind name fits its 16 columns
        before = f"{kind_of(r.descriptor).name:<16}" + "".join(f"{x}," for x in r.descriptor[:-1])
        return before, f"{r.order:>12}{r.delta:>16}{r.genus:>16}"

    rows.extend(
        (before + str(v)).ljust(32) + after
        for values, texts in _runs(report, text_of)
        for v, (before, after) in zip(values, texts)
    )
    rows.append("")
    rows.append("spectrum: " + ", ".join(str(g) for g in report.genera))
    return "\n".join(rows) + "\n"


_RH_FIELDS = ("order", "genus", "delta")


def _exact_record(entry) -> bool:
    return type(entry) is dict and all(type(entry.get(k)) is int for k in _RH_FIELDS)


def validate_export(text: str | bytes) -> None:
    """Check a JSON export and every record's Riemann-Hurwitz identity.

    Every value the identity reads must be an exact int (a float or bool
    would compare equal to one) within make_record's bounds (order >= 1,
    genus >= 0, delta >= 0), and the genera must be the records' spectrum.
    Any malformed document raises ValueError.

    Two paths give the same verdict.  A str whose records array is in
    render_json's own layout (_passes_in_render_layout) is checked without
    building a dict per record.  Every other text, and any text that path
    does not pass, is parsed by json.loads and checked by _check_document,
    which alone raises; its message names the first record that fails.
    """
    if _passes_in_render_layout(text):
        return
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("export is nested too deeply to parse") from None
    _check_document(doc)


# render_json's records, one record per match.  The group is the text of a
# record's delta, genus, kind and order, so split alternates "" with it where
# records follow each other in this layout.  [0-9], not \d, which also
# matches digits JSON refuses; no leading zero, sign, fraction or exponent.
# Each record is followed by ",\n" and the next record, or by the "\n ]" that
# closes the array.
_JSON_RECORDS_OPEN = '\n "records": [\n'
_JSON_RECORD = (
    r'  \{\n   ("delta": INT,\n   "genus": INT,\n   "kind": "[a-z0-9-]+",\n   "order": INT),'
    r"\n   \"params\": \[\n    INT(?:,\n    INT)*\n   \]\n  \}(?:,\n(?=  \{)|(?=\n \]))"
).replace("INT", "(?:0|[1-9][0-9]*)")


def _passes_in_render_layout(text) -> bool:
    """True if text is a str in render_json's layout that passes every check
    of _check_document; False sends it to the json path.

    After _JSON_RECORDS_OPEN the text must hold _JSON_RECORD matches alone up
    to the array's close, so it is JSON if its head, the text with the array
    emptied, is.  The head must parse to a single object with no key twice,
    so that array is the document's "records".  _check_document then sees
    the head with one record per distinct (delta, genus, kind, order) text,
    and passes it exactly when it passes the whole document, since each check
    reads only the distinct values.
    """
    if type(text) is not str:
        return False
    # re compiles the pattern on the first call and keeps it
    parts = re.split(_JSON_RECORD, text)
    # the text before the first record, then per record its group and the
    # text after it: "" for every record but the last
    if not (parts[0].endswith(_JSON_RECORDS_OPEN) and parts.count("") == len(parts) // 2 - 1):
        return False
    objects = []

    def keep(pairs):
        objects.append(pairs)
        return dict(pairs)

    try:
        doc = json.loads(parts[0] + parts[-1], object_pairs_hook=keep)
        if type(doc) is not dict or objects != [list(doc.items())]:
            return False
        doc["records"] = [json.loads(f"{{{t}}}") for t in set(parts[1:-1:2])]
        _check_document(doc)
    except (ValueError, RecursionError):
        return False
    return True


def _check_document(doc) -> None:
    """The checks of validate_export on a parsed document; ValueError names
    the first record that fails.  The types are checked on every record, the
    bounds and the identity once per distinct (order, genus, delta)."""
    if type(doc) is not dict:
        raise ValueError(f"export is a JSON {type(doc).__name__}, not an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    missing = [k for k in ("ambient_degree", "genera", "records") if k not in doc]
    if missing:
        raise ValueError(f"export lacks {', '.join(map(repr, missing))}")
    ambient, records = doc["ambient_degree"], doc["records"]
    if type(ambient) is not int:
        raise ValueError(f"ambient_degree {ambient!r} is not an integer")
    if type(records) is not list:
        raise ValueError(f"records is a JSON {type(records).__name__}, not an array")
    try:
        columns = [list(map(itemgetter(k), records)) for k in _RH_FIELDS]
    except (KeyError, TypeError):
        columns = None
    # over all values: (1, 3, 1) and (1, 3.0, 1) are one element of a set
    if columns is None or set(map(type, chain(*columns))) - {int}:
        i, entry = next((i, e) for i, e in enumerate(records) if not _exact_record(e))
        raise ValueError(f"record {i} has no integer order, genus and delta: {entry}")
    distinct = set(zip(*columns))

    def first(bad):
        return next(e for e, t in zip(records, zip(*columns)) if t in bad)

    bad = {(o, g, d) for o, g, d in distinct if o < 1 or g < 0 or d < 0}
    if bad:
        raise ValueError(f"order, genus or delta out of range for {first(bad)}")
    bad = {t for t in distinct if ambient != t[0] * (2 * t[1] - 2) + t[2]}
    if bad:
        raise ValueError(f"Riemann-Hurwitz identity fails for {first(bad)}")
    genera = sorted({genus for _, genus, _ in distinct})
    if genera != doc["genera"] or set(map(type, doc["genera"])) - {int}:
        raise ValueError("genus spectrum does not match records")


# --- reference tables --------------------------------------------------------


class ReferenceTable(NamedTuple):
    source_table: int
    family: Family
    s: int
    expected_genera: tuple[int, ...]
    kinds: tuple[str, ...]  # descriptor kinds the values must come from


REFERENCE_TABLES: tuple[ReferenceTable, ...] = (
    ReferenceTable(1, Family.SUZUKI, 1, (38,), ("sigma-cm",)),
    ReferenceTable(1, Family.SUZUKI, 2, (104, 534, 604, 614, 3066), ("sigma-cm",)),
    ReferenceTable(1, Family.SUZUKI, 3, (9080,), ("sigma-cm",)),
    ReferenceTable(
        1,
        Family.SUZUKI,
        4,
        (3484, 10420, 129160, 135688, 138736, 138952, 138958, 138970, 1806442, 5141854),
        ("sigma-cm",),
    ),
    ReferenceTable(2, Family.REE, 1, (12942,), ("sigma-cm",)),
    ReferenceTable(3, Family.REE, 1, (445, 4393), ("psl28", "n2-nonskew")),
)


class TableCheck(NamedTuple):
    table: ReferenceTable
    missing: tuple[int, ...]
    nearest: tuple[int, ...]  # closest computed genus per missing value

    @property
    def ok(self) -> bool:
        return not self.missing


def verify_tables(
    s_max: int = 4, tables: tuple[ReferenceTable, ...] = REFERENCE_TABLES
) -> list[TableCheck]:
    """Check that each reference genus appears in the spectrum compute_spectrum
    gives for the table's curve, restricted to the table's kinds.  A table
    that gives no genus to compare with (no kind, a kind of the other curve
    family, no subgroup of its kinds on the curve) or names an unknown kind
    raises ValueError naming the table and the cause."""
    checks = []
    for table in tables:
        if table.s > s_max:
            continue
        where = f"reference table {table.source_table} ({table.family.value} s={table.s})"
        if not table.kinds:
            raise ValueError(f"{where}: no subgroup family given")
        try:
            for name in table.kinds:
                check_kind_family(name, table.family)
            genera = set().union(
                *(compute_spectrum(table.family, table.s, kind).genera for kind in table.kinds)
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not genera:
            raise ValueError(f"{where}: subgroup families {', '.join(table.kinds)} give no genus")
        missing = tuple(g for g in table.expected_genera if g not in genera)
        # ties broken toward the smaller genus, keeping reports deterministic
        ordered = sorted(genera)
        nearest = tuple(min(ordered, key=lambda got: abs(got - g)) for g in missing)
        checks.append(TableCheck(table=table, missing=missing, nearest=nearest))
    return checks


# --- oracle suite ------------------------------------------------------------


def run_oracle_suite(
    family: Family, s: int, max_elements: int | None = None
) -> list[OracleCheck]:
    """suite.run_oracle_suite; the suite and the oracle load on the first call."""
    from .suite import run_oracle_suite

    return run_oracle_suite(family, s, max_elements)
