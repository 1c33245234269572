"""Spectrum pipeline: enumerate descriptors, evaluate genera, verify tables.

compute_spectrum takes a curve's kinds from catalog.family_kinds and each
kind's descriptors from its KINDS enumerator.

The Singer square is evaluated once per nu-profile class (see singer.py),
not once per subgroup: genus spectra, verify_tables and the CSV, JSON and
table exports read the class tables alone.  Per-subgroup GenusRecords are
materialized only when SpectrumReport.records is read, afresh on each read:
SpectrumReport is a plain NamedTuple and caches nothing.  Every other
descriptor is evaluated on its own.

Each renderer has one row template, text_of(record) -> (before, after),
read from the record alone: every row, of any kind, is before +
str(last parameter of the descriptor) + after, after ending in the row
separator (the table pads before + str(last parameter) to 32 columns).
_lines, the one row path of the three formats, yields the rows in catalog
order for one join.  A Singer block's texts are formatted once per class by
SingerSquare.walk, which reads their classes from residue columns written
by strided slices, and its rows are joined in map, without a Python frame
per row; a sparse block (one residue column, fewer runs of one class than
rows) comes as ClassRuns, each run written by one join of its values.

validate_export rebuilds the export a text's head names and compares the
two: render_json is the definition of a valid export.

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
from collections.abc import Callable, Iterator
from itertools import chain, compress, count, repeat, starmap
from operator import ne
from typing import TYPE_CHECKING, NamedTuple

from .catalog import KINDS_BY_NAME, GenusRecord, SubgroupDescriptor, family_kinds, kind_of
from .curves import CurveParams, Family, make_params
from .settings import max_s

# delta_sigma_cm is not called here; pipebench's tracer test reads this binding
from .singer import ClassRuns, SingerSquare, delta_sigma_cm, evaluate_singer_square  # noqa: F401

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
    """Evaluate every cataloged descriptor (optionally one kind only).  A
    kind that is unknown or of the other curve family raises ValueError."""
    params = make_params(family, s)
    kinds = family_kinds(family, family_filter)
    singer = evaluate_singer_square(params) if _SINGER_KIND in kinds else SingerSquare((), ())
    others = tuple(
        evaluate_descriptor(params, d)
        for kind in kinds
        if kind is not _SINGER_KIND
        for d in kind.enumerate(params)
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


def _lines(report: SpectrumReport, text_of: RowText, width: int = 0) -> Iterator[str]:
    """The rows in catalog order as strings, each ending in the row
    separator that ends every after of text_of, so that an export is one
    "".join; with width, before + str(v) is left-justified to width columns.

    The rows come as runs of (values, texts), row i being before + str(v) +
    after for the i-th v and text: one run per Singer block, its texts
    formatted once per class by SingerSquare.walk, and one run of one row per
    other record.  A run's rows are str(v).join((before, after)) in map, so
    no Python frame runs per row; a ClassRuns gives each run of one class as
    one join of its values by after + before, before put on the first value
    and after on the last.  The rows of a run share one before length (a
    Singer block's kind and n1, n2), so width pads its value strings in map.
    """

    def strings(values, before):
        if not width:
            return map(str, values)
        return map(str.ljust, map(str, values), repeat(width - len(before)))

    def rows(values, texts):
        if type(texts) is not ClassRuns:
            texts = iter(texts)
            first = next(texts)  # every run has a row
            return map(str.join, strings(values, first[0]), chain((first,), texts))
        joined = []
        for run, (before, after) in texts.runs:
            parts = [*strings(run, before)]
            parts[0] = before + parts[0]
            parts[-1] += after
            joined.append((after + before).join(parts))
        return joined

    others = ((r.descriptor[-1:], (text_of(r),)) for r in report.other_records)
    return chain.from_iterable(starmap(rows, chain(report.singer.walk(text_of), others)))


def render_csv(report: SpectrumReport) -> str:
    p = report.params
    prefix = f"{p.family.value},{p.s},{p.q},{p.m},"

    def text_of(r):
        lead = r.descriptor[:-1]
        # three parameter columns, unused slots left empty
        before = prefix + kind_of(r.descriptor).name + "," + "".join(f"{x}," for x in lead)
        return before, "," * (3 - len(lead)) + f"{r.order},{r.delta},{r.genus}\n"

    return "".join([CSV_HEADER + "\n", *_lines(report, text_of)])


_JSON_KINDS = {name: json.dumps(name) for name in KINDS_BY_NAME}
_JSON_RECORD_TAIL = "\n   ]\n  },\n"


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

    if not report.record_count:
        return head + "\n"
    before, _, after = head.partition('"records": []')
    # one join, so that no joined copy of the records is kept beside the
    # document; the last piece is one row, whose ",\n" gives way to the close
    pieces = [before + '"records": [\n', *_lines(report, text_of)]
    pieces[-1] = pieces[-1][:-2] + "\n ]" + after + "\n"
    return "".join(pieces)


def render_table(report: SpectrumReport) -> str:
    p = report.params
    head = (
        f"{p.family.value} s={p.s}: q={p.q}, m={p.m}, "
        f"{report.record_count} subgroups, {len(report.genera)} distinct genera\n\n"
        f"{'kind':<16}{'params':<16}{'|H|':>12}{'delta':>16}{'genus':>16}\n"
    )

    def text_of(r):
        # every kind name fits its 16 columns
        before = f"{kind_of(r.descriptor).name:<16}" + "".join(f"{x}," for x in r.descriptor[:-1])
        return before, f"{r.order:>12}{r.delta:>16}{r.genus:>16}\n"

    spectrum = "\nspectrum: " + ", ".join(str(g) for g in report.genera) + "\n"
    return "".join([head, *_lines(report, text_of, 32), spectrum])


def validate_export(text: str | bytes | bytearray) -> None:
    """Check that text is the JSON export this version writes, or raise
    ValueError: the document it parses to must be, value for value and type
    for type, render_json's for the curve and kind filter its head names.

    family, s and families_covered name the export (no kind: the export with
    no records; one: that kind's; more: the whole catalog's), and an s past
    max_s(family) raises before the curve is built, and before the records
    are parsed when the head parses on its own.  The message names the
    first record that differs, else the first head key.  bytes and
    bytearray are decoded as json.loads decodes them and take the same path.

    This certifies "this is the export this version writes".  Whether its
    genera are right is the job of the oracle and verify_tables.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")  # as json.loads does
    elif not isinstance(text, str):
        raise TypeError(
            f"the JSON object must be str, bytes or bytearray, not {type(text).__name__}"
        )
    # the head, with the records array emptied; nothing read from it is
    # trusted, since only the text of the export it names passes here
    start, end = text.find('"records": ['), text.rfind("]")
    try:
        head = json.loads(text[:start] + '"records": []' + text[end + 1 :])
        if type(head) is dict and text == _export_named_by(head):
            return
    except _PastTheCap:
        raise
    except (ValueError, RecursionError):
        pass
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("export is nested too deeply to parse") from None
    if type(doc) is not dict:
        raise ValueError(f"export is a JSON {type(doc).__name__}, not an object")
    difference = _first_difference(doc, json.loads(_export_named_by(doc)))
    if difference is not None:
        raise ValueError(difference)


_FAMILIES = {family.value: family for family in Family}


class _PastTheCap(ValueError):
    """The curve a head names has an s past max_s: no parse of the records
    can change that, so validate_export raises it from the head alone."""


def _export_named_by(head: dict) -> str:
    """render_json of the report head's family, s and families_covered name;
    ValueError if they name no curve within max_s."""
    name, s, covered = head.get("family"), head.get("s"), head.get("families_covered")
    family = _FAMILIES.get(name) if type(name) is str else None
    if family is None:
        raise ValueError(f"unknown family {name!r}")
    if type(s) is not int or s < 1:
        raise ValueError(f"s {s!r} is not a positive integer")
    cap = max_s(family)
    if s > cap:
        raise _PastTheCap(f"s={s} exceeds the cap {cap} for {family.value} (SKABELUND_MAX_S)")
    if covered == []:
        return render_json(SpectrumReport(make_params(family, s), (), (), COMPLETENESS_NOTE))
    one = type(covered) is list and len(covered) == 1 and type(covered[0]) is str
    return render_json(compute_spectrum(family, s, covered[0] if one else None))


def _first_difference(doc: dict, want: dict) -> str | None:
    """None if doc is want, type for type (1.0 and true are not 1), else where
    doc first differs: its first record that does, else a head key.

    Records are compared with != up to the first that differs in value, and
    the records before it by their encodings from json.dumps, so a float or
    bool for an int in an earlier record is found first.
    """
    got, wanted = doc.get("records"), want["records"]
    if type(got) is not list:
        shown = repr(got) if "records" in doc else "missing"
        return f"records is {shown}, where this version writes {len(wanted)} records"
    i = next(compress(count(), map(ne, got, wanted)), min(len(got), len(wanted)))
    a, b = json.dumps(got[:i], sort_keys=True), json.dumps(wanted[:i], sort_keys=True)
    if a != b:
        # the records before i are equal dicts, each encoded with one "{"
        i = a.count("{", 0, _mismatch(a, b)) - 1
    if i < max(len(got), len(wanted)):
        got_i, wanted_i = (r[i] if i < len(r) else None for r in (got, wanted))
        return f"record {i} is {got_i}, where this version writes {wanted_i}"
    for key in sorted((doc.keys() | want.keys()) - {"records"}):
        shown = key if key.isidentifier() else repr(key)
        if key not in doc:
            return f"{shown} is missing, where this version writes {want[key]!r}"
        if key not in want:
            return f"{shown} is {doc[key]!r}, where this version writes no {shown}"
        if json.dumps(doc[key], sort_keys=True) != json.dumps(want[key], sort_keys=True):
            return f"{shown} is {doc[key]!r}, where this version writes {want[key]!r}"
    return None


def _mismatch(a: str, b: str) -> int:
    """The first index at which the unequal strings a and b differ, found a
    block at a time, so that no Python step runs per character before it."""
    at = next(at for at in count(0, 4096) if a[at : at + 4096] != b[at : at + 4096])
    a, b = a[at : at + 4096], b[at : at + 4096]
    return at + next(compress(count(), map(ne, a, b)), min(len(a), len(b)))


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
