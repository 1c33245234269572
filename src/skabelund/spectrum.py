"""Spectrum pipeline: enumerate descriptors, evaluate genera, verify tables.

The Singer square is evaluated once per nu-profile class (see singer.py),
not once per subgroup: genus spectra, verify_tables and the CSV, JSON and
table exports read the class tables alone.  Per-subgroup GenusRecords are
materialized only when SpectrumReport.records is read, afresh on each read:
SpectrumReport is a plain NamedTuple and caches nothing.  Every other
descriptor is evaluated on its own.

Each renderer has one row template, text_of(kind, lead, record) ->
(before, after), with lead the descriptor's parameters before the last one:
every row, of any kind, is before + str(last) + after.  _runs yields the
rows in catalog order as runs of (values of the last parameter, texts):
one run per Singer block, whose texts SingerSquare.walk formats once per
class, so its rows are joined without a Python frame per row, and one run
of one row per other record.

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
from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .catalog import (
    KINDS_BY_NAME,
    DescriptorKind,
    GenusRecord,
    SubgroupDescriptor,
    enumerate_non_singer_descriptors,
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
    singer: SingerSquare | None = None
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
        singer = self.singer.expand() if self.singer is not None else ()
        return (*singer, *self.other_records)

    @property
    def record_count(self) -> int:
        """len(records), counted from the class tables without expanding them."""
        singer = self.singer.count() if self.singer is not None else 0
        return singer + len(self.other_records)


def _evaluate(
    params: CurveParams, kinds
) -> tuple[SingerSquare | None, tuple[GenusRecord, ...]]:
    """Singer-square class tables (if sigma-cm is among kinds) and the records
    of every other descriptor of the given kinds."""
    singer = evaluate_singer_square(params) if _SINGER_KIND.name in kinds else None
    others = tuple(
        evaluate_descriptor(params, d)
        for d in enumerate_non_singer_descriptors(params)
        if kind_of(d).name in kinds
    )
    return singer, others


def _genera(singer: SingerSquare | None, others: tuple[GenusRecord, ...]) -> set[int]:
    genera = {r.genus for r in others}
    if singer is not None:
        genera |= singer.genera()
    return genera


def compute_spectrum(
    family: Family, s: int, family_filter: str | None = None
) -> SpectrumReport:
    """Evaluate every cataloged descriptor (optionally one kind only)."""
    params = make_params(family, s)
    kinds = tuple(KINDS_BY_NAME)
    if family_filter is not None:
        if family_filter not in kinds:
            raise ValueError(f"unknown subgroup family {family_filter!r}")
        kinds = (family_filter,)
    singer, others = _evaluate(params, kinds)
    covered = (_SINGER_KIND.name,) if singer is not None else ()
    covered += tuple(dict.fromkeys(kind_of(r.descriptor).name for r in others))
    return SpectrumReport(
        params=params,
        genera=tuple(sorted(_genera(singer, others))),
        families_covered=covered,
        completeness_note=COMPLETENESS_NOTE,
        singer=singer,
        other_records=others,
    )


# --- export ------------------------------------------------------------------


RowText = Callable[[DescriptorKind, Sequence[int], GenusRecord], tuple[str, str]]


def _runs(
    report: SpectrumReport, text_of: RowText
) -> Iterator[tuple[Sequence[int], Iterator[tuple[str, str]]]]:
    """The rows in catalog order, as runs of (values, texts): the row of the
    i-th value v writes str(v) between the (before, after) of the i-th text.
    text_of(kind, lead, record) gives the text of a row whose descriptor has
    the parameters (*lead, v).

    Each Singer block is one run over the valid a, its texts formatted once
    per class by SingerSquare.walk; every other record is a run of one row.
    """
    if report.singer is not None:
        walk = report.singer.walk(lambda n1, n2, r: text_of(_SINGER_KIND, (n1, n2), r))
        for _, _, values, texts in walk:
            yield values, texts
    for r in report.other_records:
        kind = kind_of(r.descriptor)
        *lead, last = kind.params(r.descriptor)
        yield (last,), (text_of(kind, lead, r),)


def _lines(report: SpectrumReport, text_of: RowText) -> Iterator[str]:
    """before + str(v) + after per row of _runs; str(v).join((before, after))
    assembles each row in map, so no Python frame runs per row."""
    return chain.from_iterable(
        map(str.join, map(str, values), texts) for values, texts in _runs(report, text_of)
    )


def render_csv(report: SpectrumReport) -> str:
    p = report.params
    prefix = f"{p.family.value},{p.s},{p.q},{p.m},"

    def text_of(kind, lead, r):
        # three parameter columns, unused slots left empty
        before = prefix + kind.name + "," + "".join(f"{x}," for x in lead)
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

    def text_of(kind, lead, r):
        before = (
            f'  {{\n   "delta": {r.delta},\n   "genus": {r.genus},'
            f'\n   "kind": {_JSON_KINDS[kind.name]},\n   "order": {r.order},'
            f'\n   "params": [\n    '
        )
        return before + "".join(f"{x},\n    " for x in lead), _JSON_RECORD_TAIL

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

    def text_of(kind, lead, r):
        # every kind name fits its 16 columns
        before = f"{kind.name:<16}" + "".join(f"{x}," for x in lead)
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


def validate_export(text: str) -> dict:
    """Parse a JSON export and re-check every record's Riemann-Hurwitz identity.

    Every value the identity reads must be an exact int (a float or bool
    would compare equal to one).  The types are checked on every record, the
    identity once per distinct (order, genus, delta); a failure names the
    first record that fails.  Any malformed document raises ValueError.
    """
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError(f"export is a JSON {type(doc).__name__}, not an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
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
    bad = {t for t in distinct if ambient != t[0] * (2 * t[1] - 2) + t[2]}
    if bad:
        entry = next(e for e, t in zip(records, zip(*columns)) if t in bad)
        raise ValueError(f"Riemann-Hurwitz identity fails for {entry}")
    genera = sorted({genus for _, genus, _ in distinct})
    if genera != doc["genera"] or set(map(type, doc["genera"])) - {int}:
        raise ValueError("genus spectrum does not match records")
    return doc


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
    """Check that each reference genus appears in the computed spectrum."""
    checks = []
    for table in tables:
        if table.s > s_max:
            continue
        params = make_params(table.family, table.s)
        genera = _genera(*_evaluate(params, table.kinds))
        missing = tuple(g for g in table.expected_genera if g not in genera)
        # ties broken toward the smaller genus, keeping reports deterministic
        nearest = tuple(min(sorted(genera), key=lambda got: abs(got - g)) for g in missing)
        checks.append(TableCheck(table=table, missing=missing, nearest=nearest))
    return checks


# --- oracle suite ------------------------------------------------------------


def run_oracle_suite(
    family: Family, s: int, max_elements: int | None = None
) -> list[OracleCheck]:
    """suite.run_oracle_suite; the suite and the oracle load on the first call."""
    from .suite import run_oracle_suite

    return run_oracle_suite(family, s, max_elements)
