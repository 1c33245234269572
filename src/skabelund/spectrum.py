"""Spectrum pipeline: enumerate descriptors, evaluate genera, verify tables.

The Singer square is evaluated once per nu-profile class (see singer.py),
not once per subgroup: genus spectra, verify_tables and the CSV, JSON and
table exports read the class tables alone.  Each renderer formats one text
per class, the (before, after) of the row around the parameter a, and
SingerSquare.walk yields the class text of every subgroup in catalog order,
so a row is before + str(a) + after, joined without a Python frame per row.
Per-subgroup GenusRecords are materialized only when SpectrumReport.records
is read.  Every other descriptor is evaluated on its own and rendered by its
renderer's per-record format.

Output is deterministic: records follow the catalog enumeration order, the
genus spectrum is sorted and deduplicated, and both export formats (CSV and
JSON) are byte-stable across runs.  Reference genus tables are embedded as
data and verified by set membership - the published tables list only the
values that were new at the time, so computed spectra are supersets.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter

from .arith import divisors, valuation
from .catalog import (
    KINDS,
    KINDS_BY_NAME,
    N2_SUBGROUP_ORDERS,
    GenusRecord,
    StandardExponents,
    SubgroupDescriptor,
    enumerate_non_singer_descriptors,
    enumerate_standard_exponents,
    kind_of,
    standard_exponent_blocks,
    standard_exponent_elements,
)
from .curves import CurveParams, Family, make_params, seven_divides_m
from .genus_ree import (
    genus_n2_nonskew,
    genus_n2_skew_cyclic,
    genus_n2_skew_full,
    genus_psl28,
    genus_sigma_cm_ree,
)
from .genus_suzuki import genus_b0_cyclic, genus_b0_dihedral
from .iota import census
from .oracle import (
    count_congruence_solutions,
    delta_b0_census,
    delta_census,
    delta_sigma_cm_bruteforce,
    delta_skew_census,
    enumerate_subgroups_bruteforce,
    max_closure_m,
    max_elements_cap,
    realize_census,
)
from .singer import SingerSquare, delta_sigma_cm, evaluate_singer_square

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


DESCRIPTOR_KINDS = {kind.cls: kind.name for kind in KINDS}


def descriptor_kind(descriptor: SubgroupDescriptor) -> str:
    return kind_of(descriptor).name


def descriptor_params(descriptor: SubgroupDescriptor) -> tuple[int | None, ...]:
    """The (param1, param2, param3) columns; unused slots are None."""
    params = kind_of(descriptor).params(descriptor)
    return params + (None,) * (3 - len(params))


def evaluate_descriptor(
    params: CurveParams, descriptor: SubgroupDescriptor
) -> GenusRecord:
    """Closed-form genus record for one descriptor."""
    return kind_of(descriptor).evaluate(params, descriptor)


@dataclass(frozen=True)
class SpectrumReport:
    params: CurveParams
    genera: tuple[int, ...]  # sorted, deduplicated
    families_covered: tuple[str, ...]
    completeness_note: str
    # class tables hold dicts: compared, but left out of the hash
    singer: SingerSquare | None = field(default=None, repr=False, hash=False)
    other_records: tuple[GenusRecord, ...] = field(default=(), repr=False)

    @functools.cached_property
    def records(self) -> tuple[GenusRecord, ...]:
        """One record per descriptor in catalog enumeration order, expanded
        from the Singer-square class tables on first access."""
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
    singer = evaluate_singer_square(params) if "sigma-cm" in kinds else None
    others = tuple(
        evaluate_descriptor(params, d)
        for d in enumerate_non_singer_descriptors(params)
        if descriptor_kind(d) in kinds
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
    covered = ("sigma-cm",) if singer is not None else ()
    covered += tuple(dict.fromkeys(descriptor_kind(r.descriptor) for r in others))
    return SpectrumReport(
        params=params,
        genera=tuple(sorted(_genera(singer, others))),
        families_covered=covered,
        completeness_note=COMPLETENESS_NOTE,
        singer=singer,
        other_records=others,
    )


# --- export ------------------------------------------------------------------


def _singer_lines(
    report: SpectrumReport, text_of: Callable[[int, int, GenusRecord], tuple[str, str]]
) -> Iterator[str]:
    """One line per Singer-square subgroup, in catalog order: before + str(a)
    + after, with text_of(n1, n2, record) the (before, after) of a's class.

    The texts are formatted once per class; str(a).join((before, after))
    assembles each line in map, so no Python frame runs per subgroup.
    """
    if report.singer is None:
        return iter(())
    return chain.from_iterable(
        map(str.join, map(str, values), texts)
        for _, _, values, texts in report.singer.walk(text_of)
    )


def render_csv(report: SpectrumReport) -> str:
    p = report.params
    prefix = f"{p.family.value},{p.s},{p.q},{p.m},"

    def singer_text(n1, n2, r):
        return f"{prefix}sigma-cm,{n1},{n2},", f",{r.order},{r.delta},{r.genus}"

    lines = [CSV_HEADER]
    lines.extend(_singer_lines(report, singer_text))
    for r in report.other_records:
        kind = kind_of(r.descriptor)
        params = kind.params(r.descriptor)
        # three parameter columns, unused slots left empty
        cells = ",".join(map(str, params)) + "," * (3 - len(params))
        lines.append(f"{prefix}{kind.name},{cells},{r.order},{r.delta},{r.genus}")
    lines.append("")  # the final newline, without copying the text once more
    return "\n".join(lines)


_JSON_KINDS = {name: json.dumps(name) for name in KINDS_BY_NAME}
_JSON_RECORD_TAIL = "\n   ]\n  }"


def _json_record_head(kind: str, r: GenusRecord) -> str:
    """A JSON record up to its first parameter (keys sorted, depth 2)."""
    return (
        f'  {{\n   "delta": {r.delta},\n   "genus": {r.genus},'
        f'\n   "kind": {_JSON_KINDS[kind]},\n   "order": {r.order},'
        f'\n   "params": [\n    '
    )


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

    def singer_text(n1, n2, r):
        return _json_record_head("sigma-cm", r) + f"{n1},\n    {n2},\n    ", _JSON_RECORD_TAIL

    records = list(_singer_lines(report, singer_text))
    for r in report.other_records:
        kind = kind_of(r.descriptor)
        items = ",\n    ".join(map(str, kind.params(r.descriptor)))  # never empty
        records.append(_json_record_head(kind.name, r) + items + _JSON_RECORD_TAIL)
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

    def singer_text(n1, n2, r):
        return f"{'sigma-cm':<16}{n1},{n2},", f"{r.order:>12}{r.delta:>16}{r.genus:>16}"

    if report.singer is not None:
        for n1, n2, values, texts in report.singer.walk(singer_text):
            # the row is (before + str(a)).ljust(32) + after; "sigma-cm" fits
            # its 16 columns, so before is 16 + len(f"{n1},{n2},") long
            width = 16 - len(f"{n1},{n2},")
            rows.extend(map(str.join, map(str.ljust, map(str, values), repeat(width)), texts))
    for r in report.other_records:
        kind = kind_of(r.descriptor)
        ps = ",".join(map(str, kind.params(r.descriptor)))
        rows.append(f"{kind.name:<16}{ps:<16}{r.order:>12}{r.delta:>16}{r.genus:>16}")
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


@dataclass(frozen=True)
class ReferenceTable:
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


@dataclass(frozen=True)
class TableCheck:
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


@dataclass(frozen=True)
class OracleCheck:
    name: str
    ok: bool
    detail: str


def _check_sample_limit(limit: int) -> None:
    if limit < 1:
        raise ValueError(f"sample limit must be at least 1, got {limit}")


def sample_evenly(items: list, limit: int) -> list:
    """Deterministic sample: every k-th item so that at most ~limit survive,
    always keeping the first and last.  limit must be at least 1."""
    _check_sample_limit(limit)
    if len(items) <= limit:
        return list(items)
    stride = max(1, len(items) // limit)
    picked = items[::stride]
    if items[-1] != picked[-1]:
        picked.append(items[-1])
    return picked


def sample_standard_exponents(m: int, cap: int, limit: int) -> list[StandardExponents]:
    """sample_evenly(triples, limit) over the standard-exponent triples of
    order <= cap, in enumerate_standard_exponents order, without listing them.

    Each (n1, n2) block is a run of n2/step triples of one order, so the
    picked indices (every stride-th, plus the last) are located block by
    block and only the picked triples are built.
    """
    _check_sample_limit(limit)
    blocks = [
        (n1, n2, step)
        for n1, n2, step in standard_exponent_blocks(m)
        if m * m // (n1 * n2) <= cap
    ]
    total = sum(n2 // step for _, n2, step in blocks)
    stride = max(1, total // limit) if total > limit else 1
    picked = []
    start = 0  # index of the block's first triple
    for n1, n2, step in blocks:
        size = n2 // step
        first = -start % stride  # offset of the block's first picked triple
        picked.extend(StandardExponents(n1, n2, j * step) for j in range(first, size, stride))
        start += size
    if (total - 1) % stride:
        n1, n2, step = blocks[-1]
        picked.append(StandardExponents(n1, n2, n2 - step))
    return picked


def _none_within(cap: int, cases: list) -> str:
    """Explains a check that covered no case; such a check fails."""
    return "" if cases else f" (none within the element cap {cap})"


def run_oracle_suite(
    family: Family,
    s: int,
    max_elements: int | None = None,
    sample_limit: int = 60,
) -> list[OracleCheck]:
    """Every oracle-vs-formula equivalence for one curve, within caps.

    sample_limit (at least 1) bounds the Singer-square subgroups checked.
    """
    params = make_params(family, s)
    cap = max_elements_cap(max_elements)
    checks: list[OracleCheck] = []

    sampled = sample_standard_exponents(params.m, cap, sample_limit)
    # row scans of this curve, shared by the delta and congruence checks
    scans: dict = {}

    bad = []
    for se in sampled:
        formula = delta_sigma_cm(params, se)
        brute = delta_sigma_cm_bruteforce(params, se, max_elements=cap, scans=scans)
        if formula != brute:
            bad.append(f"{se}: formula {formula} != brute force {brute}")
    checks.append(
        OracleCheck(
            "singer-square delta: closed form vs element enumeration",
            bool(sampled) and not bad,
            f"{len(sampled)} subgroups checked{_none_within(cap, sampled)}"
            if not bad
            else "; ".join(bad),
        )
    )

    bad = []
    for se in sampled:
        for d in range(len(params.q_powers)):
            count = count_congruence_solutions(
                params, se, d, max_elements=cap, scans=scans
            )
            x = se.n1 * params.q_powers[d] - se.a
            prod = 1
            for p, _e in params.m_factors:
                prod *= p ** int(min(valuation(p, x), valuation(p, se.n2)))
            if count * se.n1 * se.n2 != params.m * prod:
                bad.append(f"{se} d={d}: {count} vs {params.m * prod}")
    checks.append(
        OracleCheck(
            "congruence solution count: literal loop vs CRT product",
            bool(sampled) and not bad,
            f"{len(sampled)} subgroups x {len(params.q_powers)} powers"
            f"{_none_within(cap, sampled)}"
            if not bad
            else "; ".join(bad),
        )
    )

    if params.m <= max_closure_m():
        subgroups = enumerate_subgroups_bruteforce(params.m)
        triples = enumerate_standard_exponents(params.m)
        generated = {standard_exponent_elements(params.m, se) for se in triples}
        ok = generated == subgroups and len(generated) == len(triples)
        checks.append(
            OracleCheck(
                "subgroup enumeration: standard exponents vs closure",
                ok,
                f"{len(subgroups)} subgroups of C_{params.m} x C_{params.m}",
            )
        )

    if family is Family.SUZUKI:
        bad = []
        for d in divisors(params.q - 1):
            for n in divisors(params.m):
                if genus_b0_cyclic(params, d, n).delta != delta_b0_census(
                    params, d, n, dihedral=False
                ):
                    bad.append(f"cyclic d={d} n={n}")
                if genus_b0_dihedral(params, d, n).delta != delta_b0_census(
                    params, d, n, dihedral=True
                ):
                    bad.append(f"dihedral d={d} n={n}")
        checks.append(
            OracleCheck(
                "B0 products: closed form vs census summation",
                not bad,
                "all divisor pairs" if not bad else "; ".join(bad),
            )
        )
    else:
        checks.extend(_ree_census_checks(params))
        if seven_divides_m(params):
            checks.extend(_skew_checks(params, cap))
    return checks


def _ree_census_checks(params: CurveParams) -> list[OracleCheck]:
    checks = []
    bad = []
    for tag in ("psl28", *(f"n2_{k_order}" for k_order in N2_SUBGROUP_ORDERS)):
        table = census(tag)
        realized = realize_census(tag)
        if dict(table.counts) != realized or sum(realized.values()) != table.group_order:
            bad.append(f"{tag}: table {dict(table.counts)} vs realized {realized}")
    checks.append(
        OracleCheck(
            "order censuses: tables vs permutation realizations",
            not bad,
            "7 groups realized" if not bad else "; ".join(bad),
        )
    )

    bad = []
    for n in divisors(params.m):
        cosets: dict = {}  # coset sums of this n, shared by the seven groups
        if genus_psl28(params, n).delta != delta_census("psl28", params, n, cosets):
            bad.append(f"psl28 n={n}")
        for k_order in N2_SUBGROUP_ORDERS:
            formula = genus_n2_nonskew(params, k_order, n).delta
            if formula != delta_census(f"n2_{k_order}", params, n, cosets):
                bad.append(f"n2_{k_order} n={n}")
    checks.append(
        OracleCheck(
            "PSL(2,8)/N2 products: closed form vs census summation",
            not bad,
            "all divisors of m" if not bad else "; ".join(bad),
        )
    )
    return checks


def _skew_checks(params: CurveParams, cap: int) -> list[OracleCheck]:
    checks = []
    bad = []
    pairs = [
        (i, w)
        for w in divisors(params.m // 7)
        for i in range(1, 7)
        if 56 * (params.m // (7 * w)) <= cap
    ]
    for i, w in pairs:
        full = genus_n2_skew_full(params, i, w)
        cyclic = genus_n2_skew_cyclic(params, i, w)
        if full.delta != delta_skew_census(params, "full", i, w):
            bad.append(f"full i={i} w={w}")
        if cyclic.delta != delta_skew_census(params, "cyclic", i, w):
            bad.append(f"cyclic i={i} w={w}")
        n1 = params.m // 7
        reduced = genus_sigma_cm_ree(
            params, StandardExponents(n1, 7 * w, (i * w) % (7 * w))
        )
        if (cyclic.genus, cyclic.delta) != (reduced.genus, reduced.delta):
            bad.append(f"cyclic-reduction i={i} w={w}")
        if full.genus != genus_n2_skew_full(params, 1, w).genus:
            bad.append(f"i-dependence i={i} w={w}")
    checks.append(
        OracleCheck(
            "skew subgroups: closed forms vs element-level census and reduction",
            bool(pairs) and not bad,
            f"{len(pairs)} (i, w) pairs{_none_within(cap, pairs)}" if not bad else "; ".join(bad),
        )
    )
    return checks
