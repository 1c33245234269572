"""Spectrum pipeline: enumerate descriptors, evaluate genera, verify tables.

The Singer square is evaluated once per nu-profile class (see singer.py),
not once per subgroup: genus spectra, verify_tables and the CSV, JSON and
table exports read the class tables alone.  Per-subgroup GenusRecords are
materialized only when SpectrumReport.records is read.  Every other
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
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .arith import divisors, valuation
from .catalog import (
    KINDS_BY_NAME,
    N2_SUBGROUP_ORDERS,
    DescriptorKind,
    GenusRecord,
    StandardExponents,
    SubgroupDescriptor,
    enumerate_non_singer_descriptors,
    enumerate_standard_exponents,
    kind_of,
    standard_exponent_blocks,
    standard_exponent_elements,
)
from .curves import CurveParams, Family, make_params, read_only, seven_divides_m
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

# the one kind evaluated by class tables rather than descriptor by descriptor
_SINGER_KIND = KINDS_BY_NAME["sigma-cm"]


def evaluate_descriptor(
    params: CurveParams, descriptor: SubgroupDescriptor
) -> GenusRecord:
    """Closed-form genus record for one descriptor."""
    return kind_of(descriptor).evaluate(params, descriptor)


class _SpectrumFields(NamedTuple):
    params: CurveParams
    genera: tuple[int, ...]  # sorted, deduplicated
    families_covered: tuple[str, ...]
    completeness_note: str
    singer: SingerSquare | None = None
    other_records: tuple[GenusRecord, ...] = ()


class SpectrumReport(_SpectrumFields):
    """A curve's genus spectrum; a tuple of its fields, with a __dict__ that
    caches records.  repr shows the first four fields only, and hash leaves
    out singer, whose class tables hold dicts (equality compares them)."""

    __setattr__ = __delattr__ = read_only

    def __hash__(self) -> int:
        return hash(self[:4] + self[5:])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:4], self))
        return f"SpectrumReport({shown})"

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


class OracleCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


SAMPLE_LIMIT = 60  # about this many Singer-square subgroups per oracle suite


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


def _verdict(
    name: str, bad: list[str], summary: str, cases: Sequence = (), cap: int | None = None
) -> OracleCheck:
    """FAIL naming every bad case, else PASS with the summary.  A check whose
    cases are capped (cap given) fails too when the cap left it no case."""
    if bad:
        return OracleCheck(name, False, "; ".join(bad))
    if cap is not None and not cases:
        return OracleCheck(name, False, f"{summary} (none within the element cap {cap})")
    return OracleCheck(name, True, summary)


def _tally(what: str, cases: list) -> str:
    return f"{what}: {len(cases)}" + (f", first {cases[0]}" if cases else "")


def run_oracle_suite(
    family: Family, s: int, max_elements: int | None = None
) -> list[OracleCheck]:
    """Every oracle-vs-formula equivalence for one curve, within caps.

    About SAMPLE_LIMIT Singer-square subgroups are checked.
    """
    params = make_params(family, s)
    cap = max_elements_cap(max_elements)
    checks: list[OracleCheck] = []

    sampled = sample_standard_exponents(params.m, cap, SAMPLE_LIMIT)
    # row scans of this curve, shared by the delta and congruence checks
    scans: dict = {}

    bad = []
    for se in sampled:
        formula = delta_sigma_cm(params, se)
        brute = delta_sigma_cm_bruteforce(params, se, max_elements=cap, scans=scans)
        if formula != brute:
            bad.append(f"{se}: formula {formula} != brute force {brute}")
    checks.append(
        _verdict(
            "singer-square delta: closed form vs element enumeration",
            bad,
            f"{len(sampled)} subgroups checked",
            sampled,
            cap,
        )
    )

    bad = []
    for se in sampled:
        for d in range(len(params.q_powers)):
            count = count_congruence_solutions(
                params, se, d, max_elements=cap, scans=scans
            )
            # the product prime by prime, not the gcd delta_sigma_cm takes,
            # so the count is checked against a formulation of its own
            x = se.n1 * params.q_powers[d] - se.a
            prod = 1
            for p, _e in params.m_factors:
                prod *= p ** int(min(valuation(p, x), valuation(p, se.n2)))
            if count * se.n1 * se.n2 != params.m * prod:
                bad.append(f"{se} d={d}: {count} vs {params.m * prod}")
    checks.append(
        _verdict(
            "congruence solution count: literal loop vs CRT product",
            bad,
            f"{len(sampled)} subgroups x {len(params.q_powers)} powers",
            sampled,
            cap,
        )
    )

    if params.m <= max_closure_m():
        subgroups = enumerate_subgroups_bruteforce(params.m)
        generated: set = set()
        extra, repeats = [], []
        for se in enumerate_standard_exponents(params.m):
            elements = standard_exponent_elements(params.m, se)
            if elements in generated:
                repeats.append(se)
            elif elements not in subgroups:
                extra.append(se)
            generated.add(elements)
        # missing subgroups are named by order, the smallest first
        missing = [f"of order {n}" for n in sorted(map(len, subgroups - generated))]
        tallies = [
            _tally("closure subgroups no triple generates", missing),
            _tally("generated sets not closure subgroups", extra),
            _tally("triples repeating an earlier subgroup", repeats),
        ]
        checks.append(
            _verdict(
                "subgroup enumeration: standard exponents vs closure",
                tallies if missing or extra or repeats else [],
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
            _verdict("B0 products: closed form vs census summation", bad, "all divisor pairs")
        )
    else:
        checks.extend(_ree_census_checks(params))
        if seven_divides_m(params):
            checks.append(_skew_check(params, cap))
    return checks


def _ree_census_checks(params: CurveParams) -> list[OracleCheck]:
    bad = []
    for tag in ("psl28", *(f"n2_{k_order}" for k_order in N2_SUBGROUP_ORDERS)):
        table = census(tag)
        realized = realize_census(tag)
        if dict(table.counts) != realized or sum(realized.values()) != table.group_order:
            bad.append(f"{tag}: table {dict(table.counts)} vs realized {realized}")
    checks = [
        _verdict("order censuses: tables vs permutation realizations", bad, "7 groups realized")
    ]

    bad = []
    for n in divisors(params.m):
        if genus_psl28(params, n).delta != delta_census("psl28", params, n):
            bad.append(f"psl28 n={n}")
        for k_order in N2_SUBGROUP_ORDERS:
            formula = genus_n2_nonskew(params, k_order, n).delta
            if formula != delta_census(f"n2_{k_order}", params, n):
                bad.append(f"n2_{k_order} n={n}")
    checks.append(
        _verdict("PSL(2,8)/N2 products: closed form vs census summation", bad, "all divisors of m")
    )
    return checks


def _skew_check(params: CurveParams, cap: int) -> OracleCheck:
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
    return _verdict(
        "skew subgroups: closed forms vs element-level census and reduction",
        bad,
        f"{len(pairs)} (i, w) pairs",
        pairs,
        cap,
    )
