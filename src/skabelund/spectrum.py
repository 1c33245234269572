"""Spectrum pipeline: enumerate descriptors, evaluate genera, verify tables.

The Singer square is evaluated once per nu-profile class (see singer.py),
not once per subgroup: genus spectra, verify_tables and the CSV, JSON and
table exports read the class tables alone.  The exports are rendered from
SpectrumReport.rows(), which walks the tables in catalog order; per-subgroup
GenusRecords are materialized only when SpectrumReport.records is read.
Every other descriptor is evaluated on its own.

Output is deterministic: records follow the catalog enumeration order, the
genus spectrum is sorted and deduplicated, and both export formats (CSV and
JSON) are byte-stable across runs.  Reference genus tables are embedded as
data and verified by set membership - the published tables list only the
values that were new at the time, so computed spectra are supersets.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field

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

    def rows(self) -> Iterator[tuple[str, tuple[int, ...], int, int, int]]:
        """(kind, params, order, delta, genus) per descriptor, in the order of
        records, with params the used parameter slots; the Singer square is
        walked from its class tables, so no record is built."""
        if self.singer is not None:
            for n1, n2, pairs in self.singer.walk():
                for a, r in pairs:
                    yield "sigma-cm", (n1, n2, a), r.order, r.delta, r.genus
        for r in self.other_records:
            kind = kind_of(r.descriptor)
            yield kind.name, kind.params(r.descriptor), r.order, r.delta, r.genus


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


def render_csv(report: SpectrumReport) -> str:
    p = report.params
    prefix = f"{p.family.value},{p.s},{p.q},{p.m},"
    lines = [CSV_HEADER]
    for kind, params, order, delta, genus in report.rows():
        # three parameter columns, unused slots left empty
        cells = ",".join(map(str, params)) + "," * (3 - len(params))
        lines.append(f"{prefix}{kind},{cells},{order},{delta},{genus}")
    return "\n".join(lines) + "\n"


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
    kinds = {name: json.dumps(name) for name in KINDS_BY_NAME}
    records = []
    for kind, params, order, delta, genus in report.rows():
        items = ",\n    ".join(map(str, params))  # every kind has a parameter
        records.append(
            f'  {{\n   "delta": {delta},\n   "genus": {genus},'
            f'\n   "kind": {kinds[kind]},\n   "order": {order},'
            f'\n   "params": [\n    {items}\n   ]\n  }}'
        )
    if records:
        head = head.replace(
            '"records": []', '"records": [\n' + ",\n".join(records) + "\n ]", 1
        )
    return head + "\n"


def render_table(report: SpectrumReport) -> str:
    p = report.params
    head = (
        f"{p.family.value} s={p.s}: q={p.q}, m={p.m}, "
        f"{report.record_count} subgroups, {len(report.genera)} distinct genera"
    )
    rows = [head, ""]
    rows.append(f"{'kind':<16}{'params':<16}{'|H|':>12}{'delta':>16}{'genus':>16}")
    for kind, params, order, delta, genus in report.rows():
        ps = ",".join(map(str, params))
        rows.append(f"{kind:<16}{ps:<16}{order:>12}{delta:>16}{genus:>16}")
    rows.append("")
    rows.append("spectrum: " + ", ".join(str(g) for g in report.genera))
    return "\n".join(rows) + "\n"


def validate_export(text: str) -> dict:
    """Parse a JSON export and re-check every record's Riemann-Hurwitz identity."""
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    ambient = doc["ambient_degree"]
    for entry in doc["records"]:
        if ambient != entry["order"] * (2 * entry["genus"] - 2) + entry["delta"]:
            raise ValueError(f"Riemann-Hurwitz identity fails for {entry}")
    genera = sorted({entry["genus"] for entry in doc["records"]})
    if genera != doc["genera"]:
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


def sample_evenly(items: list, limit: int) -> list:
    """Deterministic sample: every k-th item so that at most ~limit survive,
    always keeping the first and last."""
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
    """Every oracle-vs-formula equivalence for one curve, within caps."""
    params = make_params(family, s)
    cap = max_elements_cap(max_elements)
    checks: list[OracleCheck] = []

    sampled = sample_standard_exponents(params.m, cap, sample_limit)

    bad = []
    for se in sampled:
        formula = delta_sigma_cm(params, se)
        brute = delta_sigma_cm_bruteforce(params, se, max_elements=cap)
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
            count = count_congruence_solutions(params, se, d, max_elements=cap)
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
