"""Workloads of the pipeline benchmark: which curves each one runs, what one
operation on a curve does, and how its output is checked against the golden
values recorded in golden.json.

Every library call goes through an attribute lookup on the ``skabelund``
package at call time, so that the traced run sees the wrappers installed by
tracing.py.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Largest s in the quick setting used by the benchmark's own tests.
QUICK_MAX_S = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "export", "genera" or "oracle": selects the operation and golden section
    curves: tuple[tuple[str, int], ...]  # (family value, s)
    why: str


def _curves(family: str, s_max: int) -> tuple[tuple[str, int], ...]:
    return tuple((family, s) for s in range(1, s_max + 1))


# A pass must fit several times into one run, or its median is not steady:
# curves whose single pass takes 8 s or more are left out (Ree s=5 export,
# Suzuki s=5 and Ree s=5 oracle, Ree s=6 spectrum).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "export-sweep",
            "export",
            _curves("suzuki", 6) + _curves("ree", 4),
            "spectrum plus CSV/JSON rendering and validate_export per curve; "
            "the export path, no oracle code",
        ),
        Workload(
            "genera-sweep",
            "genera",
            _curves("suzuki", 7) + _curves("ree", 5),
            "spectrum genera only plus verify_tables, no exports; where "
            "evaluating once per genus class shows its full effect",
        ),
        Workload(
            "oracle-suzuki",
            "oracle",
            _curves("suzuki", 4),
            "Suzuki oracle suite for s=1..4; dominated by the B0 census "
            "summation (iota_suzuki), kernels a small share",
        ),
        Workload(
            "oracle-ree",
            "oracle",
            _curves("ree", 4),
            "Ree oracle suite for s=1..4; dominated by the congruence and "
            "element-count kernels",
        ),
    )
}


@dataclass(frozen=True)
class Operation:
    """One curve of a workload (or the verify_tables step of genera-sweep)."""

    kind: str
    key: str  # "suzuki-3", or "verify-tables"
    family: str | None
    s: int | None


def operations(workload: Workload, quick: bool) -> list[Operation]:
    ops = [
        Operation(workload.kind, f"{family}-{s}", family, s)
        for family, s in workload.curves
        if not quick or s <= QUICK_MAX_S
    ]
    if workload.kind == "genera":
        ops.append(Operation("verify", "verify-tables", None, None))
    return ops


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_operation(sk, op: Operation) -> tuple[float, object, dict[str, int]]:
    """Run one operation through the public library API.

    Returns the seconds spent in library calls, the outcome compared against
    the golden values, and work counts for the traced run.  Hashing and
    counting happen outside the timed region.
    """
    if op.kind == "verify":
        start = time.perf_counter()
        checks = sk.verify_tables()
        elapsed = time.perf_counter() - start
        outcome = [
            [c.table.source_table, c.table.family.value, c.table.s, list(c.missing)]
            for c in checks
        ]
        return elapsed, outcome, {}

    family = sk.Family(op.family)
    if op.kind == "oracle":
        start = time.perf_counter()
        checks = sk.run_oracle_suite(family, op.s)
        elapsed = time.perf_counter() - start
        outcome = [[c.name, c.ok, c.detail] for c in checks]
        return elapsed, outcome, {"oracle.checks": len(checks)}

    start = time.perf_counter()
    report = sk.compute_spectrum(family, op.s)
    if op.kind == "genera":
        genera = report.genera
        elapsed = time.perf_counter() - start
        outcome = list(genera)
        counts = {"spectrum.records": len(report.records), "spectrum.genera": len(genera)}
        return elapsed, outcome, counts

    csv_text = sk.render_csv(report)
    json_text = sk.render_json(report)
    sk.validate_export(json_text)
    elapsed = time.perf_counter() - start
    outcome = {"csv_sha256": sha256(csv_text), "json_sha256": sha256(json_text)}
    counts = {
        "spectrum.records": len(report.records),
        "spectrum.genera": len(report.genera),
        "spectrum.export_bytes": len(csv_text.encode()) + len(json_text.encode()),
    }
    return elapsed, outcome, counts


def golden_entry(golden: dict, op: Operation):
    section = "genera" if op.kind == "verify" else op.kind
    return golden[section].get(op.key)


def expected_operations(golden: dict, op: Operation) -> int:
    """How many operations one run of op counts: one per oracle check, else one."""
    if op.kind == "oracle":
        return max(1, len(golden_entry(golden, op) or ()))
    return 1


def check(golden: dict, op: Operation, outcome) -> tuple[int, int]:
    """(attempted, failed) for one operation's outcome against the golden values.

    An oracle curve counts one operation per check; a check missing from
    either side is a failure.  Every other operation counts once.
    """
    expected = golden_entry(golden, op)
    if op.kind != "oracle":
        return 1, int(outcome != expected)
    expected = expected or []
    attempted = max(len(outcome), len(expected), 1)
    matched = sum(1 for got, want in zip(outcome, expected) if got == want)
    return attempted, attempted - matched
