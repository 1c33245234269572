#!/usr/bin/env python3
"""Record golden.json: the outputs every benchmark operation is checked against.

    python3 pipebench/record_golden.py

Records, for the curves of every workload, the SHA-256 of each CSV and JSON
export, each genus tuple, the verify_tables result and each oracle check's
(name, ok, detail).  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys

from run import SRC, environment_error
from workloads import GOLDEN_PATH, WORKLOADS, operations, run_operation


def main() -> int:
    error = environment_error()
    if error:
        print(f"pipebench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skabelund as sk

    golden: dict[str, dict] = {"export": {}, "genera": {}, "oracle": {}}
    for workload in WORKLOADS.values():
        for op in operations(workload, quick=False):
            _, outcome, _ = run_operation(sk, op)
            golden[workload.kind][op.key] = outcome
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
