#!/usr/bin/env python3
"""Pipeline benchmark for skabelund: the user-facing runs timed end to end
and, in a separate traced run, per layer.

Run from anywhere inside a source checkout (the package is imported from the
checkout's ``src`` directory; nothing needs to be installed or built):

    python3 pipebench/run.py --workload genera-sweep --seed 1 --seconds 28 --trace 0
    python3 pipebench/run.py --workload all --quick --seconds 1

Each workload runs in one single-threaded process as a closed loop with one
caller: passes over the workload's curves back to back, each pass in an order
shuffled from ``--seed``, until ``--seconds`` would be exceeded (at least
three passes).  Every operation is checked against golden.json; a mismatch
or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing skabelund plus make_params and m_factors for
every curve of the workload), ``wall_s`` (median pass time) and
``peak_rss_mb``.  Both times are rescaled to a reference core speed by the
probe in probe.py, because the raw times on a shared machine spread too far
between runs to gate a change; the raw medians and quartiles and each pass's
speed factor are printed beside them.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of tracing.py (raw span
times, with the speed factor as ``probe.speed_factor``), the tracing
overhead, and the captured kernel calls replayed on every available kernel
backend.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from probe import SpeedProbe
from workloads import (
    GOLDEN_PATH,
    WORKLOADS,
    check,
    expected_operations,
    operations,
    run_operation,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Either variable silently changes how much work the oracle does.
CAP_VARIABLES = ("SKABELUND_MAX_ELEMENTS", "SKABELUND_MAX_CLOSURE_M")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))

MIN_PASSES = 3
SETUP_REPEATS = 11
QUICK_SETUP_REPEATS = 3

SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from probe import SpeedProbe
curves = [(c.split(":")[0], int(c.split(":")[1])) for c in sys.argv[3].split(",")]
with SpeedProbe(interval=0.001) as probe:
    start = time.perf_counter()
    import skabelund
    for family, s in curves:
        skabelund.make_params(skabelund.Family(family), s).m_factors
    raw = time.perf_counter() - start
    print(raw, raw * probe.factor())
"""


def environment_error() -> str | None:
    if not (SRC / "skabelund" / "__init__.py").is_file():
        return f"no skabelund source tree at {SRC}"
    for name in CAP_VARIABLES:
        if name in os.environ:
            return f"{name} is set; unset it, it changes the oracle's work"
    return None


class Samples:
    """Raw times and the same times at reference core speed (probe.py)."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, raw: float, scaled: float) -> None:
        self.raw.append(raw)
        self.scaled.append(scaled)

    def median(self) -> float:
        return statistics.median(self.scaled)

    def describe(self) -> str:
        return f"{spread(self.scaled)} at reference speed; raw {spread(self.raw)}"


def measure_setup(curves: list[tuple[str, int]], repeats: int) -> Samples:
    """Setup time in fresh interpreters; one unmeasured start first fills the
    bytecode cache."""
    spec = ",".join(f"{family}:{s}" for family, s in curves)
    samples = Samples()
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), spec],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        raw, scaled = map(float, done.stdout.split())
        if i:
            samples.add(raw, scaled)
    return samples


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_pass(sk, ops, rng, golden, tally, tracer=None) -> float:
    """One pass over ops in a seed-shuffled order; returns the seconds spent
    in library calls."""
    order = list(ops)
    rng.shuffle(order)
    total = 0.0
    for op in order:
        if tracer is not None:
            tracer.curve = op.key
        try:
            elapsed, outcome, counts = run_operation(sk, op)
        except Exception as exc:  # a failing operation is counted, the run goes on
            print(f"pipebench: {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            n = expected_operations(golden, op)
            tally.attempted += n
            tally.failed += n
            continue
        total += elapsed
        attempted, failed = check(golden, op, outcome)
        tally.attempted += attempted
        tally.failed += failed
        if failed:
            print(f"pipebench: {op.key}: output differs from golden.json", file=sys.stderr)
        if tracer is not None:
            tracer.add_counts(counts)
    return total


def spread(samples: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return (
        f"median {statistics.median(samples):.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, "
        f"n={len(samples)})"
    )


def timed_pass(probe, walls: Samples, *args, **kwargs) -> None:
    probe.factor()  # drop samples taken between passes
    raw = run_pass(*args, **kwargs)
    walls.add(raw, raw * probe.factor())


def measure_untraced(sk, ops, rng, golden, tally, seconds) -> Samples:
    walls = Samples()
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            timed_pass(probe, walls, sk, ops, rng, golden, tally)
            elapsed = time.perf_counter() - start
            if len(walls.raw) >= MIN_PASSES and elapsed + statistics.median(walls.raw) > seconds:
                return walls


def measure_traced(sk, workload, ops, rng, golden, tally, seconds):
    """Alternate untraced and traced passes; returns the per-layer metrics."""
    tracer = tracing.Tracer()
    untraced = Samples()
    traced = Samples()
    per_pass: list[dict[str, float]] = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            timed_pass(probe, untraced, sk, ops, rng, golden, tally)
            tracer.capture_kernels = not per_pass
            with tracer:
                timed_pass(probe, traced, sk, ops, rng, golden, tally, tracer)
            metrics, by_curve = tracer.take_pass(traced.raw[-1])
            metrics["probe.speed_factor"] = traced.scaled[-1] / traced.raw[-1]
            per_pass.append(metrics)
            # the kernel calls captured in the first traced pass are replayed last
            replay = sum(per_pass[0][f"kernels.{k}.s"] for k in tracing.KERNELS)
            rest = statistics.median(untraced.raw) + statistics.median(traced.raw) + replay
            if time.perf_counter() - start + rest > seconds:
                break

    metrics = tracing.median_metrics(per_pass)
    metrics["trace.wall_s"] = traced.median()
    metrics["trace.overhead_s"] = traced.median() - untraced.median()
    print(f"untraced wall_s: {untraced.describe()}")
    print(f"traced wall_s: {traced.describe()}")
    print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass at reference speed")

    print("top spans of the last traced pass by self time (curve, span, calls, self s, incl s):")
    ranked = sorted(by_curve.items(), key=lambda item: -item[1][2])
    for (curve, name), (calls, incl, self_time) in ranked[:12]:
        print(f"  {curve:<14}{name:<40}{calls:>9}{self_time:>11.4f}{incl:>11.4f}")

    share, predicate, text = tracing.DOMINANT[workload.name]
    verdict = "confirmed" if predicate(metrics[share]) else "NOT confirmed"
    print(f"dominant layer: {share} = {metrics[share]:.3f} (expected {text}) {verdict}")

    backends = sk._kernels.available_backends()
    timings, mismatches = tracing.replay_kernels(tracer.kernel_calls, backends)
    absent = sorted({"pure", "compiled"} - set(backends))
    print(
        f"kernel replay of {len(tracer.kernel_calls)} captured calls on: "
        f"{', '.join(backends)}; absent: {', '.join(absent) or 'none'}"
    )
    for backend, spent in timings.items():
        row = ", ".join(f"{kernel} {spent[kernel]:.4f} s" for kernel in tracing.KERNELS)
        print(f"  {backend}: {row}")
    if mismatches:
        print(f"pipebench: {mismatches} replayed kernel results differ", file=sys.stderr)
    for kernel in tracing.KERNELS:
        metrics[f"replay.pure.{kernel}.s"] = timings["pure"][kernel]
    return metrics, mismatches


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    ops = operations(workload, args.quick)
    golden = json.loads(GOLDEN_PATH.read_text())

    sys.path.insert(0, str(SRC))
    import skabelund as sk
    from skabelund.oracle import max_closure_m, max_elements_cap

    conditions = {
        "workload": workload.name,
        "curves": [op.key for op in ops],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": sk.kernel_backend,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "max_elements": max_elements_cap(),
        "max_closure_m": max_closure_m(),
    }
    print("conditions: " + json.dumps(conditions))

    rng = random.Random(args.seed)
    tally = Tally()
    mismatches = 0
    if args.trace:
        values, mismatches = measure_traced(sk, workload, ops, rng, golden, tally, args.seconds)
        units = tracing.per_layer_metrics()
    else:
        curves = [(op.family, op.s) for op in ops if op.family is not None]
        setup = measure_setup(curves, QUICK_SETUP_REPEATS if args.quick else SETUP_REPEATS)
        walls = measure_untraced(sk, ops, rng, golden, tally, args.seconds)
        values = {
            "setup_s": setup.median(),
            "wall_s": walls.median(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"setup_s: {setup.describe()}")
        print(f"wall_s: {walls.describe()}")
        print("raw pass times (s): " + " ".join(f"{w:.4f}" for w in walls.raw))
        print("speed factors: " + " ".join(f"{s / r:.3f}" for s, r in zip(walls.scaled, walls.raw)))
        print(f"peak_rss_mb: {values['peak_rss_mb']:.1f} MiB")
    print(
        f"fail_rate: {tally.failed / tally.attempted:.4f} "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    result = {
        "correct": tally.failed == 0 and mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable,
            __file__,
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        print(f"== {name}")
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"pipebench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.splitlines()[-1])

    print("== summary")
    if args.trace:
        print(f"{'workload':<16}" + "".join(f"{s:>24}" for s in tracing.SHARES))
        for name, result in results.items():
            m = result["metrics"]
            print(f"{name:<16}" + "".join(f"{m[s]['value']:>24.3f}" for s in tracing.SHARES))
    else:
        header = f"{'workload':<16}{'setup_s (s)':>14}{'wall_s (s)':>14}"
        print(header + f"{'peak_rss_mb (MiB)':>20}{'fail_rate':>12}")
        for name, result in results.items():
            m = result["metrics"]
            print(
                f"{name:<16}{m['setup_s']['value']:>14.4f}{m['wall_s']['value']:>14.4f}"
                f"{m['peak_rss_mb']['value']:>20.1f}"
                f"{result['failed'] / result['attempted']:>12.4f}"
            )
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="shuffles the curve order")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="only the s <= 2 curves of each workload"
    )
    args = parser.parse_args(argv)

    error = environment_error()
    if error:
        print(f"pipebench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
