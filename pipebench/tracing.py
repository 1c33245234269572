"""Traced run of the pipeline benchmark: spans and counts around each layer.

The tracer wraps public functions of ``skabelund`` from outside the package.
A function name is bound at every ``from ... import`` site, so install()
replaces the original object wherever any loaded ``skabelund`` module holds
it (``delta_sigma_cm`` sits in singer, genus_suzuki, genus_ree and spectrum;
``iota_suzuki`` in iota and oracle).  The kernels are looked up on the
``skabelund._kernels`` module at call time and are patched there.

Spans are aggregated in memory per (curve, span name) as call count,
inclusive time and self time (inclusive time minus the time of child spans).
Hot leaf functions (``valuation``, ``iota_*``) are only counted: spanning
2 million calls would distort the layers above them.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, functions of that module grouped under the name);
# metric names must start with a letter, so skabelund._kernels is "kernels"
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "curves.make_params": ("skabelund.curves", ("make_params",)),
    "arith.factorize": ("skabelund.arith", ("factorize",)),
    "catalog.enumerate_descriptors": ("skabelund.catalog", ("enumerate_descriptors",)),
    "spectrum.compute_spectrum": ("skabelund.spectrum", ("compute_spectrum",)),
    "spectrum.evaluate_descriptor": ("skabelund.spectrum", ("evaluate_descriptor",)),
    "genus_suzuki": (
        "skabelund.genus_suzuki",
        ("genus_sigma_cm_suzuki", "genus_b0_cyclic", "genus_b0_dihedral"),
    ),
    "genus_ree": (
        "skabelund.genus_ree",
        (
            "genus_sigma_cm_ree",
            "genus_psl28",
            "genus_n2_nonskew",
            "genus_n2_skew_full",
            "genus_n2_skew_cyclic",
        ),
    ),
    "singer.delta_sigma_cm": ("skabelund.singer", ("delta_sigma_cm",)),
    "catalog.make_record": ("skabelund.catalog", ("make_record",)),
    "spectrum.render_csv": ("skabelund.spectrum", ("render_csv",)),
    "spectrum.render_json": ("skabelund.spectrum", ("render_json",)),
    "spectrum.validate_export": ("skabelund.spectrum", ("validate_export",)),
    "spectrum.verify_tables": ("skabelund.spectrum", ("verify_tables",)),
    "spectrum.run_oracle_suite": ("skabelund.spectrum", ("run_oracle_suite",)),
    "oracle.delta_sigma_cm_bruteforce": ("skabelund.oracle", ("delta_sigma_cm_bruteforce",)),
    "oracle.count_congruence_solutions": ("skabelund.oracle", ("count_congruence_solutions",)),
    "oracle.enumerate_subgroups_bruteforce": (
        "skabelund.oracle",
        ("enumerate_subgroups_bruteforce",),
    ),
    "oracle.delta_b0_census": ("skabelund.oracle", ("delta_b0_census",)),
    "oracle.delta_census": ("skabelund.oracle", ("delta_census",)),
    "oracle.delta_skew_census": ("skabelund.oracle", ("delta_skew_census",)),
    "oracle.realize_census": ("skabelund.oracle", ("realize_census",)),
    "kernels.sigma_cm_iota_counts": ("skabelund._kernels", ("sigma_cm_iota_counts",)),
    "kernels.congruence_count": ("skabelund._kernels", ("congruence_count",)),
    "kernels.cm_subgroups": ("skabelund._kernels", ("cm_subgroups",)),
}

# counter name -> (module, function): calls counted, not timed
COUNTED: dict[str, tuple[str, str]] = {
    "arith.valuation.calls": ("skabelund.arith", "valuation"),
    "iota.iota_suzuki.calls": ("skabelund.iota", "iota_suzuki"),
    "iota.iota_ree.calls": ("skabelund.iota", "iota_ree"),
}

KERNELS = ("sigma_cm_iota_counts", "congruence_count", "cm_subgroups")

# One oracle case is one call of a brute-force recomputation.
ORACLE_CASES = tuple(name for name in SPANS if name.startswith("oracle."))

# work counts derived from a span's arguments or result
WORK: dict[str, tuple[str, object]] = {
    "catalog.enumerate_descriptors": ("catalog.descriptors", lambda args, result: len(result)),
    "kernels.sigma_cm_iota_counts": (
        "kernels.sigma_cm_iota_counts.elements",
        lambda args, result: (args[0] // args[1]) * (args[0] // args[2]),
    ),
    "kernels.congruence_count": (
        "kernels.congruence_count.pairs",
        lambda args, result: (args[0] // args[1]) * (args[0] // args[2]),
    ),
}

# counts reported by the workload operations themselves
OPERATION_COUNTS = (
    "spectrum.records",
    "spectrum.genera",
    "spectrum.export_bytes",
    "oracle.checks",
)

# share of a traced pass spent in a group of spans (inclusive time)
SHARES: dict[str, tuple[str, ...]] = {
    "share.render_validate": (
        "spectrum.render_csv",
        "spectrum.render_json",
        "spectrum.validate_export",
    ),
    "share.delta_b0_census": ("oracle.delta_b0_census",),
    "share.kernels": ("kernels.congruence_count", "kernels.sigma_cm_iota_counts"),
}

# The layer each workload is expected to spend its time in, as a share
# (predicate, text) checked in the traced run.
DOMINANT = {
    "export-sweep": ("share.render_validate", lambda x: x >= 0.3, ">= 0.3"),
    "genera-sweep": ("share.render_validate", lambda x: x == 0, "== 0"),
    "oracle-suzuki": ("share.delta_b0_census", lambda x: x >= 0.5, ">= 0.5"),
    "oracle-ree": ("share.kernels", lambda x: x >= 0.5, ">= 0.5"),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    out = []
    for name in SPANS:
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [(name, "count") for name in COUNTED]
    out += [(counter, "count") for counter, _ in WORK.values()]
    out += [(name, "bytes" if name.endswith("bytes") else "count") for name in OPERATION_COUNTS]
    out += [("oracle.cases_checked", "count"), ("spectrum.records_per_genus", "ratio")]
    out += [(name, "fraction") for name in SHARES]
    out += [(f"replay.pure.{k}.s", "s") for k in KERNELS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("probe.speed_factor", "ratio")]
    return out


class Tracer:
    """Wraps skabelund functions while installed and aggregates spans per pass."""

    def __init__(self) -> None:
        self.curve = ""
        self.capture_kernels = False
        self.kernel_calls: list[tuple[str, tuple, object]] = []
        self._stack: list[float] = []
        self._spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        perf = time.perf_counter
        stack = self._stack
        spans = self._spans
        counts = self._counts
        work = WORK.get(name)
        kernel = name[len("kernels."):] if name.startswith("kernels.") else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = spans[(self.curve, name)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
            if work is not None:
                counts[work[0]] += work[1](args, result)
            if kernel is not None and self.capture_kernels:
                self.kernel_calls.append((kernel, args, result))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "skabelund" and not module_name.startswith("skabelund."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for name, (module_name, functions) in SPANS.items():
            module = sys.modules[module_name]
            for function in functions:
                original = getattr(module, function)
                self._patch_everywhere(original, self._span(name, original))
        for name, (module_name, function) in COUNTED.items():
            original = getattr(sys.modules[module_name], function)
            self._patch_everywhere(original, self._counter(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- aggregation -----------------------------------------------------------

    def add_counts(self, counts: dict[str, int]) -> None:
        for name, value in counts.items():
            self._counts[name] += value

    def take_pass(self, wall: float) -> tuple[dict[str, float], dict[tuple[str, str], list]]:
        """Per-layer metrics of the pass just traced, and its per-curve spans;
        resets the aggregates for the next pass."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_curve, name), (calls, incl, self_time) in self._spans.items():
            total = totals[name]
            total[0] += calls
            total[1] += incl
            total[2] += self_time
        metrics: dict[str, float] = {}
        for name in SPANS:
            calls, incl, self_time = totals.get(name, (0, 0.0, 0.0))
            metrics[f"{name}.s"] = incl
            metrics[f"{name}.self_s"] = self_time
            metrics[f"{name}.calls"] = calls
        for name in COUNTED:
            metrics[name] = self._counts.get(name, 0)
        for counter, _ in WORK.values():
            metrics[counter] = self._counts.get(counter, 0)
        for name in OPERATION_COUNTS:
            metrics[name] = self._counts.get(name, 0)
        metrics["oracle.cases_checked"] = sum(metrics[f"{n}.calls"] for n in ORACLE_CASES)
        genera = metrics["spectrum.genera"]
        metrics["spectrum.records_per_genus"] = metrics["spectrum.records"] / genera if genera else 0
        for share, names in SHARES.items():
            metrics[share] = sum(metrics[f"{n}.s"] for n in names) / wall if wall else 0
        by_curve = dict(self._spans)
        self._spans.clear()
        self._counts.clear()
        return metrics, by_curve


def replay_kernels(kernel_calls, backends: dict[str, object]):
    """Time the captured kernel calls on each backend and check each result
    against the one the traced run got.  Returns ({backend: {kernel: s}},
    number of mismatching results)."""
    timings: dict[str, dict[str, float]] = {}
    mismatches = 0
    for backend, module in backends.items():
        spent = dict.fromkeys(KERNELS, 0.0)
        for kernel, args, expected in kernel_calls:
            fn = getattr(module, kernel)
            start = time.perf_counter()
            result = fn(*args)
            spent[kernel] += time.perf_counter() - start
            mismatches += result != expected
        timings[backend] = spent
    return timings, mismatches


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
