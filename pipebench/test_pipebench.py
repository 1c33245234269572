"""Tests of the pipeline benchmark, in its quick setting (s <= 2 curves).

    python -m pytest pipebench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def bench(*args: str, env: dict | None = None, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def quick_all(trace: int) -> dict:
    done = bench("--workload", "all", "--quick", "--seconds", "0.3", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict:
    return quick_all(0)


@pytest.fixture(scope="module")
def traced() -> dict:
    return quick_all(1)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()


def test_untraced_run_emits_every_end_to_end_metric_and_matches_golden(untraced):
    assert list(untraced) == list(workloads.WORKLOADS)
    for result in untraced.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced):
    names = [name for name, _ in tracing.per_layer_metrics()]
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
    value = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in traced.items()}
    assert value["export-sweep"]["spectrum.export_bytes"] > 0
    assert value["export-sweep"]["singer.delta_sigma_cm.calls"] > 0
    assert value["export-sweep"]["arith.valuation.calls"] > 0
    assert value["genera-sweep"]["spectrum.verify_tables.calls"] == 1
    assert value["genera-sweep"]["share.render_validate"] == 0
    assert value["oracle-suzuki"]["iota.iota_suzuki.calls"] > 0
    assert value["oracle-suzuki"]["oracle.delta_b0_census.calls"] > 0
    assert value["oracle-ree"]["iota.iota_ree.calls"] > 0
    assert value["oracle-ree"]["kernels.congruence_count.pairs"] > 0
    assert value["oracle-ree"]["replay.pure.sigma_cm_iota_counts.s"] > 0
    for workload in ("oracle-suzuki", "oracle-ree"):
        assert value[workload]["oracle.cases_checked"] >= value[workload]["oracle.checks"] > 0


def test_golden_mismatches_count_as_failures():
    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    export = workloads.Operation("export", "suzuki-1", "suzuki", 1)
    wrong = dict(golden["export"]["suzuki-1"], json_sha256="0" * 64)
    assert workloads.check(golden, export, golden["export"]["suzuki-1"]) == (1, 0)
    assert workloads.check(golden, export, wrong) == (1, 1)

    oracle = workloads.Operation("oracle", "ree-2", "ree", 2)
    checks = golden["oracle"]["ree-2"]
    assert workloads.check(golden, oracle, checks) == (len(checks), 0)
    assert workloads.check(golden, oracle, checks[1:]) == (len(checks), len(checks))
    flipped = [[checks[0][0], False, checks[0][2]]] + checks[1:]
    assert workloads.check(golden, oracle, flipped) == (len(checks), 1)


def test_tracer_restores_every_patched_function():
    sys.path.insert(0, str(run.SRC))
    import skabelund
    from skabelund import oracle, singer, spectrum

    before = (spectrum.delta_sigma_cm, singer.delta_sigma_cm, oracle.iota_suzuki)
    tracer = tracing.Tracer()
    with tracer:
        assert spectrum.delta_sigma_cm is not before[0]
        skabelund.compute_spectrum(skabelund.Family.SUZUKI, 1)
    assert (spectrum.delta_sigma_cm, singer.delta_sigma_cm, oracle.iota_suzuki) == before
    metrics, _ = tracer.take_pass(1.0)
    assert metrics["singer.delta_sigma_cm.calls"] == 8
    assert metrics["spectrum.compute_spectrum.self_s"] <= metrics["spectrum.compute_spectrum.s"]


@pytest.mark.parametrize("variable", run.CAP_VARIABLES)
def test_refuses_to_run_with_an_oracle_cap_set(variable):
    done = bench("--workload", "oracle-ree", "--quick", env={**os.environ, variable: "5"})
    assert done.returncode != 0
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and variable in done.stderr


def test_fails_without_a_source_tree(tmp_path):
    copy = tmp_path / "pipebench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, copy)
    shutil.copy(workloads.GOLDEN_PATH, copy)
    shutil.copy(BENCHMARK_JSON, tmp_path)
    done = bench("--workload", "genera-sweep", "--seconds", "1", script=copy / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
