"""Tests of the benchmark itself: tiny runs of every workload, traced and
untraced; corrupted outputs reported as failed; printed metric names and
units matching BENCHMARK.json; and a clean failure outside a checkout."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


def _bench(workload, *extra, trace=0):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, _ = _bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, info = _bench(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    trace = json.loads(next(line for line in info if line.startswith("# trace:"))
                       .partition(": ")[2])
    assert "overhead" in trace
    assert trace["self_time_gap"] <= trace["tolerance"]
    assert trace["absent_metrics"] == []
    shares = [v["value"] for v in result["metrics"].values() if v["unit"] == "share"]
    assert all(0 <= s <= 1 for s in shares)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_reported_failed(workload):
    result, _ = _bench(workload, "--corrupt")
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_missing_target_is_absent_not_a_crash():
    from perfbench import layers
    from perfbench.spans import Target, Tracer

    tracer = Tracer()
    tracer.install([
        Target("gone.function", "repro.util.rng", "no_such_function"),
        Target("gone.module", "repro.no_such_module", "f"),
        Target("gone.method", "repro.core.bn", "BTorus.no_such_method"),
    ])
    tracer.uninstall()
    assert set(tracer.absent) == {"gone.function", "gone.module", "gone.method"}
    metrics, missing = layers.compute({}, 1.0, {}, {"util.rng.spawn_rng": "renamed"})
    assert "util.rng.share" in missing
    assert metrics["util.rng.share"]["value"] == layers.ABSENT
    assert metrics["core.painting.share"]["value"] == 0.0


def test_tracer_rebinds_every_importer_and_restores():
    from repro.fastpath import bn_batch
    from repro.util import rng

    from perfbench.spans import Target, Tracer

    original = rng.spawn_rng
    tracer = Tracer()
    tracer.install([Target("util.rng.spawn_rng", "repro.util.rng", "spawn_rng")])
    try:
        assert bn_batch.spawn_rng is rng.spawn_rng is not original
        with tracer.span("root"):
            bn_batch.spawn_rng(1, "x")
    finally:
        tracer.uninstall()
    assert bn_batch.spawn_rng is rng.spawn_rng is original
    stats = tracer.reduce()
    assert stats["util.rng.spawn_rng"].calls == 1
    total_self = sum(st.self_s for st in stats.values())
    assert total_self == pytest.approx(tracer.root_seconds())


def test_fails_cleanly_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
