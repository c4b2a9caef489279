"""Tests for the benchmark harness, on toy-64 parameters (about a minute).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import run
from layer_trace import LayerTracer, TracePoint
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _toy(name: str, trace: bool, seed: int = 5) -> dict:
    return run.measure(name, seed, 0.2, trace, param_set="toy-64")


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload with the same seed (fixed work)."""
    return {name: (_toy(name, True), _toy(name, True)) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_run_is_correct_and_reports_every_end_to_end_metric(name):
    record = _toy(name, False)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert any(c["check"].startswith("control:") for c in record["checks"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_op_counts(name, traced_runs):
    first, second = traced_runs[name]
    assert first["correct"] and second["correct"]
    assert first["fingerprint"] and first["fingerprint"] == second["fingerprint"]
    for key in ("ops.exp", "ops.pair", "ops.hash_to_g1"):
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_and_residual_account_for_the_traced_wall(name, traced_runs):
    metrics = {k: m["value"] for k, m in traced_runs[name][0]["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["traced_wall_s"]
    assert self_total + metrics["residual_s"] == pytest.approx(wall)
    assert 0 <= metrics["residual_s"] < 0.25 * wall


def test_benchmark_json_names_match_the_code(traced_runs):
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"] for m in spec["per_layer"]}
    for first, _ in traced_runs.values():
        assert set(first["metrics"]) == per_layer


class _Nested:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)


def test_self_time_excludes_child_spans():
    tracer = LayerTracer(points=(
        TracePoint("outer", f"{__name__}:_Nested.outer"),
        TracePoint("inner", f"{__name__}:_Nested.inner"),
    ))
    tracer.install()
    try:
        tracer.start()
        _Nested().outer()
        tracer.stop()
    finally:
        tracer.uninstall()
    assert not hasattr(_Nested.outer, "__wrapped__")        # restored
    assert 0.02 <= tracer.self_s["outer"] < 0.03
    assert 0.03 <= tracer.self_s["inner"] < 0.045
    assert tracer.residual_s < 0.005
    (outer,) = [s for s in tracer.spans if s[2] == "outer"]
    (inner,) = [s for s in tracer.spans if s[2] == "inner"]
    assert inner[1] == outer[0]                              # parent link
