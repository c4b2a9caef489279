"""serve-sim dashboard: frame content, virtual-time scheduling, zero ops."""

import io
import json
from pathlib import Path

import pytest

from repro.net.simulator import Simulator
from repro.obs import MetricsRegistry, Observability
from repro.obs.adapters import (
    bind_operation_counter,
    bind_service_metrics,
    bind_simulator,
)
from repro.obs.dashboard import Dashboard
from repro.pairing.interface import OperationCounter
from repro.scenarios import ScenarioRunner, load_scenario
from repro.service.metrics import ServiceMetrics


def _bound_registry():
    """Registry mirroring a ServiceMetrics with some activity on it."""
    registry = MetricsRegistry()
    metrics = ServiceMetrics()
    bind_service_metrics(registry, metrics)
    for depth in (1, 2, 3, 4):
        metrics.on_enqueue(depth)
    metrics.on_batch(4, 0)
    for latency in (0.010, 0.015, 0.020, 0.120):
        metrics.on_complete(3, queue_wait_s=0.001, service_time_s=latency)
    metrics.failovers = 1
    metrics.retries = 2
    return registry, metrics


class TestFrame:
    def test_shows_queue_batch_failover_and_quantiles(self):
        registry, _ = _bound_registry()
        frame = Dashboard(registry, clock=lambda: 1.25).render_frame()
        assert "t=1.250s" in frame
        assert "queue depth" in frame and "high-water 4" in frame
        assert "batches" in frame and "mean size  4.0" in frame
        assert "failover         1" in frame
        assert "retries    2" in frame
        # Bucket-interpolated quantiles from the bound latency histogram.
        assert "p50" in frame and "p95" in frame and "p99" in frame

    def test_no_completions_yet(self):
        frame = Dashboard(MetricsRegistry()).render_frame()
        assert "(no completions yet)" in frame

    def test_tick_writes_frames_to_stream(self):
        registry, _ = _bound_registry()
        out = io.StringIO()
        dashboard = Dashboard(registry, out=out)
        dashboard.tick()
        dashboard.tick()
        assert dashboard.frames_rendered == 2
        assert out.getvalue().count("serve-sim") == 2


class TestVirtualTime:
    def test_attach_renders_on_schedule_and_lets_run_drain(self):
        sim = Simulator()
        registry = MetricsRegistry()
        bind_simulator(registry, sim)
        out = io.StringIO()
        dashboard = Dashboard(registry, clock=lambda: sim.now, out=out)
        # Some protocol activity out to t=0.45s of virtual time.
        for i in range(1, 10):
            sim.schedule(0.05 * i, lambda: None)
        dashboard.attach(sim, interval_s=0.1)
        end = sim.run()
        # Frames at 0.1..0.4 fire between events.  The 0.4 frame re-arms
        # for 0.5 (the 0.45 event is still pending), but that frame is a
        # daemon timer: the run drains at its last real event instead of
        # lasting one more tick because it is watched.
        assert dashboard.frames_rendered == 4
        assert end == pytest.approx(0.45)
        assert sim.pending_events() == 0
        assert "t=0.100s" in out.getvalue()

    def test_watched_scenario_reproduces_its_pinned_digest(self):
        # Watching a run must not change it: with a dashboard attached,
        # the crash-failover scenario still replays to its pinned digest.
        root = Path(__file__).resolve().parents[2]
        pinned = json.loads(
            (root / "tests" / "scenarios" / "replay_digests.json").read_text())
        obs = Observability.create()
        runner = ScenarioRunner(
            load_scenario(root / "scenarios" / "sem_crash_failover.yaml"),
            obs=obs)
        sim = runner.compile().sim
        dashboard = Dashboard(obs.registry, clock=lambda: sim.now,
                              out=io.StringIO())
        dashboard.attach(sim)
        result = runner.run()
        assert dashboard.frames_rendered > 0
        assert result.digest() == pinned["sem_crash_failover"]

    def test_rendering_performs_zero_group_operations(self):
        # The acceptance bar: watching a run must not change its cost —
        # no Exp, no Pair, nothing tallied while frames render.
        counter = OperationCounter()
        registry, metrics = _bound_registry()
        bind_operation_counter(registry, counter)
        before = counter.snapshot()
        dashboard = Dashboard(registry, out=io.StringIO())
        for _ in range(5):
            dashboard.tick()
        assert counter.snapshot() == before
        assert sum(counter.snapshot().values()) == 0
