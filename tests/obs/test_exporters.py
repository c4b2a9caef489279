"""Exporters: golden JSONL/Prometheus output, cost table vs the model."""

import json
from pathlib import Path

from repro.obs import (
    Ledger,
    Observability,
    bind_ledger,
    cost_table,
    model_equivalent_exp,
    phase_cost_rows,
    prometheus_text,
    trace_to_jsonl,
    write_metrics_text,
    write_trace_jsonl,
)

GOLDEN = Path(__file__).parent / "golden"


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


def build_scenario() -> Observability:
    """A deterministic toy run: n=2 blocks, k=2, challenge c=2.

    Op counts are injected by hand at exactly the analytic predictions
    (Table I optimized single-SEM signing n(k+5) Exp + 2 Pair; proof
    generation c Exp; verification (c+k) Exp + 2 Pair), so the cost table
    over this trace must report every phase as ``ok``.
    """
    obs = Observability.create(clock=FakeClock())
    c = obs.counter
    with obs.tracer.span("keygen", k=2, threshold=0):
        c.exp_g1 += 1
    with obs.tracer.span("sign", n_blocks=2, optimized=True):
        c.exp_g1 += 14  # n(k+5) = 2 * 7
        c.pairings += 2
        c.hash_to_g1 += 2
    with obs.tracer.span("proofgen", challenged=2):
        c.exp_g1 += 2  # c
    with obs.tracer.span("proofverify", challenged=2, k=2) as span:
        c.exp_g1 += 4  # c + k
        c.pairings += 2
        span.set(ok=True)
    obs.registry.histogram(
        "phase_duration_seconds", "span durations", buckets=(0.5, 1.0, 2.0)
    )
    for s in obs.tracer.spans:
        obs.registry._metrics["phase_duration_seconds"].observe(s.duration)
    # A tiny flight-recorder chain so ledger_entries_total{kind} lands in
    # the golden Prometheus exposition alongside trace_spans_total.
    ledger = Ledger()
    ledger.ensure_genesis({"scenario": "golden", "seed": 0})
    ledger.append("audit", {"verifier": "tpa", "ok": True})
    bind_ledger(obs.registry, ledger)
    return obs


class TestGoldenFiles:
    def test_trace_jsonl_matches_golden(self):
        obs = build_scenario()
        assert trace_to_jsonl(obs.tracer) == (GOLDEN / "trace.jsonl").read_text()

    def test_prometheus_text_matches_golden(self):
        obs = build_scenario()
        assert prometheus_text(obs.registry) == (GOLDEN / "metrics.txt").read_text()

    def test_jsonl_schema_is_stable(self):
        obs = build_scenario()
        for line in trace_to_jsonl(obs.tracer).splitlines():
            record = json.loads(line)
            assert set(record) == {
                "span_id", "parent_id", "name", "start", "end", "duration", "attrs"
            }

    def test_write_trace_jsonl_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(build_scenario().tracer, path)
        write_trace_jsonl(build_scenario().tracer, path)
        assert len(path.read_text().splitlines()) == 8  # 2 runs x 4 spans

    def test_write_metrics_text_overwrites(self, tmp_path):
        path = tmp_path / "metrics.txt"
        obs = build_scenario()
        write_metrics_text(obs.registry, path)
        write_metrics_text(obs.registry, path)
        assert path.read_text() == prometheus_text(obs.registry)


class TestCostTable:
    def test_all_phases_match_the_model_exactly(self):
        obs = build_scenario()
        rows = {r["phase"]: r for r in phase_cost_rows(obs.tracer, k=2)}
        assert rows["sign"]["exp"] == rows["sign"]["predicted_exp"] == 14
        assert rows["sign"]["pair"] == rows["sign"]["predicted_pair"] == 2
        assert rows["proofgen"]["exp"] == rows["proofgen"]["predicted_exp"] == 2
        assert rows["proofverify"]["exp"] == rows["proofverify"]["predicted_exp"] == 4
        assert rows["proofverify"]["pair"] == rows["proofverify"]["predicted_pair"] == 2
        table = cost_table(obs.tracer, k=2)
        assert "DEVIATES" not in table
        assert table.count(" ok") == 3

    def test_deviation_is_flagged(self):
        obs = Observability.create(clock=FakeClock())
        with obs.tracer.span("sign", n_blocks=2, optimized=True):
            obs.counter.exp_g1 += 13  # one short of n(k+5)
            obs.counter.pairings += 2
        table = cost_table(obs.tracer, k=2)
        assert "DEVIATES" in table
        assert "Δexp=-1" in table

    def test_model_equivalent_exp_reconciles_all_variants(self):
        ops = {"exp_g1": 5, "exp_g1_fixed_base": 3, "exp_g1_skipped": 1, "mul_g1": 99}
        assert model_equivalent_exp(ops) == 9

    def test_multi_span_predictions_sum_per_span(self):
        # Two sign spans of n=1 each: prediction must be 2 * (1*(k+5) + 2 Pair),
        # not the closed form over n=2 (constant terms differ).
        obs = Observability.create(clock=FakeClock())
        for _ in range(2):
            with obs.tracer.span("sign", n_blocks=1, optimized=True):
                obs.counter.exp_g1 += 7
                obs.counter.pairings += 2
        row = phase_cost_rows(obs.tracer, k=2)[0]
        assert row["predicted_exp"] == 14
        assert row["predicted_pair"] == 4
        assert row["exp"] == 14 and row["pair"] == 4
