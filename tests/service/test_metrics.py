"""Deterministic service metrics: reservoirs and histograms."""

import pytest

from repro.service.metrics import Histogram, LatencyReservoir, ServiceMetrics


class TestLatencyReservoir:
    def test_exact_percentiles_under_capacity(self):
        r = LatencyReservoir(capacity=100)
        for v in range(1, 11):
            r.record(float(v))
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 10.0
        assert r.percentile(50) == pytest.approx(5.5)
        assert r.mean == pytest.approx(5.5)

    def test_empty_reservoir(self):
        r = LatencyReservoir()
        assert r.percentile(99) == 0.0
        assert r.mean == 0.0

    def test_bounded_memory_over_capacity(self):
        r = LatencyReservoir(capacity=16)
        for v in range(1000):
            r.record(float(v))
        assert len(r._samples) <= 16
        assert r.count == 1000

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyReservoir(0)

    def test_retained_set_is_evenly_spaced(self):
        # Systematic sampling keeps stream indices 0, s, 2s, ... — never a
        # clustered band of replacement slots.
        r = LatencyReservoir(capacity=8)
        for v in range(100):
            r.record(float(v))
        gaps = {b - a for a, b in zip(r._samples, r._samples[1:])}
        assert len(gaps) == 1  # uniform spacing

    def test_percentiles_unbiased_on_trending_100k_stream(self):
        # The old count%capacity overwrite clustered replacements into a
        # narrow index band, skewing percentiles on monotone streams.  On
        # 0..99999 every percentile of an evenly spaced subsample must sit
        # within one stride of the true value.
        n = 100_000
        r = LatencyReservoir(capacity=4096)
        for v in range(n):
            r.record(float(v))
        tolerance = r._stride + 1
        for q in (1, 10, 25, 50, 75, 90, 99):
            true = (q / 100.0) * (n - 1)
            assert r.percentile(q) == pytest.approx(true, abs=tolerance)
        assert r.mean == pytest.approx((n - 1) / 2.0)

    def test_percentiles_on_shifted_distribution_tail(self):
        # A latency regression halfway through the stream must show up in
        # p99 — the retained subsample covers early and late halves alike.
        r = LatencyReservoir(capacity=1024)
        for _ in range(50_000):
            r.record(0.010)
        for _ in range(50_000):
            r.record(0.100)
        assert r.percentile(50) == pytest.approx(0.010, abs=0.091)
        assert r.percentile(99) == pytest.approx(0.100)
        assert r.percentile(25) == pytest.approx(0.010)
        assert r.percentile(75) == pytest.approx(0.100)


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for v in (1, 2, 3, 64, 100):
            h.record(v)
        snap = h.snapshot()
        assert snap["[1,1]"] == 1
        assert snap["[2,3]"] == 2
        assert snap["[64,127]"] == 2
        assert h.mean == pytest.approx(34.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram().record(-1)


class TestServiceMetrics:
    def test_lifecycle_counters(self):
        m = ServiceMetrics()
        m.on_enqueue(1)
        m.on_enqueue(2)
        m.on_batch(2, 0)
        m.on_complete(4, 0.01, 0.05)
        m.on_complete(4, 0.02, 0.06)
        s = m.summary()
        assert s["submitted"] == 2
        assert s["completed"] == 2
        assert s["signatures_produced"] == 8
        assert s["batches"] == 1
        assert s["queue_high_watermark"] == 2
        assert s["latency_p99_s"] > 0
