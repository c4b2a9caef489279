"""Virtual-time telemetry store: rings, windowed operators, sampling.

The windowed operators are the foundation the burn-rate alerting stands
on, so their edge cases get property treatment: empty windows, partial
windows at run start (the baseline-point rule), counter resets
mid-window, the bisect window lookup against a brute-force scan, and
histogram-delta quantiles against a brute-force oracle.  Sampling runs
on the simulator's periodic timer, so there is no clock skew by
construction — the tests pin that each point's timestamp is exactly the
virtual time of its sampler tick.
"""

import math
import random

import pytest

from repro.net.simulator import Simulator
from repro.obs.registry import MetricsRegistry, bucket_quantile
from repro.obs.slo import SLI_LATENCY, LatencyTap
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    SeriesRing,
    TimeSeriesStore,
    fraction_over,
)


class TestSeriesRing:
    def test_append_requires_time_order(self):
        ring = SeriesRing()
        ring.append(1.0, 5.0)
        with pytest.raises(ValueError):
            ring.append(0.5, 6.0)

    def test_capacity_trims_oldest(self):
        ring = SeriesRing(capacity=4)
        for i in range(10):
            ring.append(float(i), float(i * i))
        assert ring._times == [6.0, 7.0, 8.0, 9.0]
        # Everything older than the window of 4 is gone: no point at or
        # before 4.9 remains to serve as a baseline.
        assert ring.window(4.9, 9.0) == [36.0, 49.0, 64.0, 81.0]
        assert ring.window(0.0, 5.9) == []

    def test_window_leads_with_the_baseline(self):
        ring = SeriesRing()
        for i in range(5):
            ring.append(float(i), 10.0 * i)
        assert ring.window(1.0, 3.0) == [10.0, 20.0, 30.0]
        assert ring.window(1.5, 3.0) == [10.0, 20.0, 30.0]
        assert ring.window(-1.0, 0.5) == [0.0]
        assert ring.window(4.5, 9.0) == []


def _scan_window(points, start, end):
    """The window rule as a brute-force scan: in-window points, led by
    the newest point at or before ``start`` unless that point is already
    the first in-window one."""
    inside = [p for p in points if start <= p[0] <= end]
    if not inside:
        return []
    baseline = None
    for point in points:
        if point[0] <= start:
            baseline = point
        else:
            break
    if baseline is not None and baseline is not inside[0]:
        inside = [baseline] + inside
    return [v for _, v in inside]


class TestBisectWindowOracle:
    @staticmethod
    def _ring(points, capacity=DEFAULT_CAPACITY):
        ring = SeriesRing(capacity)
        for t, v in points:
            ring.append(t, v)
        return ring

    def _check(self, points, start, end, capacity=DEFAULT_CAPACITY):
        ring = self._ring(points, capacity)
        kept = points[-capacity:]
        assert ring.window(start, end) == _scan_window(kept, start, end)

    def test_point_exactly_at_window_start(self):
        points = [(i * 0.25, float(i)) for i in range(9)]
        now, window_s = 2.0, 0.75
        assert points[5][0] == now - window_s
        self._check(points, now - window_s, now)
        assert self._ring(points).window(now - window_s, now) == \
            [5.0, 6.0, 7.0, 8.0]

    def test_window_wider_than_the_ring(self):
        points = [(i * 0.1, float(i)) for i in range(20)]
        now = points[-1][0]
        self._check(points, now - 100.0, now)
        assert self._ring(points).window(now - 100.0, now) == \
            [float(i) for i in range(20)]

    def test_ring_trimmed_past_capacity(self):
        points = [(i * 0.1, float(i * i)) for i in range(40)]
        for start in (0.0, 2.5, 3.0, 3.05, 3.9):
            self._check(points, start, 3.9, capacity=8)

    def test_duplicate_timestamps_and_random_windows(self):
        rng = random.Random(11)
        points, t = [], 0.0
        for i in range(120):
            t += rng.choice((0.0, 0.05, 0.1, 0.3))
            points.append((round(t, 2), float(i)))
        times = sorted({p[0] for p in points})
        for _ in range(300):
            end = rng.choice(times + [t + 1.0])
            start = end - rng.choice((0.0, 0.05, 0.1, 0.35, 1.0, 50.0))
            for capacity in (4, 32, DEFAULT_CAPACITY):
                self._check(points, start, end, capacity)


def _store_with_counter(values):
    """A store fed by a controllable counter; returns (store, setter)."""
    state = {"v": 0.0}
    store = TimeSeriesStore({"events_total": lambda: state["v"]})

    def feed(t, v):
        state["v"] = float(v)
        store.sample(t)

    for t, v in values:
        feed(t, v)
    return store, feed


def _store_with_tap(buckets):
    """A store over an SLO latency tap; returns (store, latencies, tap)."""
    tap = LatencyTap(MetricsRegistry(), buckets=buckets)
    latencies: list[float] = []
    tap.add_source(latencies)
    return TimeSeriesStore({}, tap), latencies, tap


class TestWindowedOperators:
    def test_empty_window_is_zero_increase_and_nan_quantile(self):
        store, _, _ = _store_with_tap((0.1, 1.0))
        assert store.increase("events_total", 1.0, now=5.0) == 0.0
        assert math.isnan(store.window_quantile(SLI_LATENCY, 0.99, 1.0, 5.0))

    def test_partial_window_at_run_start_uses_baseline(self):
        # Only 0.3s of data exist; a 1.0s window sees all of it, with
        # the first point as its baseline.
        store, _ = _store_with_counter([(0.0, 0.0), (0.1, 10.0),
                                        (0.2, 20.0), (0.3, 30.0)])
        assert store.increase("events_total", 1.0, now=0.3) == 30.0
    def test_counter_reset_adds_post_reset_value(self):
        # 0 -> 40, reset, 0 -> 15: the true increase over the window is 55.
        store, _ = _store_with_counter([(0.0, 0.0), (1.0, 40.0),
                                        (2.0, 5.0), (3.0, 15.0)])
        assert store.increase("events_total", 10.0, now=3.0) == pytest.approx(55.0)

    def test_increase_windows_are_consistent(self):
        # Property: for a monotone counter, increase over [now-w, now]
        # equals total minus the baseline value at window start.
        rng = random.Random(7)
        points, total = [], 0.0
        for i in range(50):
            total += rng.uniform(0, 10)
            points.append((i * 0.1, total))
        store, _ = _store_with_counter(points)
        for w in (0.35, 1.0, 2.5, 100.0):
            start = max(4.9 - w, 0.0)
            baseline = max(v for t, v in points if t <= start)
            expected = points[-1][1] - baseline
            assert store.increase("events_total", w, now=4.9) == \
                pytest.approx(expected)


class TestHistogramWindows:
    def test_window_quantile_matches_bucket_oracle(self):
        store, latencies, tap = _store_with_tap((0.1, 0.2, 0.5, 1.0))
        store.sample(0.0)
        rng = random.Random(3)
        latencies.extend(rng.uniform(0.0, 1.0) for _ in range(200))
        store.sample(1.0)
        # The windowed quantile over the whole run equals the child's own
        # bucket interpolation (same shared bucket_quantile code path).
        child = tap.histogram._children[()]
        for q in (0.5, 0.9, 0.99):
            assert store.window_quantile(SLI_LATENCY, q, 10.0, 1.0) == \
                pytest.approx(child.quantile(q))

    def test_window_quantile_sees_only_the_window(self):
        store, latencies, _ = _store_with_tap((0.1, 0.5, 1.0))
        store.sample(0.0)
        latencies.extend([0.05] * 100)   # early, fast
        store.sample(1.0)
        latencies.extend([0.9] * 100)    # late, slow
        store.sample(2.0)
        early = store.window_quantile(SLI_LATENCY, 0.5, 0.5, 1.0)
        late = store.window_quantile(SLI_LATENCY, 0.5, 0.5, 2.0)
        assert early < 0.1 < late

    def test_fraction_over_interpolates(self):
        buckets = (0.1, 0.2, 0.4)
        # Cumulative: 10 observations in (0.1, 0.2], 10 in (0.2, 0.4].
        counts = [0, 10, 20]
        assert fraction_over(buckets, counts, 20, 0.05) == 1.0
        assert fraction_over(buckets, counts, 20, 0.2) == pytest.approx(0.5)
        assert fraction_over(buckets, counts, 20, 0.3) == pytest.approx(0.25)
        assert fraction_over(buckets, counts, 20, 0.4) == 0.0
        assert fraction_over(buckets, counts, 0, 0.2) == 0.0

    def test_fraction_over_is_dual_of_quantile(self):
        buckets = (0.1, 0.2, 0.5, 1.0)
        counts = [5, 25, 65, 80]  # cumulative
        count = counts[-1]
        for q in (0.2, 0.5, 0.8):
            v = bucket_quantile(buckets, counts, count, q)
            assert fraction_over(buckets, counts, count, v) == \
                pytest.approx(1.0 - q, abs=1e-9)


class TestTimerWheelSampling:
    def test_points_land_exactly_on_virtual_ticks(self):
        # No clock skew by construction: each sample's timestamp is the
        # virtual time of its sampler tick, bit-exact.
        sim = Simulator()
        store = TimeSeriesStore({"events_total": lambda: sim.now * 100})
        for i in range(1, 11):
            sim.schedule(0.05 * i, lambda: None)
        store.sample(sim.now)
        sim.every(0.1, store.sample)
        sim.run()
        times = store.series["events_total"]._times
        assert times[0] == 0.0
        for t in times[1:]:
            assert t == pytest.approx(round(t / 0.1) * 0.1)
        assert store.samples_taken == len(times)

    def test_daemon_sampler_never_extends_the_run(self):
        sim = Simulator()
        store = TimeSeriesStore({"events_total": lambda: 0.0})
        sim.schedule(0.12, lambda: None)
        store.sample(sim.now)
        sim.every(0.05, store.sample)
        end = sim.run()
        # The run drains at the last real event, not at a sampler tick —
        # and two daemon observers must not sustain each other either.
        assert end == pytest.approx(0.12)
        store2 = TimeSeriesStore({"events_total": lambda: 0.0})
        store2.sample(sim.now)
        sim.every(0.03, store2.sample)
        assert sim.run() == pytest.approx(0.12)

    def test_capacity_default_bounds_memory(self):
        ring = SeriesRing()
        for i in range(3 * DEFAULT_CAPACITY):
            ring.append(float(i), 0.0)
        assert len(ring) <= DEFAULT_CAPACITY
