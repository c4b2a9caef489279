"""Ring-buffer time-series store for the SLO engine's declared series.

SLO evaluation needs *windows* of a few cumulative indicators.
:class:`TimeSeriesStore` samples exactly those — the SLI counters, read
straight from their sources, and the :class:`~repro.obs.slo.LatencyTap`
histogram's cumulative bucket vector — into bounded ring buffers,
timestamped with **virtual time** (``sim.now``), so windowed math is
clock-skew free and bit-reproducible across runs.  Nothing else in the
metrics registry is sampled.

Windowed operators follow Prometheus semantics:

* :meth:`TimeSeriesStore.increase` — growth of a counter over a trailing
  window, reset-aware (a decrease between adjacent points is a counter
  reset: the post-reset value is counted instead of a negative delta).
* :meth:`TimeSeriesStore.window_quantile` /
  :meth:`TimeSeriesStore.window_fraction_over` — bucket-count deltas over
  the window fed through :func:`repro.obs.registry.bucket_quantile`, the
  same interpolation the live dashboard quantiles use.

Everything here is pure bookkeeping: no group operations, no RNG, no
wall-clock reads (the SLO bench gates this at exactly 0 ΔExp / 0 ΔPair).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .registry import bucket_quantile

__all__ = ["SeriesRing", "TimeSeriesStore"]

#: Default ring capacity per series.  At the default sampling cadence a
#: run records well under this many points.
DEFAULT_CAPACITY = 1024


class SeriesRing:
    """Bounded ring of ``(t, value)`` points, append-only, time-ordered."""

    __slots__ = ("capacity", "_times", "_values")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 2:
            raise ValueError("a series ring needs capacity >= 2")
        self.capacity = capacity
        self._times: list[float] = []
        self._values: list[object] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, t: float, value) -> None:
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {t} < {self._times[-1]}"
            )
        self._times.append(t)
        self._values.append(value)
        if len(self._times) > self.capacity:
            del self._times[0]
            del self._values[0]

    def window(self, start: float, end: float) -> list:
        """Values of the points with ``start <= t <= end``, oldest first,
        led by the baseline: the newest point at or before ``start``.

        Without such a point (a partial window at run start) the first
        in-window point is the baseline.  Empty when no point lies in
        ``[start, end]``.
        """
        times = self._times
        lo = bisect_left(times, start)
        hi = bisect_right(times, end, lo)
        if lo == hi:
            return []
        base = bisect_right(times, start, lo) - 1
        if base < 0 or base == lo:
            return self._values[lo:hi]
        return [self._values[base]] + self._values[lo:hi]


class TimeSeriesStore:
    """Samples the declared SLI sources and the latency tap into rings.

    ``sources`` maps SLI names to zero-arg callables returning the
    current cumulative value (what :func:`repro.obs.slo.bind_sli_sources`
    returns); ``tap`` is the run's latency tap, absorbed before each
    sample.  Arm :meth:`sample` on the simulator's periodic timer
    (:meth:`repro.net.simulator.Simulator.every`).
    """

    def __init__(self, sources: dict, tap=None,
                 capacity: int = DEFAULT_CAPACITY):
        self.sources = sources
        self.tap = tap
        self.series = {name: SeriesRing(capacity) for name in self.sources}
        #: histogram name -> ring of (t, (counts tuple, count, total))
        self.histograms: dict[str, SeriesRing] = {}
        if tap is not None:
            self.histograms[tap.histogram.name] = SeriesRing(capacity)
        self.samples_taken = 0
        self.on_sample = None  # callback(now) after each sample (alerting)

    def sample(self, now: float) -> None:
        """Snapshot every declared series at ``now``."""
        for name, source in self.sources.items():
            self.series[name].append(now, float(source()))
        if self.tap is not None:
            self.tap.absorb()
            family = self.tap.histogram
            child = family._children.get(())
            if child is None:
                # Children are created lazily on first observe(); record an
                # explicit zero vector so the very first sample still works
                # as a window baseline.
                value = ((0,) * len(family.buckets), 0, 0.0)
            else:
                value = (tuple(child.counts), child.count, child.total)
            self.histograms[family.name].append(now, value)
        self.samples_taken += 1
        if self.on_sample is not None:
            self.on_sample(now)

    # -- windowed operators --------------------------------------------------
    def increase(self, key: str, window_s: float, now: float) -> float:
        """Counter growth over the trailing window (0.0 when empty).

        Reset-aware: a decrease between adjacent points marks a counter
        reset, and the post-reset value is added instead of a negative
        delta.
        """
        ring = self.series.get(key)
        values = ring.window(now - window_s, now) if ring else []
        if len(values) < 2:
            return 0.0
        total = 0.0
        prev = values[0]
        for value in values[1:]:
            if value < prev:  # counter reset: growth restarts from zero
                total += value
            else:
                total += value - prev
            prev = value
        return total

    def _window_delta(self, name: str, window_s: float, now: float):
        """Bucket-count delta (counts, count) across the trailing window."""
        ring = self.histograms.get(name)
        values = ring.window(now - window_s, now) if ring else []
        if len(values) < 2:
            # A single point: everything it has ever seen predates the
            # window's start resolution — treat as empty window.
            return (), None, 0
        (c0, n0, _), (c1, n1, _) = values[0], values[-1]
        counts = [b - a for a, b in zip(c0, c1)]
        return self.tap.histogram.buckets, counts, n1 - n0

    def window_quantile(self, name: str, q: float, window_s: float,
                        now: float) -> float:
        """Quantile of observations recorded inside the trailing window.

        Shares :func:`bucket_quantile` with the dashboard's live
        quantiles; NaN when the window holds no observations.
        """
        buckets, counts, count = self._window_delta(name, window_s, now)
        if counts is None or count <= 0:
            return math.nan
        return bucket_quantile(buckets, counts, count, q)

    def window_fraction_over(self, name: str, threshold: float,
                             window_s: float, now: float) -> float:
        """Fraction of in-window observations above ``threshold``.

        Interpolates inside the covering bucket under the same
        uniform-spread assumption as :func:`bucket_quantile`; 0.0 for an
        empty window.
        """
        buckets, counts, count = self._window_delta(name, window_s, now)
        if counts is None or count <= 0:
            return 0.0
        return fraction_over(buckets, counts, count, threshold)


def fraction_over(buckets, counts, count: int, threshold: float) -> float:
    """Share of observations above ``threshold`` from cumulative counts.

    The dual of :func:`repro.obs.registry.bucket_quantile`: instead of
    value-at-rank it computes rank-at-value, interpolating linearly inside
    the bucket that covers ``threshold``.
    """
    if count <= 0:
        return 0.0
    below = 0.0
    lower = 0.0
    prev_cum = 0.0
    for bound, cumulative in zip(buckets, counts):
        if threshold <= bound:
            if bound == math.inf or bound == lower:
                below = cumulative
            else:
                in_bucket = cumulative - prev_cum
                frac = (threshold - lower) / (bound - lower)
                below = prev_cum + in_bucket * max(0.0, min(1.0, frac))
            return max(0.0, min(1.0, (count - below) / count))
        prev_cum = cumulative
        lower = bound
    # Threshold beyond the last finite bound: only +Inf observations exceed.
    return max(0.0, (count - (counts[-1] if counts else 0)) / count)
