"""Service observability: queue depth, batch sizes, latency percentiles.

Everything here is deterministic and allocation-light so it can run inside
the discrete-event simulator without perturbing results.  Metrics flow out
through the observability registry:
:func:`~repro.obs.adapters.bind_service_metrics` mirrors the scalar
summary as gauges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class LatencyReservoir:
    """Bounded sample store with exact percentiles over what it kept.

    Systematic (stride-based) sampling: every ``stride``-th sample is
    kept, and when the store fills it is compacted to every other kept
    sample while the stride doubles.  The retained set is therefore always
    an evenly spaced subsample of the whole stream — no RNG (simulator
    runs stay reproducible) and no overwrite clustering: the previous
    ``count % capacity`` replacement index revisited a narrow band of
    slots, so late samples displaced a biased subset and percentiles
    drifted on trending streams.  The mean is exact regardless (tracked as
    a running total over *all* samples).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self._stride = 1
        self._samples: list[float] = []

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if (self.count - 1) % self._stride:
            return
        self._samples.append(value)
        if len(self._samples) >= self.capacity:
            self._samples = self._samples[::2]
            self._stride *= 2

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 <= q <= 100) of retained samples."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = (q / 100.0) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Histogram:
    """Power-of-two bucketed counts (bucket i covers [2^i, 2^(i+1)))."""

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        bucket = value.bit_length() - 1 if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, int]:
        """Human-readable bucket labels -> counts."""
        return {
            f"[{1 << b},{(1 << (b + 1)) - 1}]": n
            for b, n in sorted(self.buckets.items())
        }


@dataclass
class ServiceMetrics:
    """Everything the signing service measures about itself."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    overloaded: int = 0
    failed: int = 0
    signatures_produced: int = 0
    batches: int = 0
    retries: int = 0  # per-SEM retransmissions in failover mode
    failovers: int = 0  # rounds completed despite >= 1 SEM failure
    queue_depth: int = 0
    queue_high_watermark: int = 0
    batch_sizes: Histogram = field(default_factory=Histogram)
    queue_wait: LatencyReservoir = field(default_factory=LatencyReservoir)
    service_latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    # Push-style taps: called with each service latency as it completes, so
    # bucketed consumers (the obs registry histogram behind the serve-sim
    # dashboard) see every observation, not a mirrored summary.
    latency_observers: list = field(default_factory=list)

    def on_enqueue(self, depth: int) -> None:
        self.submitted += 1
        self.queue_depth = depth
        self.queue_high_watermark = max(self.queue_high_watermark, depth)

    def on_batch(self, batch_size: int, depth: int) -> None:
        self.batches += 1
        self.batch_sizes.record(batch_size)
        self.queue_depth = depth

    def on_complete(self, n_signatures: int, queue_wait_s: float, service_time_s: float) -> None:
        self.completed += 1
        self.signatures_produced += n_signatures
        self.queue_wait.record(queue_wait_s)
        self.service_latency.record(service_time_s)
        for observe in self.latency_observers:
            observe(service_time_s)

    def summary(self) -> dict:
        """A flat, printable view of the service's health."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "overloaded": self.overloaded,
            "failed": self.failed,
            "signatures_produced": self.signatures_produced,
            "batches": self.batches,
            "retries": self.retries,
            "failovers": self.failovers,
            "queue_depth": self.queue_depth,
            "queue_high_watermark": self.queue_high_watermark,
            "batch_size_mean": round(self.batch_sizes.mean, 2),
            "batch_size_hist": self.batch_sizes.snapshot(),
            "queue_wait_p50_s": self.queue_wait.percentile(50),
            "queue_wait_p99_s": self.queue_wait.percentile(99),
            "latency_p50_s": self.service_latency.percentile(50),
            "latency_p99_s": self.service_latency.percentile(99),
        }
