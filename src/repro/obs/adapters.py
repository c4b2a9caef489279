"""Adapters: absorb the existing accumulators into one metrics registry.

The repo grew three telemetry islands before this package existed —
:class:`~repro.pairing.interface.OperationCounter` (crypto op tallies),
:class:`~repro.service.metrics.ServiceMetrics` (queue/batch/latency), and
the simulator's per-channel :class:`~repro.net.channel.ChannelStats`.
Each ``bind_*`` function registers a *collector* that mirrors the live
accumulator into registry gauges at collection time, so one
``registry.collect()`` (or one Prometheus dump) captures a whole run
without rewriting any of the accumulating code paths.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry


def bind_operation_counter(registry: MetricsRegistry, counter) -> None:
    """Mirror an :class:`OperationCounter` as ``pdp_operations{op=...}``.

    One gauge family, one label per operation kind — the same units the
    paper's Table I is written in (``exp_g1``/``pairings`` first).
    """
    family = registry.gauge(
        "pdp_operations",
        help="Pairing-group operations performed (Table I units)",
        labels=("op",),
    )

    def collect() -> None:
        for op, value in counter.snapshot().items():
            family.labels(op=op).set(value)

    registry.register_collector(collect)


def bind_service_metrics(registry: MetricsRegistry, metrics, prefix: str = "service"):
    """Mirror a :class:`ServiceMetrics` summary as ``<prefix>_<key>`` gauges.

    Scalar summary keys only (the batch-size histogram dict stays with the
    service's own human-readable summary), matching what
    :meth:`ServiceMetrics.to_labels` exports into accounting labels.

    Additionally taps the per-completion latency stream into a registry
    histogram ``<prefix>_latency_seconds`` so bucket-based quantiles
    (p50/p95/p99 on the serve-sim dashboard and the exposition summary
    line) see every observation.  Returns that histogram.
    """
    latency = registry.histogram(
        f"{prefix}_latency_seconds",
        help=f"{prefix} per-request service latency",
    )
    if hasattr(metrics, "latency_observers"):
        metrics.latency_observers.append(latency.observe)

    def collect() -> None:
        for key, value in metrics.summary().items():
            if isinstance(value, dict):
                continue
            registry.gauge(
                f"{prefix}_{key}", help=f"{prefix} {key.replace('_', ' ')}"
            ).set(float(value))

    registry.register_collector(collect)
    return latency


def bind_simulator(registry: MetricsRegistry, sim) -> None:
    """Mirror a :class:`~repro.net.simulator.Simulator` and its channels.

    Per-channel byte/message/drop counters get ``sender``/``recipient``
    labels; the simulator totals and the virtual clock come along so a
    registry snapshot fully describes the simulated run.
    """
    bytes_family = registry.gauge(
        "sim_channel_bytes",
        help="Bytes sent over one directed channel",
        labels=("sender", "recipient"),
    )
    messages_family = registry.gauge(
        "sim_channel_messages",
        help="Messages sent over one directed channel",
        labels=("sender", "recipient"),
    )
    drops_family = registry.gauge(
        "sim_channel_dropped",
        help="Messages dropped on one directed channel",
        labels=("sender", "recipient"),
    )
    duplicated_family = registry.gauge(
        "sim_channel_duplicated",
        help="Messages delivered more than once on one directed channel",
        labels=("sender", "recipient"),
    )
    reordered_family = registry.gauge(
        "sim_channel_reordered",
        help="Messages held back for reordering on one directed channel",
        labels=("sender", "recipient"),
    )
    corrupted_family = registry.gauge(
        "sim_channel_corrupted",
        help="Payloads corrupted in transit on one directed channel",
        labels=("sender", "recipient"),
    )
    delivered = registry.gauge("sim_delivered", help="Messages delivered in total")
    dropped = registry.gauge("sim_dropped", help="Messages dropped in total")
    timers = registry.gauge("sim_timers_fired", help="Timer callbacks fired")
    vtime = registry.gauge("sim_virtual_time_seconds", help="Final virtual clock")

    def collect() -> None:
        for (sender, recipient), channel in sim._channels.items():
            labels = {"sender": sender, "recipient": recipient}
            bytes_family.labels(**labels).set(channel.stats.bytes_total)
            messages_family.labels(**labels).set(channel.stats.messages)
            drops_family.labels(**labels).set(channel.stats.dropped)
            duplicated_family.labels(**labels).set(channel.stats.duplicated)
            reordered_family.labels(**labels).set(channel.stats.reordered)
            corrupted_family.labels(**labels).set(channel.stats.corrupted)
        delivered.set(sim.delivered)
        dropped.set(sim.dropped)
        timers.set(sim.timers_fired)
        vtime.set(sim.now)

    registry.register_collector(collect)


def bind_fault_injector(registry: MetricsRegistry, injector) -> None:
    """Mirror a :class:`~repro.net.faults.FaultInjector` as
    ``chaos_injected{kind=...}`` — one gauge per fault kind actually fired
    (partition, corrupt, duplicate, reorder, slow), so a chaos run's
    metrics artifact records what the plan really did, not just what it
    scheduled."""
    family = registry.gauge(
        "chaos_injected",
        help="Fault actions injected into the send path, by kind",
        labels=("kind",),
    )

    def collect() -> None:
        for kind, value in injector.counts.items():
            family.labels(kind=kind).set(value)

    registry.register_collector(collect)


def bind_tracer_spans(registry: MetricsRegistry, tracer) -> None:
    """Mirror a :class:`~repro.obs.tracer.Tracer` as ``trace_spans_total``
    — the finished-span count, so a metrics snapshot records how much of
    the flight recorder's causal stream exists."""
    total = registry.counter(
        "trace_spans_total", help="Finished tracer spans recorded"
    )

    def collect() -> None:
        total.set(float(len(tracer.spans)))

    registry.register_collector(collect)


def bind_ledger(registry: MetricsRegistry, ledger) -> None:
    """Mirror a :class:`~repro.obs.ledger.Ledger` as
    ``ledger_entries_total{kind=...}`` — appended chain entries by kind,
    so the metrics plane and the tamper-evident plane cross-check."""
    family = registry.counter(
        "ledger_entries_total",
        help="Tamper-evident ledger entries appended, by kind",
        labels=("kind",),
    )

    def collect() -> None:
        for kind, value in ledger.counts.items():
            family.labels(kind=kind).set(float(value))

    registry.register_collector(collect)


def bind_failover_health(registry: MetricsRegistry, health) -> None:
    """Mirror a :class:`~repro.service.failover.HealthScoreboard` as
    ``failover_health_<key>`` gauges (rounds, quarantined, trips, probes,
    invalid_total, timeouts) — the circuit-breaker view of the cluster."""

    def collect() -> None:
        for key, value in health.summary().items():
            registry.gauge(
                f"failover_health_{key}",
                help=f"Endpoint health scoreboard: {key.replace('_', ' ')}",
            ).set(float(value))

    registry.register_collector(collect)


def bind_sim_run(registry: MetricsRegistry, sim, service=None, injector=None,
                 ledger=None) -> None:
    """Mirror one simulated signing run: the simulator and its channels,
    plus whichever of the service (metrics + health scoreboard), the
    fault injector and the ledger the run has."""
    bind_simulator(registry, sim)
    if service is not None:
        bind_service_metrics(registry, service.metrics)
        bind_failover_health(registry, service.health)
    if injector is not None:
        bind_fault_injector(registry, injector)
    if ledger is not None:
        bind_ledger(registry, ledger)
