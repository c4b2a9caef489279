"""Live terminal dashboard for the simulated signing service.

``repro-pdp serve-sim --watch`` renders a frame every ``interval_s``
*virtual* seconds: the dashboard schedules itself on the simulator's
timer wheel, so it works identically under virtual time (deterministic,
reproducible frames for a seeded run) and costs the protocol nothing —
rendering only reads the metrics registry, which performs zero group
operations (collectors copy integers; no Exp, no Pair).

Each frame shows the signals an operator of the batching service watches:
queue depth against its high-water mark, batch count/size, failover
state (retries, failover rounds, crash-survivable completions), wire
drop counters, and sign-latency quantiles derived from the registry
histogram's buckets (p50/p95/p99 via linear interpolation — the same
estimator the Prometheus exposition summary line uses).
"""

from __future__ import annotations

import math
import sys

from repro.obs.registry import MetricsRegistry

#: Quantiles every frame reports for the sign latency histogram.
LATENCY_QUANTILES = (0.5, 0.95, 0.99)


class Dashboard:
    """Periodic registry-snapshot renderer on an injected clock.

    Args:
        registry: the run's :class:`MetricsRegistry` (already bound to the
            service metrics and simulator via the ``bind_*`` adapters).
        clock: zero-argument callable giving the current time for the
            frame header; under the simulator pass ``lambda: sim.now``.
        out: writable stream frames go to (default ``sys.stdout``).
        interval_s: default period between frames.
        latency_metric: name of the latency histogram family to derive
            quantiles from.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        clock=None,
        out=None,
        interval_s: float = 0.05,
        latency_metric: str = "service_latency_seconds",
    ):
        self.registry = registry
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.out = out if out is not None else sys.stdout
        self.interval_s = interval_s
        self.latency_metric = latency_metric
        self.frames_rendered = 0
        # Flight-recorder hook: a zero-argument callable returning the live
        # (latency_s, trace_id) pairs, so frames can surface the exemplar
        # trace id behind the slowest completion observed so far.
        self.exemplar_source = None
        # SLO hook: a zero-argument callable returning an alert-engine
        # panel dict ({"firing": [...], "burn": {objective: rate}}), so
        # frames can surface firing alerts and the worst burn rates.
        self.slo_source = None

    # -- data ----------------------------------------------------------------
    def _latency_quantiles(self) -> dict[float, float]:
        family = self.registry._metrics.get(self.latency_metric)
        if family is None:
            return {}
        child = family._children.get(())
        if child is None or child.count == 0:
            return {}
        return {q: child.quantile(q) for q in LATENCY_QUANTILES}

    # -- rendering -----------------------------------------------------------
    def render_frame(self) -> str:
        """One frame of the dashboard as text (no trailing newline)."""
        snap = self.registry.snapshot()

        def val(key: str, default: float = 0.0) -> float:
            return snap.get(key, default)

        def num(key: str) -> str:
            value = val(key)
            return str(int(value)) if float(value).is_integer() else f"{value:.2f}"

        def wire_total(family: str) -> int:
            return int(sum(
                value for key, value in snap.items()
                if key.startswith(f"sim_channel_{family}{{")
            ))

        drops = wire_total("dropped")
        duplicated = wire_total("duplicated")
        reordered = wire_total("reordered")
        corrupted = wire_total("corrupted")
        chaos = int(sum(
            value for key, value in snap.items()
            if key.startswith("chaos_injected{")
        ))
        title = f" serve-sim t={self.clock():.3f}s "
        lines = [f"--{title}{'-' * max(46 - len(title), 0)}"]
        lines.append(
            f"  queue depth {num('service_queue_depth'):>6}   "
            f"high-water {num('service_queue_high_watermark')}"
        )
        lines.append(
            f"  batches     {num('service_batches'):>6}   "
            f"mean size  {val('service_batch_size_mean'):.1f}"
        )
        lines.append(
            f"  signatures  {num('service_signatures_produced'):>6}   "
            f"completed  {num('service_completed')}"
            f"  failed {num('service_failed')}"
        )
        lines.append(
            f"  failover    {num('service_failovers'):>6}   "
            f"retries    {num('service_retries')}"
            f"  rejected {num('service_rejected')}"
        )
        lines.append(
            f"  wire drops  {drops:>6}   "
            f"delivered  {num('sim_delivered')}"
            f"  dropped {num('sim_dropped')}"
        )
        if chaos or duplicated or reordered or corrupted:
            lines.append(
                f"  wire chaos  {chaos:>6}   "
                f"dup {duplicated}  reord {reordered}  corrupt {corrupted}"
                f"  quarantined {num('failover_health_quarantined')}"
            )
        quantiles = self._latency_quantiles()
        if quantiles:
            rendered = "  ".join(
                f"p{int(q * 100)} {value:.3f}s"
                for q, value in sorted(quantiles.items())
                if not math.isnan(value)
            )
            lines.append(f"  sign latency  {rendered}")
        else:
            lines.append("  sign latency  (no completions yet)")
        if self.exemplar_source is not None:
            pairs = list(self.exemplar_source())
            if pairs:
                latency, trace_id = max(pairs)
                lines.append(
                    f"  exemplar      trace {trace_id} ({latency:.3f}s, "
                    "slowest completion)"
                )
        if self.slo_source is not None:
            panel = self.slo_source()
            firing = panel.get("firing", [])
            lines.append(
                f"  alerts        "
                + (", ".join(firing) if firing else "none firing")
            )
            burns = sorted(panel.get("burn", {}).items(),
                           key=lambda kv: -kv[1])[:3]
            if burns:
                rendered = "  ".join(f"{name} x{rate:.1f}"
                                     for name, rate in burns)
                lines.append(f"  burn rate     {rendered}")
        ledger_entries = int(sum(
            value for key, value in snap.items()
            if key.startswith("ledger_entries_total{")
        ))
        if ledger_entries:
            lines.append(
                f"  ledger        {ledger_entries} entries   "
                f"spans {num('trace_spans_total')}"
            )
        return "\n".join(lines)

    def tick(self):
        """Render one frame to ``out`` (the scheduled-timer callback)."""
        self.out.write(self.render_frame() + "\n")
        self.frames_rendered += 1
        return None

    # -- scheduling ----------------------------------------------------------
    def attach(self, sim, interval_s: float | None = None) -> None:
        """Render a frame every ``interval_s`` virtual seconds of ``sim``.

        Runs on the simulator's daemon periodic timer: frames render
        while the protocol has pending events, and watching never keeps
        the run alive past its last real event.
        """
        interval = self.interval_s if interval_s is None else interval_s
        sim.every(interval, lambda _now: self.tick())
