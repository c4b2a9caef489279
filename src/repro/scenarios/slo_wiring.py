"""Wire a scenario's ``slos:`` component onto a simulated run.

The schema (:class:`repro.scenarios.schema.SLOSpec`) stays declarative;
:class:`SLOHarness` is the bridge to the obs machinery for every driver
that runs SLOs — the compiled node graph and the fleet drill.  It
mirrors the caller's SLI sources into the run's registry, arms the
virtual-time sampler (:class:`repro.obs.timeseries.TimeSeriesStore`) and
the alert engine (:class:`repro.obs.slo.AlertEngine`) on the simulator's
periodic timer, and installs the caller's per-scope
:class:`repro.obs.meter.Meter`, if any.  :func:`compiled_sli_sources`
and :func:`compiled_meter` build those inputs for a compiled scenario.

Everything is bound **only when the scenario declares SLOs**, so plain
runs keep their golden metric expositions and digests byte-identical.
"""

from __future__ import annotations

from repro.obs.exporters import counter_model_exp
from repro.obs.meter import Meter
from repro.obs.slo import (
    SLI_BAD,
    SLI_DROPPED,
    SLI_EXP,
    SLI_FINISHED,
    SLI_INVALID,
    SLI_MESSAGES,
    SLI_PAIR,
    SLI_REQUESTS,
    AlertEngine,
    BurnRateWindow,
    LatencyTap,
    SLOObjective,
    bind_sli_sources,
    compile_rules,
    error_budget_report,
)
from repro.obs.timeseries import TimeSeriesStore
from repro.scenarios.schema import BurnWindowSpec, ObjectiveSpec, Scenario, SLOSpec

__all__ = [
    "SLOHarness",
    "compiled_meter",
    "compiled_sli_sources",
    "default_slo_spec",
    "objectives_from_spec",
]

#: Default sampler cadence: this many windows across the run duration.
SAMPLES_PER_RUN = 50
#: Default metering cadence: epochs per run duration.
EPOCHS_PER_RUN = 5


def objectives_from_spec(spec: SLOSpec) -> list[SLOObjective]:
    """Schema objectives → runtime objectives (windows carried through)."""
    out = []
    for o in spec.objectives:
        windows = tuple(
            BurnRateWindow(long_s=w.long_s, short_s=w.short_s,
                           burn_rate=w.burn_rate, severity=w.severity)
            for w in o.windows
        )
        out.append(SLOObjective(
            name=o.name, signal=o.signal, target=o.target,
            threshold_s=o.threshold_s, op=o.op,
            budget_per_request=o.budget_per_request, windows=windows,
        ))
    return out


def default_slo_spec() -> SLOSpec:
    """The stock objectives ``serve-sim --slo`` attaches to a flag-built run.

    Flag-built runs issue everything at t = 0 and drain as fast as the
    protocol allows (their declared duration is only a horizon), so the
    sampler and metering cadences are pinned to the sub-second scale of
    the actual traffic instead of being derived from the horizon.
    """
    return SLOSpec(
        objectives=(
            ObjectiveSpec(name="availability", signal="availability",
                          target=0.95,
                          windows=(BurnWindowSpec(long_s=0.2, short_s=0.05,
                                                  burn_rate=4.0),)),
            ObjectiveSpec(name="drops", signal="drop_rate", target=0.75,
                          windows=(BurnWindowSpec(long_s=0.2, short_s=0.05,
                                                  burn_rate=4.0),)),
            ObjectiveSpec(name="latency-p90", signal="latency", target=0.90,
                          threshold_s=1.0,
                          windows=(BurnWindowSpec(long_s=0.2, short_s=0.05,
                                                  burn_rate=4.0),)),
        ),
        sample_interval_s=0.02,
        epoch_s=0.1,
    )


class SLOHarness:
    """Everything SLO-shaped for one run, armed on the timer wheel.

    The caller hands in what the run measures: ``sli_sources`` (SLI name
    → zero-arg cumulative reader), the completion-latency lists the
    :class:`LatencyTap` absorbs, and an optional metering
    :class:`~repro.obs.meter.Meter`.  Construction mirrors the SLIs into
    the registry, arms the sampler + alert engine (and the meter's epoch
    timer) on the simulator's periodic timer; :meth:`finalize` runs the
    last evaluation at the end of virtual time, computes the error-budget
    rows, and closes the metering epoch (before the runner seals the
    ledger, so metering records precede the ``run_summary`` entry).
    """

    def __init__(self, scenario: Scenario, sim, registry, sli_sources: dict,
                 latency_sources=(), meter: Meter | None = None):
        spec = scenario.slos
        duration = scenario.settings.duration_s
        self.spec = spec
        self.objectives = objectives_from_spec(spec)
        self.duration = duration
        sources = bind_sli_sources(registry, sli_sources)
        self.tap = LatencyTap(registry)
        for latencies in latency_sources:
            self.tap.add_source(latencies)
        self.store = TimeSeriesStore(sources, self.tap)
        self.engine = AlertEngine(
            compile_rules(self.objectives, duration), self.store
        )
        self.store.on_sample = self.engine.evaluate
        self.store.sample(sim.now)  # t=0 baseline for partial-window math
        sim.every(spec.sample_interval_s or duration / SAMPLES_PER_RUN,
                  self.store.sample, until_s=duration)
        self.meter = meter
        if meter is not None:
            meter.install(sim)
            sim.every(spec.epoch_s or duration / EPOCHS_PER_RUN,
                      meter.roll, until_s=duration)
        self.budget_rows: list[dict] = []
        self._finalized = False

    # -- end of run ----------------------------------------------------------
    def finalize(self, virtual_end: float) -> None:
        if self._finalized:
            return
        self._finalized = True
        self.store.sample(virtual_end)  # closes the last window + evaluates
        self.budget_rows = error_budget_report(
            self.objectives, self.store, self.duration, virtual_end
        )
        if self.meter is not None:
            self.meter.close(virtual_end)

    def record(self, result) -> None:
        """Copy the SLO plane onto a :class:`ScenarioResult`."""
        result.alerts = list(self.engine.timeline)
        result.fired_alerts = self.engine.fired()
        result.expected_alerts = list(self.spec.expected_alerts)
        result.error_budgets = list(self.budget_rows)
        meter = self.meter
        result.metering = list(meter.records) if meter else []
        result.metering_close = dict(meter.close_record) if meter else {}


# -- the compiled-scenario sources ---------------------------------------------
def compiled_sli_sources(compiled) -> dict:
    """The SLI readers of a compiled node graph (cohorts, services, wire)."""
    sim = compiled.sim
    counter = compiled.counter
    services = list(compiled.services.values())
    cohorts = list(compiled.cohorts.values())
    issued = lambda: sum(c.issued for c in cohorts)
    completed = lambda: sum(len(c.completed) for c in cohorts)
    failed = lambda: sum(len(c.failed) for c in cohorts)
    return {
        SLI_REQUESTS: issued,
        SLI_FINISHED: lambda: completed() + failed(),
        SLI_BAD: failed,
        SLI_MESSAGES: lambda: sim.delivered + sim.dropped,
        SLI_DROPPED: lambda: sim.dropped,
        SLI_EXP: lambda: counter_model_exp(counter),
        SLI_PAIR: lambda: counter.pairings,
        SLI_INVALID: lambda: sum(
            s.health.summary()["invalid_total"] for s in services
        ),
    }


def compiled_meter(scenario: Scenario, compiled, ledger=None) -> Meter:
    """The per-scope meter of a compiled node graph, sources attached."""
    meter = Meter(compiled.counter, _scope_map(scenario), ledger=ledger)
    _add_usage_sources(meter, compiled)
    return meter


def _scope_map(scenario: Scenario) -> dict[str, str]:
    scope: dict[str, str] = {}
    for spec in scenario.topology.sem_groups:
        scope[f"svc-{spec.name}"] = f"group:{spec.name}"
        for j in range(spec.w):
            scope[f"sem-{spec.name}-{j}"] = f"group:{spec.name}"
    for cohort in scenario.workload.cohorts:
        scope[f"c-{cohort.name}"] = f"cohort:{cohort.name}"
    for cloud in scenario.topology.clouds:
        scope[cloud.name] = f"cloud:{cloud.name}"
    for verifier in scenario.topology.verifiers:
        scope[verifier.name] = f"verifier:{verifier.name}"
    return scope


def _add_usage_sources(meter: Meter, compiled) -> None:
    sim = compiled.sim
    scope_of = meter.scope_of

    def bytes_sent_by(scope: str):
        return sum(
            ch.stats.bytes_total
            for (src, _dst), ch in sim._channels.items()
            if scope_of.get(src) == scope
        )

    def group_source(scope, service):
        return lambda: {
            "requests": service.metrics.submitted,
            "signatures": service.metrics.signatures_produced,
            "bytes": bytes_sent_by(scope),
        }

    def cohort_source(scope, issued, completed):
        return lambda: {
            "requests": issued(),
            "signatures": completed(),
            "bytes": bytes_sent_by(scope),
        }

    for gname, service in compiled.services.items():
        scope = f"group:{gname}"
        meter.add_source(scope, group_source(scope, service))
    for cname, node in compiled.cohorts.items():
        scope = f"cohort:{cname}"
        meter.add_source(scope, cohort_source(
            scope,
            (lambda n: lambda: n.issued)(node),
            (lambda n: lambda: len(n.completed))(node),
        ))
    for vname, node in compiled.verifiers.items():
        scope = f"verifier:{vname}"
        meter.add_source(scope, (lambda s, n: lambda: {
            "requests": n.audits_passed + n.audits_failed,
            "signatures": 0,
            "bytes": bytes_sent_by(s),
        })(scope, node))
    for clname, node in compiled.clouds.items():
        scope = f"cloud:{clname}"
        meter.add_source(scope, (lambda s, n: lambda: {
            "requests": n.server.stored_files,
            "signatures": 0,
            "bytes": bytes_sent_by(s),
        })(scope, node))
