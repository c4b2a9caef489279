"""Unified observability: metrics registry, protocol-phase tracer, exporters.

The paper's whole evaluation is an accounting exercise — Exp/Pair counts
(Table I), communication bytes (Figure 6), per-phase latency (Tables
II–III) — so this package makes every run of the reproduction measurable
in exactly those units:

* :mod:`repro.obs.registry` — Counter/Gauge/Histogram families with labels
  and pull-collectors; one registry snapshot captures a whole run;
* :mod:`repro.obs.tracer` — nested protocol-phase spans on an injected
  clock (virtual time in the simulator, monotonic otherwise) that record
  the Exp/Pair operations performed while open;
* :mod:`repro.obs.adapters` — absorb the pre-existing accumulators
  (``OperationCounter``, ``ServiceMetrics``, simulator channel stats);
* :mod:`repro.obs.exporters` — JSONL traces, Prometheus text exposition,
  and the per-phase cost table checked against
  :mod:`repro.analysis.cost_model`.

:class:`Observability` bundles one registry + tracer + operation counter;
instrumented constructors take ``obs=None`` and default to the shared
:data:`NULL_OBS`, whose tracer is a no-op, so disabled instrumentation
costs one attribute lookup per phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.adapters import (
    bind_failover_health,
    bind_fault_injector,
    bind_ledger,
    bind_operation_counter,
    bind_service_metrics,
    bind_sim_run,
    bind_simulator,
    bind_tracer_spans,
    bind_verifier_cache,
)
from repro.obs.bench import (
    BenchSchemaError,
    SCHEMA_VERSION,
    append_run,
    baseline_of,
    environment_fingerprint,
    load_trajectory,
    make_phase,
    make_run,
    measure_ops_and_wall,
    run_suite,
    trajectory_path,
    validate_run,
    write_run_file,
)
from repro.obs.causal import (
    CriticalPath,
    TraceStreamError,
    critical_path,
    critical_path_report,
    exemplar_buckets,
    load_trace,
    quantile_exemplar,
    spans_from_tracer,
    trace_trees,
)
from repro.obs.dashboard import Dashboard
from repro.obs.exporters import (
    PHASE_PROOF_GEN,
    PHASE_PROOF_VERIFY,
    PHASE_SIGN,
    cost_table,
    model_equivalent_exp,
    phase_cost_rows,
    prometheus_text,
    span_to_dict,
    trace_header,
    trace_to_jsonl,
    write_metrics_text,
    write_trace_jsonl,
)
from repro.obs.ledger import (
    Ledger,
    LedgerError,
    LedgerVerification,
    iter_ledger,
    ledger_head,
    read_ledger,
    verify_ledger,
)
from repro.obs.meter import Meter
from repro.obs.slo import (
    AlertEngine,
    BurnRateWindow,
    LatencyTap,
    SLOObjective,
    bind_sli_sources,
    compile_rules,
    default_windows,
    error_budget_report,
)
from repro.obs.profiler import build_profile, render_profile
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Sample,
    bucket_quantile,
)
from repro.obs.regress import (
    RegressionConfig,
    RegressionReport,
    compare_runs,
)
from repro.obs.timeseries import SeriesRing, TimeSeriesStore, fraction_over
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.pairing.interface import OperationCounter


@dataclass
class Observability:
    """One run's registry + tracer + shared operation counter."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    counter: OperationCounter = field(default_factory=OperationCounter)

    @classmethod
    def create(cls, clock=None) -> "Observability":
        """A wired bundle: tracer records op deltas, registry mirrors them."""
        counter = OperationCounter()
        obs = cls(
            registry=MetricsRegistry(),
            tracer=Tracer(clock=clock, counter=counter),
            counter=counter,
        )
        bind_operation_counter(obs.registry, counter)
        bind_tracer_spans(obs.registry, obs.tracer)
        return obs

    @property
    def enabled(self) -> bool:
        return True

    def observe_group(self, group) -> None:
        """Attach the shared counter to a pairing group's op tally hook."""
        group.attach_counter(self.counter)


class _NullObservability:
    """The disabled bundle every instrumented constructor defaults to."""

    enabled = False
    registry = None
    counter = None
    tracer = NULL_TRACER

    def observe_group(self, group) -> None:
        pass


NULL_OBS = _NullObservability()

__all__ = [
    "AlertEngine",
    "BenchSchemaError",
    "BurnRateWindow",
    "Counter",
    "CriticalPath",
    "Dashboard",
    "Gauge",
    "Histogram",
    "LatencyTap",
    "Ledger",
    "LedgerError",
    "LedgerVerification",
    "Meter",
    "MetricError",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "OperationCounter",
    "PHASE_PROOF_GEN",
    "PHASE_PROOF_VERIFY",
    "PHASE_SIGN",
    "RegressionConfig",
    "RegressionReport",
    "SCHEMA_VERSION",
    "SLOObjective",
    "Sample",
    "SeriesRing",
    "Span",
    "TimeSeriesStore",
    "TraceStreamError",
    "Tracer",
    "append_run",
    "baseline_of",
    "bind_failover_health",
    "bind_fault_injector",
    "bind_ledger",
    "bind_operation_counter",
    "bind_service_metrics",
    "bind_sim_run",
    "bind_simulator",
    "bind_sli_sources",
    "bind_tracer_spans",
    "bind_verifier_cache",
    "bucket_quantile",
    "build_profile",
    "compare_runs",
    "compile_rules",
    "cost_table",
    "critical_path",
    "critical_path_report",
    "default_windows",
    "environment_fingerprint",
    "error_budget_report",
    "exemplar_buckets",
    "fraction_over",
    "iter_ledger",
    "ledger_head",
    "load_trace",
    "load_trajectory",
    "make_phase",
    "make_run",
    "measure_ops_and_wall",
    "model_equivalent_exp",
    "phase_cost_rows",
    "prometheus_text",
    "quantile_exemplar",
    "read_ledger",
    "render_profile",
    "run_suite",
    "span_to_dict",
    "spans_from_tracer",
    "trace_header",
    "trace_to_jsonl",
    "trace_trees",
    "trajectory_path",
    "validate_run",
    "verify_ledger",
    "write_metrics_text",
    "write_run_file",
]
