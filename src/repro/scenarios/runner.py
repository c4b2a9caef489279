"""Execute a compiled scenario and judge it against its envelope.

The runner owns the full lifecycle: compile → arm workload → drain the
simulator → collect metrics → check the acceptance envelope → emit a
verdict report.  Everything it reports splits into two planes:

* the **deterministic plane** — completions, latencies, byte counts, op
  tallies, fault counts — a pure function of the scenario document and
  its seed.  :meth:`ScenarioResult.digest` hashes exactly this plane, so
  two runs of one scenario must produce identical digests (the
  determinism tests replay a million-user scenario and assert it);
* the **wall plane** — host execution time — reported for humans and
  excluded from the digest.

Verdict reports follow the bench-run discipline (committed-schema JSON,
sorted keys) so CI can archive them next to ``BENCH_<suite>.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.schema import EnvelopeSpec, Scenario

#: Verdict report schema identifier (bump on breaking changes).
VERDICT_SCHEMA = "repro-scenario-verdict-v1"


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass(frozen=True)
class EnvelopeViolation:
    """One acceptance-envelope check that failed."""

    check: str
    limit: float
    observed: float
    detail: str = ""

    def render(self) -> str:
        rendered = f"{self.check}: observed {self.observed:.6g} vs limit {self.limit:.6g}"
        if self.detail:
            rendered += f" ({self.detail})"
        return rendered


@dataclass
class ScenarioResult:
    """The runner's complete accounting of one finished run."""

    scenario: Scenario
    issued: int = 0
    completed: int = 0
    failed: int = 0
    dropped_messages: int = 0
    delivered_messages: int = 0
    bytes_on_wire: int = 0
    virtual_duration_s: float = 0.0
    wall_s: float = 0.0                      # excluded from the digest
    latencies: list[float] = field(default_factory=list)
    ops: dict[str, int] = field(default_factory=dict)
    cohorts: dict[str, dict] = field(default_factory=dict)
    clouds: dict[str, dict] = field(default_factory=dict)
    verifiers: dict[str, dict] = field(default_factory=dict)
    services: dict[str, dict] = field(default_factory=dict)
    fault_counts: dict[str, int] = field(default_factory=dict)
    violations: list[EnvelopeViolation] = field(default_factory=list)
    # Flight recorder (populated only when a ledger / enabled obs ran):
    ledger: dict | None = None               # chain head: entries/epoch/hash
    critical_path: dict | None = None        # p99 exemplar's hop attribution
    exemplars: list | None = None            # latency buckets → trace ids
    # Fleet drill (populated only when the scenario declares topology.fleet):
    fleet: dict | None = None                # durability + repair accounting
    # Dynamic drill (populated only when workload.dynamic is declared):
    dynamic: dict | None = None              # update batches + audit tallies
    # SLO engine (populated only when the scenario declares slos:):
    alerts: list | None = None               # alert state-machine timeline
    fired_alerts: list | None = None         # deduplicated objective:severity
    expected_alerts: list | None = None      # what the document declared
    error_budgets: list | None = None        # per-objective budget rows
    metering: list | None = None             # epoch metering records
    metering_close: dict | None = None       # closing grand totals per scope

    @property
    def lost(self) -> int:
        """Requests that never got a terminal response (dropped in flight)."""
        return self.issued - self.completed - self.failed

    @property
    def drop_rate(self) -> float:
        total = self.delivered_messages + self.dropped_messages
        return self.dropped_messages / total if total else 0.0

    @property
    def latency_p50_s(self) -> float:
        return percentile(sorted(self.latencies), 0.50)

    @property
    def latency_p99_s(self) -> float:
        return percentile(sorted(self.latencies), 0.99)

    def model_ops(self) -> dict[str, int]:
        """Raw counter tallies folded into the paper's Table I units."""
        from repro.obs.exporters import model_equivalent_exp

        return {"exp": model_equivalent_exp(self.ops),
                "pair": self.ops.get("pairings", 0)}

    def ops_per_request(self, key: str) -> float:
        """Model-equivalent ``exp``/``pair`` operations per issued request."""
        return self.model_ops()[key] / self.issued if self.issued else 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    # -- determinism ---------------------------------------------------------
    def deterministic_view(self) -> dict:
        """The digest's input: every metric that must replay identically."""
        view = {
            "scenario": self.scenario.name,
            "seed": self.scenario.settings.seed,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "lost": self.lost,
            "dropped_messages": self.dropped_messages,
            "delivered_messages": self.delivered_messages,
            "bytes_on_wire": self.bytes_on_wire,
            "virtual_duration_s": round(self.virtual_duration_s, 9),
            "latencies": [round(v, 9) for v in self.latencies],
            "ops": dict(sorted(self.ops.items())),
            "cohorts": {k: self.cohorts[k] for k in sorted(self.cohorts)},
            "clouds": {k: self.clouds[k] for k in sorted(self.clouds)},
            "verifiers": {k: self.verifiers[k] for k in sorted(self.verifiers)},
            "fault_counts": dict(sorted(self.fault_counts.items())),
        }
        if self.ledger is not None:
            # The chain head joins the deterministic plane: a double run
            # must reproduce the ledger bit-for-bit, hash and all.
            # (Conditional, so ledger-less digests stay stable.)
            view["ledger"] = self.ledger
        if self.fleet is not None:
            # The quarantine/repair timeline is a pure function of the
            # scenario + seed, so the whole fleet block joins the plane.
            view["fleet"] = self.fleet
        if self.dynamic is not None:
            # Same deal for the update timeline: every batch receipt and
            # audit verdict must replay bit-identically.
            view["dynamic"] = self.dynamic
        if self.alerts is not None:
            # The alert timeline and metering records join the plane the
            # same way: a double run must replay them bit-identically.
            view["slo"] = {
                "alerts": self.alerts,
                "fired": self.fired_alerts,
                "error_budgets": self.error_budgets,
                "metering": self.metering,
                "metering_close": self.metering_close,
            }
        return view

    def digest(self) -> str:
        canonical = json.dumps(self.deterministic_view(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- reporting -----------------------------------------------------------
    def to_report(self) -> dict:
        """The verdict document written by ``repro-pdp scenario run``."""
        return {
            "schema": VERDICT_SCHEMA,
            "scenario": self.scenario.name,
            "description": self.scenario.description,
            "seed": self.scenario.settings.seed,
            "verdict": "pass" if self.passed else "fail",
            "checks": self.scenario.settings.envelope.checks,
            "violations": [
                {"check": v.check, "limit": v.limit, "observed": v.observed,
                 **({"detail": v.detail} if v.detail else {})}
                for v in self.violations
            ],
            "digest": self.digest(),
            "wall_s": self.wall_s,
            "metrics": {
                "issued": self.issued,
                "completed": self.completed,
                "failed": self.failed,
                "lost": self.lost,
                "drop_rate": self.drop_rate,
                "latency_p50_s": self.latency_p50_s,
                "latency_p99_s": self.latency_p99_s,
                "virtual_duration_s": self.virtual_duration_s,
                "bytes_on_wire": self.bytes_on_wire,
                "exp_per_request": self.ops_per_request("exp"),
                "pair_per_request": self.ops_per_request("pair"),
            },
            "population": {
                "total_members": self.scenario.workload.total_members,
                "cohorts": {k: self.cohorts[k] for k in sorted(self.cohorts)},
            },
            "clouds": {k: self.clouds[k] for k in sorted(self.clouds)},
            "verifiers": {k: self.verifiers[k] for k in sorted(self.verifiers)},
            "services": {k: self.services[k] for k in sorted(self.services)},
            "fault_counts": dict(sorted(self.fault_counts.items())),
            **({"fleet": self.fleet} if self.fleet is not None else {}),
            **({"dynamic": self.dynamic} if self.dynamic is not None else {}),
            "flight_recorder": {
                "ledger": self.ledger,
                "critical_path": self.critical_path,
                "exemplars": self.exemplars,
            },
            **({"slo": {
                "objectives": [
                    {"name": o.name, "signal": o.signal, "target": o.target}
                    for o in self.scenario.slos.objectives
                ],
                "expected_alerts": self.expected_alerts,
                "fired": self.fired_alerts,
                "error_budgets": self.error_budgets,
                "alerts": self.alerts,
                "metering": self.metering,
                "metering_close": self.metering_close,
            }} if self.alerts is not None and self.scenario.slos is not None
               else {}),
        }


def check_envelope(result: ScenarioResult,
                   envelope: EnvelopeSpec) -> list[EnvelopeViolation]:
    """Every envelope check that the finished run violates."""
    fleet = result.fleet or {}
    dyn = result.dynamic or {}
    observed = {
        "max_p99_latency_s": result.latency_p99_s,
        "max_p50_latency_s": result.latency_p50_s,
        "max_drop_rate": result.drop_rate,
        "max_failed": float(result.failed),
        "min_completed": float(result.completed),
        "max_exp_per_request": result.ops_per_request("exp"),
        "max_pair_per_request": result.ops_per_request("pair"),
        "max_virtual_duration_s": result.virtual_duration_s,
        # Durability checks read the fleet block; a fleet-less run that
        # declares them observes zeros (max_* pass vacuously, min_* fail).
        "max_unrecoverable_files": float(fleet.get("unrecoverable_files", 0)),
        "min_repaired_slices": float(fleet.get("repaired_slices", 0)),
        "max_post_repair_audit_failures": float(
            fleet.get("post_repair_audit_failures", 0)),
        "max_repair_duration_s": float(fleet.get("repair_duration_s", 0.0)),
        # Dynamic-tier checks read the dynamic block the same way.
        "min_update_batches": float(dyn.get("update_batches", 0)),
        "max_resigned_blocks_per_batch": float(
            dyn.get("max_resigned_per_batch", 0)),
        "min_dynamic_audits": float(dyn.get("audits_ok", 0)),
    }
    violations = []
    for check in envelope.checks:
        limit = float(getattr(envelope, check))
        value = observed[check]
        breached = value < limit if check.startswith("min_") else value > limit
        if breached:
            violations.append(EnvelopeViolation(check=check, limit=limit,
                                                observed=value))
    return violations


class ScenarioRunner:
    """Compile, execute, and judge one scenario.

    ``scenario run``, ``serve-sim --scenario`` and the ``serve-sim`` flag
    set (synthesized into a scenario by :mod:`repro.scenarios.legacy`)
    all run through here and :func:`compile_scenario`.  ``journal`` backs
    the single SEM group's service; ``replayed`` counts the journaled
    requests it re-queued at startup.
    """

    def __init__(self, scenario: Scenario, obs=None, journal=None,
                 max_events: int | None = None, ledger=None):
        self.scenario = scenario
        self.obs = obs
        self.journal = journal
        self.max_events = max_events
        self.ledger = ledger
        self.compiled: CompiledScenario | None = None
        self.slo = None                      # SLOHarness when slos: declared
        self.replayed = 0

    def compile(self) -> CompiledScenario:
        if self.compiled is None:
            if self.scenario.slos is not None and (
                    self.obs is None or not self.obs.enabled):
                # The SLO engine mirrors its SLIs into the run's registry
                # (the engine itself samples only the declared series), so
                # a scenario that declares objectives implies observability.
                from repro.obs import Observability

                self.obs = Observability.create()
            self.compiled = compile_scenario(self.scenario, obs=self.obs,
                                             ledger=self.ledger,
                                             journal=self.journal)
            self.replayed = self.compiled.replayed
            if self.scenario.slos is not None:
                from repro.scenarios.slo_wiring import (
                    SLOHarness,
                    compiled_meter,
                    compiled_sli_sources,
                )

                compiled = self.compiled
                self.slo = SLOHarness(
                    self.scenario, compiled.sim, self.obs.registry,
                    compiled_sli_sources(compiled),
                    latency_sources=[c.latencies
                                     for c in compiled.cohorts.values()],
                    meter=compiled_meter(self.scenario, compiled, self.ledger),
                )
        return self.compiled

    def run(self) -> ScenarioResult:
        if self.scenario.workload.dynamic is not None:
            return self._run_dynamic()
        if self.scenario.topology.fleet is not None:
            return self._run_fleet()
        compiled = self.compile()
        started = time.perf_counter()
        compiled.start_workload()
        virtual_end = compiled.sim.run(max_events=self.max_events)
        if self.slo is not None:
            # Last evaluation + metering close happen before the ledger
            # is sealed, so metering records precede the run_summary.
            self.slo.finalize(virtual_end)
        result = self._collect(compiled, virtual_end)
        if self.ledger is not None:
            self._seal_ledger(result)
        result.wall_s = time.perf_counter() - started
        result.violations = check_envelope(result,
                                           self.scenario.settings.envelope)
        if self.slo is not None:
            result.violations.extend(self._check_expected_alerts(result))
        return result

    def _run_fleet(self) -> ScenarioResult:
        """The storage-drill path: no compiled node graph, the fleet store
        drives the simulator directly (see scenarios/fleet_drill.py)."""
        from repro.scenarios.fleet_drill import FleetDrill

        started = time.perf_counter()
        drill = FleetDrill(self.scenario, obs=self.obs, ledger=self.ledger)
        self.obs = drill.obs          # drill may have enabled obs for SLOs
        self.slo = drill.slo
        virtual_end = drill.run()
        result = ScenarioResult(scenario=self.scenario)
        result.virtual_duration_s = virtual_end
        result.issued = drill.checks_issued
        result.completed = drill.ok_proofs
        result.failed = drill.invalid_proofs + drill.timeouts
        result.ops = {k: v for k, v in drill.counter.snapshot().items() if v}
        result.fleet = drill.summary()
        result.fault_counts = dict(sorted(drill.fault_counts.items()))
        for name in self.scenario.topology.fleet.server_names():
            handle = drill.fleet.handles[name]
            result.clouds[name] = {
                "files_stored": handle.server.stored_files,
                "online": handle.online,
            }
        if self.slo is not None:
            self.slo.record(result)
        if self.ledger is not None:
            self._seal_ledger(result)
        result.wall_s = time.perf_counter() - started
        result.violations = check_envelope(result,
                                           self.scenario.settings.envelope)
        if self.slo is not None:
            result.violations.extend(self._check_expected_alerts(result))
        return result

    def _run_dynamic(self) -> ScenarioResult:
        """The update-drill path: no compiled node graph, the dynamic
        store drives the simulator directly (see scenarios/dynamic_drill.py).
        An update batch counts as one issued-and-completed request; a
        dynamic audit is issued too and fails when its proof does."""
        from repro.scenarios.dynamic_drill import DynamicDrill

        started = time.perf_counter()
        drill = DynamicDrill(self.scenario, obs=self.obs, ledger=self.ledger)
        self.obs = drill.obs
        virtual_end = drill.run()
        result = ScenarioResult(scenario=self.scenario)
        result.virtual_duration_s = virtual_end
        result.issued = drill.update_batches + drill.audits_done
        result.completed = drill.update_batches + drill.audits_ok
        result.failed = drill.audits_failed
        result.ops = {k: v for k, v in drill.counter.snapshot().items() if v}
        result.dynamic = drill.summary()
        if self.ledger is not None:
            self._seal_ledger(result)
        result.wall_s = time.perf_counter() - started
        result.violations = check_envelope(result,
                                           self.scenario.settings.envelope)
        return result

    def _check_expected_alerts(self,
                               result: ScenarioResult) -> list[EnvelopeViolation]:
        """Expected-alerts-exactly: the declared set must equal the fired
        set — a silent alert is as much a failure as a spurious one."""
        from repro.obs.slo import check_expected

        unexpected, missing = check_expected(result.fired_alerts or [],
                                             result.expected_alerts or [])
        violations = []
        if unexpected:
            violations.append(EnvelopeViolation(
                check="slo_unexpected_alerts", limit=0.0,
                observed=float(len(unexpected)),
                detail="fired but not expected: " + ", ".join(unexpected)))
        if missing:
            violations.append(EnvelopeViolation(
                check="slo_missing_alerts", limit=0.0,
                observed=float(len(missing)),
                detail="expected but never fired: " + ", ".join(missing)))
        return violations

    def _seal_ledger(self, result: ScenarioResult) -> None:
        """End-of-run ledger entries, then expose the head to the digest."""
        import hashlib as _hashlib
        import os as _os

        if self.journal is not None and getattr(self.journal, "path", None):
            path = self.journal.path
            if _os.path.exists(path):
                with open(path, "rb") as handle:
                    digest = _hashlib.sha256(handle.read()).hexdigest()
                self.ledger.append("journal_segment", {
                    "sha256": digest,
                    "bytes": _os.path.getsize(path),
                })
        # Raw counts only — the scenario digest covers the ledger head, so
        # the summary must not itself depend on the digest (no cycles).
        self.ledger.append("run_summary", {
            "scenario": self.scenario.name,
            "seed": self.scenario.settings.seed,
            "issued": result.issued,
            "completed": result.completed,
            "failed": result.failed,
            "virtual_duration_s": round(result.virtual_duration_s, 9),
        })
        result.ledger = self.ledger.head()

    # -- collection ----------------------------------------------------------
    def _collect(self, compiled: CompiledScenario,
                 virtual_end: float) -> ScenarioResult:
        sim = compiled.sim
        result = ScenarioResult(scenario=self.scenario)
        result.virtual_duration_s = virtual_end
        result.dropped_messages = sim.dropped
        result.delivered_messages = sim.delivered
        result.bytes_on_wire = sim.total_bytes()
        if compiled.counter is not None:
            result.ops = {k: v for k, v in compiled.counter.snapshot().items() if v}
        for name, node in compiled.cohorts.items():
            result.issued += node.issued
            result.completed += len(node.completed)
            result.failed += len(node.failed)
            result.latencies.extend(node.latencies)
            result.cohorts[name] = node.stats()
        for name, node in compiled.clouds.items():
            result.clouds[name] = {
                "files_stored": node.server.stored_files,
            }
        for name, node in compiled.verifiers.items():
            result.verifiers[name] = {
                "audits_passed": node.audits_passed,
                "audits_failed": node.audits_failed,
                "files_watched": len(node.watched),
            }
        for name, service in compiled.services.items():
            summary = service.metrics.summary()
            health = service.health.summary()
            result.services[name] = {
                "batches": summary["batches"],
                "batch_size_mean": summary["batch_size_mean"],
                "signatures_produced": summary["signatures_produced"],
                "queue_high_watermark": summary["queue_high_watermark"],
                "retries": summary["retries"],
                "failovers": summary["failovers"],
                "latency_p50_s": summary["latency_p50_s"],
                "latency_p99_s": summary["latency_p99_s"],
                "quarantine_trips": health["trips"],
                "probes": health["probes"],
                "invalid_share_batches": health["invalid_total"],
            }
        if compiled.injector is not None:
            result.fault_counts = dict(compiled.injector.counts)
        if self.slo is not None:
            self.slo.record(result)
        self._attribute_latency(compiled, result)
        return result

    def _attribute_latency(self, compiled: CompiledScenario,
                           result: ScenarioResult) -> None:
        """Critical-path + exemplar analysis off the live causal stream."""
        if self.obs is None or not self.obs.enabled:
            return
        from repro.obs.causal import (
            critical_path_report,
            exemplar_buckets,
            spans_from_tracer,
        )

        pairs: list[tuple[float, int]] = []
        for node in compiled.cohorts.values():
            pairs.extend(node.exemplars)
        if not pairs:
            return
        spans = spans_from_tracer(self.obs.tracer)
        result.exemplars = exemplar_buckets(pairs)
        result.critical_path = critical_path_report(spans, pairs, q=0.99)


def run_scenario(scenario: Scenario, obs=None,
                 max_events: int | None = None) -> ScenarioResult:
    """One-call convenience used by tests and the bench suite."""
    return ScenarioRunner(scenario, obs=obs, max_events=max_events).run()
