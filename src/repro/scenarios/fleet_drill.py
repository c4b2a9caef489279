"""Run a scenario's ``topology.fleet`` as a deterministic durability drill.

The compiled node-graph path simulates the *signing* pipeline; a fleet
scenario instead exercises the *storage* pipeline: an erasure-coded
:class:`~repro.erasure.fleet.FleetStore` under periodic concurrent
audits, with the scenario's chaos faults killing (and restarting) whole
cloud servers mid-run.  The drill runs on the same discrete-event
simulator timer wheel, draws every random decision from seeded streams,
and records audits, quarantines, and repairs on the run ledger — so its
quarantine/repair timeline is bit-identical on a double run and every
repair verdict re-derives offline via ``repro-pdp ledger verify``.

Envelope checks the drill feeds (see
:class:`~repro.scenarios.schema.EnvelopeSpec`): ``max_unrecoverable_files``,
``min_repaired_slices``, ``max_post_repair_audit_failures``, and
``max_repair_duration_s`` (virtual seconds from the first server loss to
the last completed repair — detection latency included).

SLO objectives ride along through the same
:class:`~repro.scenarios.slo_wiring.SLOHarness` as a compiled run, fed
storage SLIs: a "request" is one slice challenge, a "bad" outcome is an
invalid proof or an unreachable server, and the ``quarantine`` signal
burns on exactly those outcomes — so a ``parity + 1``-loss plan pages
while a surviving plan stays quiet.
"""

from __future__ import annotations

from repro.erasure.fleet import FleetStore, build_demo_fleet
from repro.obs import NULL_OBS, Observability
from repro.obs.exporters import counter_model_exp
from repro.obs.slo import (
    SLI_BAD,
    SLI_DROPPED,
    SLI_EXP,
    SLI_FINISHED,
    SLI_INVALID,
    SLI_MESSAGES,
    SLI_PAIR,
    SLI_REQUESTS,
)
from repro.scenarios.schema import Scenario
from repro.scenarios.slo_wiring import SLOHarness

__all__ = ["FleetDrill"]


class FleetDrill:
    """One seeded fleet run: store files, audit on a period, self-repair.

    Owns a bare :class:`~repro.net.sim.Simulator` used purely as a
    deterministic timer wheel: audit ticks re-arm until the horizon, and
    every ``crash`` fault in the scenario's plan that targets a fleet
    server becomes an offline/online toggle at its ``at``/``until``
    times.  Everything else — challenges, proofs, quarantine, repair — is
    the :class:`~repro.erasure.fleet.FleetStore` acting at those instants.
    """

    def __init__(self, scenario: Scenario, obs=None, ledger=None, pool=None):
        from repro.net.simulator import Simulator
        from repro.pairing.interface import OperationCounter

        spec = scenario.topology.fleet
        if spec is None:
            raise ValueError("scenario has no topology.fleet")
        self.scenario = scenario
        self.spec = spec
        self.obs = obs if obs is not None else NULL_OBS
        if scenario.slos is not None and not self.obs.enabled:
            self.obs = Observability.create()
        self.ledger = ledger
        self.sim = Simulator()
        if ledger is not None:
            # Ledger timestamps advance with virtual time, like the
            # compiled path; entries are replayable, hash and all.
            ledger.clock = lambda: self.sim.now
        settings = scenario.settings
        self.fleet: FleetStore = build_demo_fleet(
            servers=spec.servers, parity=spec.parity, spares=spec.spares,
            seed=settings.seed, param_set=settings.param_set, k=settings.k,
            pool=pool, obs=self.obs if self.obs.enabled else None,
            ledger=ledger,
            quarantine_threshold=spec.quarantine_threshold,
            quarantine_rounds=spec.quarantine_rounds,
            server_names=spec.server_names(),
            genesis_extra={"scenario": scenario.name, "seed": settings.seed},
        )
        if self.obs.enabled:
            self.counter = self.obs.counter
        else:
            self.counter = OperationCounter()
            self.fleet.group.attach_counter(self.counter)
        # Running tallies the SLO signals and the result read directly.
        self.checks_issued = 0
        self.ok_proofs = 0
        self.invalid_proofs = 0
        self.timeouts = 0
        self.rounds = 0
        self.post_repair_audit_failures = 0
        self.fault_counts: dict[str, int] = {}
        self._loss_at: float | None = None
        self._repaired_at: float | None = None
        self.slo = (SLOHarness(scenario, self.sim, self.obs.registry,
                               self._sli_sources())
                    if scenario.slos is not None else None)

    def _sli_sources(self) -> dict:
        """Storage SLIs: a request is one slice challenge; an invalid proof
        or an unreachable server is a bad outcome.  Metering and latency
        do not apply to a storage drill."""
        counter = self.counter
        return {
            SLI_REQUESTS: lambda: self.checks_issued,
            SLI_FINISHED: lambda: self.checks_issued,
            SLI_BAD: lambda: self.invalid_proofs + self.timeouts,
            SLI_MESSAGES: lambda: self.checks_issued,
            SLI_DROPPED: lambda: self.timeouts,
            SLI_EXP: lambda: counter_model_exp(counter),
            SLI_PAIR: lambda: counter.pairings,
            SLI_INVALID: lambda: self.invalid_proofs + self.timeouts,
        }

    # -- drive ---------------------------------------------------------------
    def run(self) -> float:
        """Arm everything and drain the simulator; returns virtual end."""
        spec, settings = self.spec, self.scenario.settings
        rng = _payload_rng(settings.seed)
        for i in range(spec.files):
            self.fleet.store(rng.randbytes(spec.file_size),
                             f"fleet-file-{i:04d}".encode())
        self._install_faults()
        self._arm_audit_tick()
        virtual_end = self.sim.run()
        if self.slo is not None:
            self.slo.finalize(virtual_end)
        return virtual_end

    def _install_faults(self) -> None:
        server_names = set(self.spec.server_names())
        for fault in self.scenario.settings.faults:
            if fault.kind != "crash" or fault.node not in server_names:
                continue
            name = fault.node
            self.sim.schedule(fault.at, self._offline_action(name))
            if fault.until is not None:
                self.sim.schedule(fault.until, self._online_action(name))

    def _offline_action(self, name: str):
        def fire():
            self.fleet.set_online(name, False)
            self.fault_counts["crash"] = self.fault_counts.get("crash", 0) + 1
            if self._loss_at is None:
                self._loss_at = self.sim.now

        return fire

    def _online_action(self, name: str):
        def fire():
            self.fleet.set_online(name, True)
            self.fault_counts["restart"] = self.fault_counts.get("restart", 0) + 1

        return fire

    def _arm_audit_tick(self) -> None:
        spec = self.spec
        horizon = self.scenario.settings.duration_s
        sim = self.sim

        def tick():
            self.rounds += 1
            report = self.fleet.audit_round(sample_size=spec.sample_size)
            self.checks_issued += report.checks
            self.ok_proofs += report.checks - report.failures - report.timeouts
            self.invalid_proofs += report.failures
            self.timeouts += report.timeouts
            if spec.auto_repair and self.fleet.scoreboard.quarantined_names():
                repair = self.fleet.repair()
                self.post_repair_audit_failures += (
                    len(repair.completed) - repair.reaudits_passed
                )
                if repair.completed:
                    self._repaired_at = sim.now
            if sim.now + spec.audit_period_s <= horizon:
                sim.schedule(spec.audit_period_s, tick)

        sim.schedule(spec.audit_period_s, tick)

    # -- accounting ----------------------------------------------------------
    @property
    def repair_duration_s(self) -> float:
        """Virtual seconds from the first server loss to the last repair."""
        if self._loss_at is None or self._repaired_at is None:
            return 0.0
        return max(0.0, self._repaired_at - self._loss_at)

    def unrecoverable_files(self) -> int:
        return sum(
            0 if self.fleet.reconstructible(file_id) else 1
            for file_id in self.fleet.placements.files()
        )

    def summary(self) -> dict:
        """The ``fleet`` block of the scenario result (deterministic plane)."""
        status = self.fleet.status()
        status.update({
            "rounds": self.rounds,
            "checks_issued": self.checks_issued,
            "ok_proofs": self.ok_proofs,
            "invalid_proofs": self.invalid_proofs,
            "timeouts": self.timeouts,
            "unrecoverable_files": self.unrecoverable_files(),
            "repaired_slices": self.fleet.slices_repaired,
            "post_repair_audit_failures": self.post_repair_audit_failures,
            "repair_duration_s": round(self.repair_duration_s, 9),
        })
        return status


def _payload_rng(seed: int):
    import hashlib
    import random

    digest = hashlib.sha256(b"repro-fleet-payload-v1" + str(int(seed)).encode())
    return random.Random(int.from_bytes(digest.digest()[:8], "big"))
