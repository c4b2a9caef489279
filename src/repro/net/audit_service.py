"""A continuously-running audit service on the simulated network.

Real deployments do not audit once — a third-party auditor re-challenges
every file on a schedule, and reacts when something fails.  This node does
exactly that with the simulator's virtual-time timers:

* every ``period_s`` it challenges a (sampled) audit of each registered
  file;
* verdicts are appended to an audit log with their virtual timestamps;
* after ``alert_threshold`` consecutive failures for a file it raises an
  alert (and keeps auditing — evidence accumulates);
* with a ``horizon_s``, ticks stop once virtual time passes it, so a
  bounded run's event queue drains (the scenario compiler sets it to the
  scenario duration);
* with a flight-recorder ``ledger``, every challenge and every verdict —
  full challenge and proof — goes on the chain, so ``ledger verify`` can
  re-evaluate Eq. 6 offline.

Combined with corruption injection this reproduces, in one simulation,
the paper's operational story: misbehaviour is detected within one audit
period with probability 1 − (1 − f)^c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.verifier import PublicVerifier
from repro.net.message import Message
from repro.net.node import Node
from repro.obs.ledger import audit_record


@dataclass
class AuditRecord:
    """One audit verdict, timestamped in virtual time."""

    file_id: bytes
    time: float
    passed: bool


@dataclass
class _WatchedFile:
    n_blocks: int
    consecutive_failures: int = 0
    records: list[AuditRecord] = field(default_factory=list)


class AuditServiceNode(Node):
    """A scheduled third-party auditor."""

    def __init__(
        self,
        name: str,
        verifier: PublicVerifier,
        cloud_name: str = "cloud",
        period_s: float = 10.0,
        sample_size: int | None = None,
        alert_threshold: int = 1,
        horizon_s: float | None = None,
        ledger=None,
    ):
        super().__init__(name)
        self.verifier = verifier
        self.cloud_name = cloud_name
        self.period_s = period_s
        self.sample_size = sample_size
        self.alert_threshold = alert_threshold
        self.horizon_s = horizon_s
        self.ledger = ledger
        self.watched: dict[bytes, _WatchedFile] = {}
        self.alerts: list[tuple[bytes, float]] = []
        self.audits_passed = 0
        self.audits_failed = 0
        self._running = False
        self.on("proof", self._handle_proof)

    # -- control ------------------------------------------------------------
    def watch(self, file_id: bytes, n_blocks: int) -> None:
        self.watched[file_id] = _WatchedFile(n_blocks=n_blocks)

    def start(self) -> None:
        """Begin the periodic schedule (requires being added to a sim)."""
        if self.sim is None:
            raise RuntimeError("add the node to a Simulator before starting")
        if not self._running:
            self._running = True
            self.sim.schedule(self.period_s, self._tick)

    def stop(self) -> None:
        self._running = False

    # -- the periodic tick ------------------------------------------------------
    def _tick(self):
        if not self._running or self.crashed:
            return None
        if self.horizon_s is not None and self.sim.now > self.horizon_s:
            return None
        self.sim.schedule(self.period_s, self._tick)
        challenges = []
        for file_id, state in self.watched.items():
            challenge = self.verifier.generate_challenge(
                file_id, state.n_blocks, sample_size=self.sample_size
            )
            if self.ledger is not None:
                self.ledger.append("challenge", {
                    "verifier": self.name,
                    "file": file_id.hex(),
                    "blocks": len(challenge.indices),
                    "indices": [int(i) for i in challenge.indices],
                })
            challenges.append(
                self.make_message(self.cloud_name, "challenge", (file_id, challenge))
            )
        return challenges

    def _handle_proof(self, message: Message):
        file_id, challenge, response = message.payload
        state = self.watched.get(file_id)
        if state is None:
            return None
        counter = getattr(self.verifier.group, "counter", None)
        before = (counter.snapshot()
                  if self.ledger is not None and counter is not None else None)
        passed = self.verifier.verify(challenge, response)
        state.records.append(
            AuditRecord(file_id=file_id, time=self.sim.now if self.sim else 0.0, passed=passed)
        )
        if passed:
            self.audits_passed += 1
            state.consecutive_failures = 0
        else:
            self.audits_failed += 1
            state.consecutive_failures += 1
            if state.consecutive_failures == self.alert_threshold:
                self.alerts.append((file_id, self.sim.now if self.sim else 0.0))
        if self.ledger is not None:
            # The pk comes from the ledger's verifier_key entry.
            ops = (before, counter.snapshot()) if before is not None else None
            self.ledger.append(*audit_record(self.name, file_id, challenge,
                                             response, passed, ops=ops))
        return None

    # -- reporting --------------------------------------------------------------
    def history(self, file_id: bytes) -> list[AuditRecord]:
        return list(self.watched[file_id].records)

    def pass_rate(self, file_id: bytes) -> float:
        records = self.watched[file_id].records
        if not records:
            return 0.0
        return sum(r.passed for r in records) / len(records)
