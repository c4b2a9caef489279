"""Run a scenario's ``workload.dynamic`` as a deterministic update drill.

The compiled node-graph path simulates the static *signing* pipeline and
the fleet path the *storage* pipeline; a dynamic scenario exercises the
*update* pipeline: a :class:`~repro.dynamic.store.DynamicStore` applying
seeded batches of verified mutations (rank-tree root handoff + one
Eq. 7-checked blind-sign round per batch) while a
:class:`~repro.dynamic.store.DynamicAuditor` re-audits the moving files
against its pinned roots.  The drill runs on the same discrete-event
simulator timer wheel, draws every op and payload from seeded streams,
and fences every batch on the run ledger with ``dyn_update_begin`` /
``dyn_update_commit`` records — so a double run replays bit-identically
and ``repro-pdp ledger verify`` re-derives every root transition
offline.

Three workload profiles (see
:class:`~repro.scenarios.schema.DynamicSpec`):

* ``churn`` — versioned-document editing: a seeded mix of modify,
  insert, delete, and append ops;
* ``log_append`` — append-only growth, the log-storage shape;
* ``hot_block`` — modify storms concentrated on the first
  ``hot_blocks`` positions, the worst case for naive re-sign-all.

Envelope checks the drill feeds: ``min_update_batches``,
``max_resigned_blocks_per_batch`` (the batched-re-signing claim, as an
acceptance gate), and ``min_dynamic_audits``.
"""

from __future__ import annotations

import hashlib
import random

from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp
from repro.obs import NULL_OBS
from repro.scenarios.schema import Scenario

__all__ = ["DynamicDrill"]


class DynamicDrill:
    """One seeded dynamic run: create files, mutate on a period, audit.

    Owns a bare :class:`~repro.net.simulator.Simulator` used purely as a
    deterministic timer wheel: one update tick per
    ``update_period_s`` applies one atomic batch to the next file in
    round-robin order until every file has received ``batches`` batches.
    After every ``audit_every``-th batch the drill challenges the file it
    just mutated and verifies (block, rank-path, root-signature, Eq. 6)
    together against the root it pinned from the batch receipt.
    """

    def __init__(self, scenario: Scenario, obs=None, ledger=None):
        from repro.core.owner import DataOwner
        from repro.core.params import setup
        from repro.net.simulator import Simulator
        from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
        from repro.pairing.interface import OperationCounter

        spec = scenario.workload.dynamic
        if spec is None:
            raise ValueError("scenario has no workload.dynamic")
        self.scenario = scenario
        self.spec = spec
        self.obs = obs if obs is not None else NULL_OBS
        self.ledger = ledger
        self.sim = Simulator()
        if ledger is not None:
            # Ledger timestamps advance with virtual time, like the
            # compiled path; entries are replayable, hash and all.
            ledger.clock = lambda: self.sim.now
        settings = scenario.settings
        group = TypeAPairingGroup.from_params(
            TYPE_A_PARAM_SETS[settings.param_set])
        params = setup(group, k=settings.k)
        if self.obs.enabled:
            self.counter = self.obs.counter
        else:
            self.counter = OperationCounter()
        group.attach_counter(self.counter)
        key_rng = _drill_rng(settings.seed, b"keys")
        sem_front, org_pk = self._build_target(group, key_rng)
        self.owner = DataOwner(params, org_pk, rng=key_rng)
        self.store = DynamicStore(params, sem_front, self.owner,
                                  ledger=ledger)
        self.auditor = DynamicAuditor(params, org_pk,
                                      rng=_drill_rng(settings.seed, b"audit"))
        self._ops_rng = _drill_rng(settings.seed, b"ops")
        self.file_ids = [f"dyn-file-{i:04d}".encode()
                         for i in range(spec.files)]
        # Running tallies the envelope checks and the result read directly.
        self.update_batches = 0
        self.blocks_resigned = 0
        self.max_resigned_per_batch = 0
        self.audits_done = 0
        self.audits_ok = 0
        self.audits_failed = 0

    def _build_target(self, group, rng):
        """The signing side the DynamicSpec's ``target`` group declares:
        a single mediator for w = 1, a threshold cluster front otherwise
        (Section V — the update path is unchanged either way)."""
        from repro.core.multi_sem import SEMCluster
        from repro.core.sem import SecurityMediator
        from repro.service.failover import FailoverMultiSEMClient

        target = next(g for g in self.scenario.topology.sem_groups
                      if g.name == self.spec.target)
        if target.w > 1:
            cluster = SEMCluster(group, t=target.t, w=target.w, rng=rng,
                                 require_membership=False)
            return FailoverMultiSEMClient.from_cluster(cluster, rng=rng), cluster.master_pk
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        return sem, sem.pk

    # -- drive ---------------------------------------------------------------
    def run(self) -> float:
        """Create the files, arm the update tick, drain the simulator."""
        spec = self.spec
        payload_rng = _drill_rng(self.scenario.settings.seed, b"payload")
        for file_id in self.file_ids:
            chunks = [payload_rng.randbytes(spec.block_bytes)
                      for _ in range(spec.initial_blocks)]
            receipt = self.store.create(file_id, chunks)
            self.auditor.pin_receipt(receipt)
        self._arm_update_tick()
        return self.sim.run()

    def _arm_update_tick(self) -> None:
        spec = self.spec
        horizon = self.scenario.settings.duration_s
        sim = self.sim
        total = spec.files * spec.batches

        def tick():
            index = self.update_batches % len(self.file_ids)
            file_id = self.file_ids[index]
            ops = self._ops_for_batch(file_id)
            receipt = self.store.update(file_id, ops)
            self.auditor.pin_receipt(receipt)
            self.update_batches += 1
            self.blocks_resigned += receipt.signed_blocks
            self.max_resigned_per_batch = max(self.max_resigned_per_batch,
                                              receipt.signed_blocks)
            if spec.audit_every and self.update_batches % spec.audit_every == 0:
                self._audit(file_id)
            if (self.update_batches < total
                    and sim.now + spec.update_period_s <= horizon):
                sim.schedule(spec.update_period_s, tick)

        sim.schedule(spec.update_period_s, tick)

    def _ops_for_batch(self, file_id: bytes) -> list[UpdateOp]:
        """One batch of ops in the declared profile's shape.

        Positions are generated against a simulated running count because
        :meth:`~repro.dynamic.store.DynamicStore.update` applies the
        batch sequentially — an insert shifts everything after it before
        the next op's position is interpreted.
        """
        spec, rng = self.spec, self._ops_rng
        count = self.store.file_state(file_id).count
        ops: list[UpdateOp] = []
        for _ in range(spec.ops_per_batch):
            if spec.profile == "log_append":
                ops.append(UpdateOp("append",
                                    payload=rng.randbytes(spec.block_bytes)))
                count += 1
                continue
            if spec.profile == "hot_block":
                hot = max(1, min(spec.hot_blocks, count))
                ops.append(UpdateOp("modify", rng.randrange(hot),
                                    rng.randbytes(spec.block_bytes)))
                continue
            # churn: a versioned document being edited in place.
            kind = rng.choice(("modify", "modify", "insert", "append",
                               "delete"))
            if kind == "delete" and count <= 1:
                kind = "append"   # never drain a file to zero blocks
            if kind == "modify":
                ops.append(UpdateOp("modify", rng.randrange(count),
                                    rng.randbytes(spec.block_bytes)))
            elif kind == "insert":
                ops.append(UpdateOp("insert", rng.randrange(count + 1),
                                    rng.randbytes(spec.block_bytes)))
                count += 1
            elif kind == "append":
                ops.append(UpdateOp("append",
                                    payload=rng.randbytes(spec.block_bytes)))
                count += 1
            else:
                ops.append(UpdateOp("delete", rng.randrange(count)))
                count -= 1
        return ops

    def _audit(self, file_id: bytes) -> None:
        challenge = self.auditor.generate_challenge(
            file_id, sample_size=self.spec.sample_size)
        proof = self.store.generate_proof(file_id, challenge)
        ok = self.auditor.verify(file_id, challenge, proof)
        self.audits_done += 1
        if ok:
            self.audits_ok += 1
        else:
            self.audits_failed += 1

    # -- accounting ----------------------------------------------------------
    def summary(self) -> dict:
        """The ``dynamic`` block of the scenario result (deterministic)."""
        files = {}
        for file_id in self.file_ids:
            state = self.store.file_state(file_id)
            files[file_id.decode()] = {
                "epoch": state.epoch,
                "count": state.count,
                "root": state.root.hex(),
            }
        return {
            "profile": self.spec.profile,
            "update_batches": self.update_batches,
            "blocks_resigned": self.blocks_resigned,
            "max_resigned_per_batch": self.max_resigned_per_batch,
            "audits_done": self.audits_done,
            "audits_ok": self.audits_ok,
            "audits_failed": self.audits_failed,
            "files": files,
        }


def _drill_rng(seed: int, domain: bytes) -> random.Random:
    digest = hashlib.sha256(
        b"repro-dynamic-drill-v1|" + domain + b"|" + str(int(seed)).encode())
    return random.Random(int.from_bytes(digest.digest()[:8], "big"))
