"""Erasure-coded multi-cloud fleet: striped storage, concurrent audits,
quarantine, and audit-driven reconstruct-and-re-upload repair.

:class:`~repro.erasure.resilient.ResilientStore` survives corrupt
*blocks* inside one cloud; this module survives the loss of whole
*servers*.  A file is cut into stripes of ``data_shards`` blocks, each
stripe RS-extended to ``width = data_shards + parity_shards`` coded
words, and coded slot ``j`` of every stripe lives on fleet server ``j``
(the :class:`~repro.erasure.placement.PlacementMap` records the
assignment explicitly).  Losing up to ``parity_shards`` servers is
recoverable: every stripe still has ``data_shards`` survivors — the MDS
bound, now at server granularity.

The audit loop is the paper's protocol, fleet-wide:

* each (file, slot) slice is an ordinary SEM-PDP file under a derived
  id, so per-server challenges are ordinary Eq. 6 audits.  The attached
  :class:`~repro.core.parallel.WorkerPool` fans each challenge's
  hash-MSM and each proof's signature-MSM across workers, with op
  tallies invariant under the worker count;
* every slice is signed under the one organization key, so a round's L
  answered proofs are verified together in one random-weight check
  (:meth:`~repro.core.verifier.PublicVerifier.verify_batch`, 2 pairings
  per round).  Only a rejected round is split, by
  :func:`~repro.core.verifier.bisect_failures`, down to the slices that
  fail on their own: f invalid slices among L cost at most
  2·(2f·⌈log₂ L⌉ + 1) pairings;
* a server that fails Eq. 6 **or cannot answer** feeds the
  :class:`~repro.service.cloud_health.CloudScoreboard`; a streak trips
  the breaker and quarantines the server with half-open probes, exactly
  like the SEM failover scoreboard;
* repair reconstructs a quarantined server's slot from any
  ``data_shards`` surviving servers, re-signs the slices through the SEM
  batch path, and re-uploads to a replacement server, recording
  ``repair_begin`` / ``repair_slice`` / ``audit`` / ``repair_complete``
  events on the ledger so ``ledger verify`` re-derives every repair
  verdict offline — and so a crashed repair resumes idempotently from
  the chain (:meth:`FleetStore.resume_repairs`).  Both read the repair
  records through one :class:`RepairChecker`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.blocks import Block, encode_data, make_block_id
from repro.core.owner import SignedFile
from repro.core.verifier import bisect_failures
from repro.erasure.placement import PlacementMap, StripePlacement
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.obs import NULL_OBS
from repro.obs.ledger import audit_record
from repro.service.cloud_health import CloudScoreboard

__all__ = [
    "FleetAuditReport",
    "FleetRepairReport",
    "FleetStore",
    "RepairChecker",
    "RepairTask",
    "ServerHandle",
    "ServerUnavailable",
    "build_demo_fleet",
]

#: Ledger record kinds written by :class:`FleetStore` repairs.
KIND_REPAIR_BEGIN = "repair_begin"
KIND_REPAIR_SLICE = "repair_slice"
KIND_REPAIR_COMPLETE = "repair_complete"
KIND_REPAIR_FAILED = "repair_failed"


class ServerUnavailable(ConnectionError):
    """The addressed fleet server is offline (crashed or partitioned)."""


@dataclass
class ServerHandle:
    """One cloud server as the fleet sees it: name, store, liveness.

    ``online`` is the chaos axis: a crash fault flips it off, a restart
    flips it back.  Every access while offline raises
    :class:`ServerUnavailable`, which the audit loop books as a timeout.
    """

    name: str
    server: object                  # CloudServer-shaped
    online: bool = True

    def _check(self) -> None:
        if not self.online:
            raise ServerUnavailable(f"server {self.name} is offline")

    def store(self, signed: SignedFile) -> None:
        self._check()
        self.server.store(signed)

    def retrieve(self, file_id: bytes):
        self._check()
        return self.server.retrieve(file_id)

    def has_file(self, file_id: bytes) -> bool:
        self._check()
        return self.server.has_file(file_id)

    def generate_proof(self, file_id: bytes, challenge):
        self._check()
        return self.server.generate_proof(file_id, challenge)


@dataclass(frozen=True)
class SliceVerdict:
    """One slice audit outcome: which server, which slice, what happened."""

    server: str
    file_id: bytes
    slot: int
    status: str                     # "ok" | "invalid" | "timeout"


@dataclass
class FleetAuditReport:
    """One concurrent audit round over every contactable server."""

    round: int
    verdicts: list[SliceVerdict] = field(default_factory=list)
    skipped_servers: tuple[str, ...] = ()    # quarantined, not contacted
    aggregate_ok: bool | None = None         # the round's batch verdict

    @property
    def checks(self) -> int:
        return len(self.verdicts)

    @property
    def failures(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "invalid")

    @property
    def timeouts(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "timeout")

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.timeouts == 0


@dataclass(frozen=True)
class RepairTask:
    """One planned repair: rebuild (file, slot) from survivors onto target."""

    file_id: bytes
    slot: int
    source: str                     # the failed server
    target: str                     # replacement (may equal source)


@dataclass
class FleetRepairReport:
    """What one repair pass planned, rebuilt, and re-audited."""

    tasks: list[RepairTask] = field(default_factory=list)
    completed: list[RepairTask] = field(default_factory=list)
    unrecoverable: list[RepairTask] = field(default_factory=list)
    slices_rebuilt: int = 0
    blocks_resigned: int = 0
    reaudits_passed: int = 0

    @property
    def repaired(self) -> bool:
        return not self.unrecoverable and len(self.completed) == len(self.tasks)


class FleetStore:
    """Striped, audited, self-repairing storage over many cloud servers.

    Args:
        params: the SEM-PDP system parameters.
        owner: a :class:`~repro.core.owner.DataOwner` (blinds blocks).
        sem: anything with ``sign_blinded_batch`` — a single mediator, a
            threshold cluster client, or the failover client.
        verifier: the fleet's TPA; give it the :class:`WorkerPool` to fan
            challenge aggregation across workers.
        handles: the fleet servers, actives first.  The first
            ``data_shards + parity`` actives host stripe slots; the rest
            are spares that repair re-homes lost slots onto.
        parity: tolerated server losses (RS parity shards per stripe).
        spares: how many trailing ``handles`` are spares.
        scoreboard: cross-round health; defaults to a fresh
            :class:`CloudScoreboard` with threshold 1.
        ledger: optional append-only ledger; audits and repairs are
            recorded for offline re-verification.
        verifier_name: the name audits are recorded under (must match a
            ``verifier_key`` ledger entry for offline Eq. 6 recheck).
    """

    def __init__(self, params, owner, sem, verifier, handles, parity: int,
                 spares: int = 0, rng=None, obs=None, ledger=None,
                 scoreboard: CloudScoreboard | None = None,
                 verifier_name: str = "tpa-fleet"):
        handles = list(handles)
        if spares < 0 or spares >= len(handles):
            raise ValueError("need 0 <= spares < len(handles)")
        width = len(handles) - spares
        if not 0 <= parity < width:
            raise ValueError("need 0 <= parity < active server count")
        self.params = params
        self.group = params.group
        self.owner = owner
        self.sem = sem
        self.verifier = verifier
        self.verifier_name = verifier_name
        self.handles: dict[str, ServerHandle] = {h.name: h for h in handles}
        if len(self.handles) != len(handles):
            raise ValueError("fleet server names must be distinct")
        self.active_names = tuple(h.name for h in handles[:width])
        self.spare_names = tuple(h.name for h in handles[width:])
        self.parity = parity
        self.data_shards = width - parity
        self._rng = rng
        self.obs = obs if obs is not None else NULL_OBS
        self.ledger = ledger
        self.scoreboard = scoreboard or CloudScoreboard(
            tuple(self.handles), threshold=1, quarantine_rounds=2
        )
        self.scoreboard.on_trip.append(self._record_trip)
        self.placements = PlacementMap()
        self._codes: dict[tuple[int, int], ReedSolomonCode] = {}
        self._repair_attempts: dict[tuple[bytes, int], int] = {}
        self.slices_repaired = 0
        self.blocks_resigned = 0
        self.repairs_completed = 0
        #: Internal worker pool, when :func:`build_demo_fleet` built one.
        self.pool = None

    def close(self) -> None:
        """Shut down the internal worker pool, if the fleet owns one."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # -- internals -----------------------------------------------------------
    def _code(self, data_shards: int, parity: int) -> ReedSolomonCode:
        key = (data_shards, parity)
        if key not in self._codes:
            self._codes[key] = ReedSolomonCode(data_shards, parity,
                                               self.params.order)
        return self._codes[key]

    def _record_trip(self, index: int, round_: int, streak: int) -> None:
        if self.ledger is not None:
            self.ledger.append("cloud_quarantine", {
                "cloud": self.scoreboard.name_of(index),
                "round": round_,
                "streak": streak,
            })

    # -- store ---------------------------------------------------------------
    def store(self, data: bytes, file_id: bytes) -> StripePlacement:
        """Encode, stripe, sign, and upload one file across the fleet."""
        data_blocks = encode_data(data, self.params, file_id)
        words = [block.elements for block in data_blocks]
        width_elements = len(words[0])
        zero_word = (0,) * width_elements
        stripes = -(-len(words) // self.data_shards)  # ceil division
        words.extend([zero_word] * (stripes * self.data_shards - len(words)))
        code = self._code(self.data_shards, self.parity)
        placement = StripePlacement(
            file_id=file_id,
            data_shards=self.data_shards,
            parity_shards=self.parity,
            stripes=stripes,
            data_blocks=len(data_blocks),
            servers=self.active_names,
        )
        with self.obs.tracer.span("fleet.store", stripes=stripes,
                                  width=placement.width):
            slot_words: list[list[tuple[int, ...]]] = [
                [] for _ in range(placement.width)
            ]
            for s in range(stripes):
                stripe = words[s * self.data_shards:(s + 1) * self.data_shards]
                for slot, word in enumerate(code.encode(stripe)):
                    slot_words[slot].append(word)
            # One signing batch for the whole file keeps the SEM round
            # count independent of the stripe width.
            all_blocks: list[Block] = []
            for slot in range(placement.width):
                slice_id = placement.slice_id(slot)
                all_blocks.extend(
                    Block(block_id=make_block_id(slice_id, s), elements=word)
                    for s, word in enumerate(slot_words[slot])
                )
            signatures = self.owner.sign_blocks(self.sem, all_blocks, rng=self._rng)
            for slot in range(placement.width):
                lo = slot * stripes
                self.handles[self.active_names[slot]].store(SignedFile(
                    file_id=placement.slice_id(slot),
                    blocks=tuple(all_blocks[lo:lo + stripes]),
                    signatures=tuple(signatures[lo:lo + stripes]),
                ))
        self.placements.add(placement)
        return placement

    # -- audit ---------------------------------------------------------------
    def set_online(self, name: str, online: bool) -> None:
        self.handles[name].online = online

    def audit_round(self, sample_size: int | None = None) -> FleetAuditReport:
        """One audit round over every contactable server; quarantined
        servers are skipped (until their window lapses into a half-open
        probe).

        The round challenges each server's slices in contact order, then
        settles every answered proof at once (:meth:`_invalid_proofs`).
        Verdicts, ``audit`` ledger records and scoreboard outcomes follow
        afterwards, server by server in the same order, so quarantine
        trips land on the ledger exactly where a slice-by-slice check
        would put them.  ``aggregate_ok`` is the round's batch verdict:
        True iff no answered slice is invalid, None when none answered.
        """
        self.scoreboard.begin_round()
        healthy, quarantined = self.scoreboard.contact_order()
        report = FleetAuditReport(
            round=self.scoreboard.round,
            skipped_servers=tuple(self.scoreboard.name_of(i) for i in quarantined),
        )
        with self.obs.tracer.span("fleet.audit", servers=len(healthy)) as span:
            answers = [(index, *self._challenge_server(self.scoreboard.name_of(index),
                                                       sample_size))
                       for index in healthy]
            audits = [(challenge, proof) for _, answered, _ in answers
                      for *_, challenge, proof in answered]
            invalid = set(self._invalid_proofs(audits))
            if audits:
                report.aggregate_ok = not invalid
            position = 0
            for index, answered, missed in answers:
                name = self.scoreboard.name_of(index)
                outcome = "ok" if answered else None
                for file_id, slot, slice_id, challenge, proof in answered:
                    ok = position not in invalid
                    position += 1
                    self._record_audit(slice_id, challenge, proof, ok)
                    report.verdicts.append(
                        SliceVerdict(name, file_id, slot, "ok" if ok else "invalid"))
                    if not ok:
                        outcome = "invalid"
                if missed is not None:
                    report.verdicts.append(SliceVerdict(name, *missed, "timeout"))
                    outcome = "timeout"
                if outcome == "ok":
                    self.scoreboard.record_success(index)
                elif outcome == "invalid":
                    self.scoreboard.record_invalid(index)
                elif outcome == "timeout":
                    self.scoreboard.record_timeout(index)
            span.set(checks=report.checks, failures=report.failures,
                     timeouts=report.timeouts)
        return report

    def _challenge_server(self, name: str, sample_size) -> tuple[list, tuple | None]:
        """Challenge every slice on one server until it stops answering.

        Returns the answered ``(file_id, slot, slice_id, challenge,
        proof)`` in placement order and the ``(file_id, slot)`` that
        timed out, if one did; a server that times out is not asked for
        its later slices.
        """
        handle = self.handles[name]
        answered = []
        for file_id, slot in self.placements.slots_on(name):
            placement = self.placements.get(file_id)
            slice_id = placement.slice_id(slot)
            challenge = self.verifier.generate_challenge(
                slice_id, placement.stripes, sample_size=sample_size
            )
            try:
                proof = handle.generate_proof(slice_id, challenge)
            except (ConnectionError, TimeoutError):
                return answered, (file_id, slot)
            answered.append((file_id, slot, slice_id, challenge, proof))
        return answered, None

    def _invalid_proofs(self, audits: list) -> list[int]:
        """The positions in ``audits`` whose proofs fail Eq. 6.

        One :meth:`~repro.core.verifier.PublicVerifier.verify_batch` over
        the whole round; only when it rejects does
        :func:`~repro.core.verifier.bisect_failures` split it, with
        ``verify_batch`` on ranges and plain ``verify`` on single slices.
        """
        def check_range(lo: int, hi: int) -> bool:
            # A one-slice round is still settled by verify_batch, so every
            # round draws its batch weights from the verifier's rng.
            if hi - lo == 1 and len(audits) > 1:
                return self.verifier.verify(*audits[lo])
            return self.verifier.verify_batch(audits[lo:hi])

        return bisect_failures(len(audits), check_range)

    def _record_audit(self, slice_id: bytes, challenge, proof, ok: bool) -> None:
        if self.ledger is None:
            return
        self.ledger.append(*audit_record(self.verifier_name, slice_id,
                                         challenge, proof, ok))

    # -- repair --------------------------------------------------------------
    def plan_repairs(self, failed: list[str] | None = None) -> list[RepairTask]:
        """Deterministic repair plan for the given (default: quarantined)
        servers: one task per (file, slot) they host, targeted at the
        recovered server itself or the first eligible spare."""
        if failed is None:
            failed = self.scoreboard.quarantined_names()
        tasks = []
        for name in sorted(failed):
            for file_id, slot in self.placements.slots_on(name):
                target = self._replacement_for(file_id, name)
                tasks.append(RepairTask(file_id=file_id, slot=slot,
                                        source=name, target=target or name))
        return tasks

    def _replacement_for(self, file_id: bytes, source: str) -> str | None:
        """Where a lost slot goes: back home if the server is reachable
        again, else the first online spare not already hosting the file."""
        if self.handles[source].online:
            return source
        hosting = set(self.placements.get(file_id).servers)
        for name in self.spare_names:
            if name not in hosting and self.handles[name].online:
                return name
        return None

    def repair(self, failed: list[str] | None = None) -> FleetRepairReport:
        """Execute the repair plan: reconstruct, re-sign, re-upload."""
        report = FleetRepairReport(tasks=self.plan_repairs(failed))
        with self.obs.tracer.span("fleet.repair", tasks=len(report.tasks)):
            for task in report.tasks:
                self._execute_repair(task, report)
        return report

    def _repair_id(self, task: RepairTask) -> str:
        key = (task.file_id, task.slot)
        attempt = self._repair_attempts.get(key, 0) + 1
        self._repair_attempts[key] = attempt
        slice_hex = self.placements.get(task.file_id).slice_id(task.slot).hex()
        return f"{slice_hex[:16]}.{attempt}"

    def _execute_repair(self, task: RepairTask, report: FleetRepairReport) -> None:
        import dataclasses

        placement = self.placements.get(task.file_id)
        code = self._code(placement.data_shards, placement.parity_shards)
        # Re-resolve the target now: a spare chosen at plan time may have
        # absorbed an earlier task's slot in the meantime.
        target = self._replacement_for(task.file_id, task.source)
        task = dataclasses.replace(task, target=target or task.source)
        repair_id = self._repair_id(task)
        if self.ledger is not None:
            self.ledger.append(KIND_REPAIR_BEGIN, {
                "repair": repair_id,
                "file": task.file_id.hex(),
                "slot": task.slot,
                "from": task.source,
                "to": task.target,
                "stripes": placement.stripes,
            })
        survivors = self._survivor_words(placement, exclude=task.slot)
        if survivors is None or target is None:
            report.unrecoverable.append(task)
            if self.ledger is not None:
                self.ledger.append(KIND_REPAIR_FAILED, {
                    "repair": repair_id,
                    "reason": ("no replacement server"
                               if survivors is not None
                               else "fewer than data_shards survivors"),
                })
            return
        # Rebuild the lost slot stripe by stripe: decode the originals
        # from any data_shards survivors, re-encode, keep slot's word.
        rebuilt: list[tuple[int, ...]] = []
        for s in range(placement.stripes):
            available = {slot: words[s] for slot, words in survivors.items()}
            originals = code.decode(available)
            rebuilt.append(code.encode(originals)[task.slot])
        slice_id = placement.slice_id(task.slot)
        blocks = [
            Block(block_id=make_block_id(slice_id, s), elements=word)
            for s, word in enumerate(rebuilt)
        ]
        signatures = self.owner.sign_blocks(self.sem, blocks, rng=self._rng)
        self.handles[task.target].store(SignedFile(
            file_id=slice_id, blocks=tuple(blocks), signatures=tuple(signatures)
        ))
        if self.ledger is not None:
            digest = hashlib.sha256()
            for word in rebuilt:
                for element in word:
                    digest.update(int(element).to_bytes(64, "big"))
            self.ledger.append(KIND_REPAIR_SLICE, {
                "repair": repair_id,
                "stripes": placement.stripes,
                "digest": digest.hexdigest(),
            })
        # Re-audit the restored slice; the recorded entry is the repair
        # verdict `ledger verify` re-derives offline via Eq. 6.
        challenge = self.verifier.generate_challenge(slice_id, placement.stripes)
        proof = self.handles[task.target].generate_proof(slice_id, challenge)
        ok = self.verifier.verify(challenge, proof)
        self._record_audit(slice_id, challenge, proof, ok)
        if self.ledger is not None:
            self.ledger.append(KIND_REPAIR_COMPLETE, {
                "repair": repair_id,
                "server": task.target,
                "slices": placement.stripes,
                "audit_ok": ok,
            })
        if task.target != task.source:
            self.placements.add(placement.rehome(task.slot, task.target))
        report.completed.append(task)
        report.slices_rebuilt += placement.stripes
        report.blocks_resigned += len(blocks)
        if ok:
            report.reaudits_passed += 1
        self.slices_repaired += placement.stripes
        self.blocks_resigned += len(blocks)
        self.repairs_completed += 1

    def _survivor_words(self, placement: StripePlacement,
                        exclude: int) -> dict[int, list[tuple[int, ...]]] | None:
        """Per-slot stripe words from ``data_shards`` reachable servers."""
        survivors: dict[int, list[tuple[int, ...]]] = {}
        for slot, name in enumerate(placement.servers):
            if slot == exclude or len(survivors) >= placement.data_shards:
                continue
            handle = self.handles[name]
            try:
                stored = handle.retrieve(placement.slice_id(slot))
            except (ConnectionError, TimeoutError, KeyError):
                continue
            survivors[slot] = [block.elements for block in stored.blocks]
        if len(survivors) < placement.data_shards:
            return None
        return survivors

    # -- crash recovery ------------------------------------------------------
    def resume_repairs(self, entries: list[dict] | None = None) -> FleetRepairReport:
        """Finish repairs the ledger shows as begun but never completed.

        Reads the chain (or the given entries), finds every
        ``repair_begin`` without a matching ``repair_complete`` /
        ``repair_failed``, and re-executes those (file, slot) repairs.
        Re-uploading a slice that was already (partially) written is a
        pure overwrite, so resuming after a crash at any point between
        the ``repair_begin`` and ``repair_complete`` appends converges to
        the same fleet state.
        """
        if entries is None:
            if self.ledger is None:
                return FleetRepairReport()
            from repro.obs.ledger import read_ledger

            entries, _torn = read_ledger(self.ledger.path)
        replay = RepairChecker()
        for entry in entries:
            kind, body = entry["kind"], entry["body"]
            if kind == KIND_REPAIR_BEGIN:
                # Never reuse an attempt number the chain already holds.
                key = (bytes.fromhex(body["file"]), body["slot"])
                attempt = int(str(body["repair"]).rsplit(".", 1)[-1])
                self._repair_attempts[key] = max(
                    self._repair_attempts.get(key, 0), attempt)
            if kind in replay.kinds:
                replay.check(kind, body)
        report = FleetRepairReport()
        for body in replay.open.values():
            file_id = bytes.fromhex(body["file"])
            # target is re-resolved inside _execute_repair; the recorded
            # "to" is only the crashed run's choice, kept as a hint.
            task = RepairTask(
                file_id=file_id, slot=int(body["slot"]),
                source=str(body["from"]), target=str(body["to"]),
            )
            report.tasks.append(task)
            self._execute_repair(task, report)
        return report

    # -- durability / status -------------------------------------------------
    def reconstructible(self, file_id: bytes) -> bool:
        """Can the file be decoded from the currently reachable servers?"""
        placement = self.placements.get(file_id)
        reachable = 0
        for slot, name in enumerate(placement.servers):
            handle = self.handles.get(name)
            if handle is None or not handle.online:
                continue
            try:
                if handle.has_file(placement.slice_id(slot)):
                    reachable += 1
            except (ConnectionError, TimeoutError):
                continue
        return reachable >= placement.data_shards

    def retrieve(self, file_id: bytes) -> bytes:
        """Decode the payload from any ``data_shards`` reachable slices."""
        from repro.core.blocks import decode_data

        placement = self.placements.get(file_id)
        code = self._code(placement.data_shards, placement.parity_shards)
        survivors = self._survivor_words(placement, exclude=-1)
        if survivors is None:
            raise ValueError(
                f"file {file_id.hex()} is unrecoverable: fewer than "
                f"{placement.data_shards} slices reachable"
            )
        words: list[tuple[int, ...]] = []
        for s in range(placement.stripes):
            available = {slot: slot_words[s]
                         for slot, slot_words in survivors.items()}
            words.extend(code.decode(available))
        blocks = [
            Block(block_id=make_block_id(file_id, i), elements=elements)
            for i, elements in enumerate(words[:placement.data_blocks])
        ]
        return decode_data(blocks, self.params)

    def status(self) -> dict:
        """Flat counters for dashboards, the CLI, and the scenario digest."""
        health = self.scoreboard.summary()
        return {
            "servers": len(self.active_names),
            "spares": len(self.spare_names),
            "parity": self.parity,
            "data_shards": self.data_shards,
            "files": len(self.placements),
            "online": sum(1 for h in self.handles.values() if h.online),
            "quarantined": health["quarantined"],
            "quarantine_trips": health["trips"],
            "probes": health["probes"],
            "audit_rounds": health["rounds"],
            "invalid_proofs": health["invalid_total"],
            "timeouts": health["timeouts"],
            "slices_repaired": self.slices_repaired,
            "blocks_resigned": self.blocks_resigned,
            "repairs_completed": self.repairs_completed,
        }


def _derived_rng(seed: int, *path):
    import random

    h = hashlib.sha256(b"repro-fleet-rng-v1" + str(int(seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))


def build_demo_fleet(servers: int = 6, parity: int = 2, spares: int = 1,
                     seed: int = 0, param_set: str = "toy-64", k: int = 4,
                     pool=None, obs=None, ledger=None,
                     quarantine_threshold: int = 1,
                     quarantine_rounds: int = 2,
                     verifier_name: str = "tpa-fleet",
                     server_names=None,
                     genesis_extra: dict | None = None,
                     workers: int = 1) -> FleetStore:
    """A self-contained seeded fleet (CLI, bench suite, and tests share it).

    When a ledger is given, the genesis pins (param_set, k, setup seed)
    and a ``verifier_key`` entry pins the organization key, so every
    audit the fleet records is re-derivable offline.

    ``workers > 1`` builds an internal :class:`~repro.core.parallel.WorkerPool`
    from the fleet's own parameters — worker op tallies then merge into
    the fleet group's attached counter, keeping op counts invariant under
    the worker count.  Call :meth:`FleetStore.close` when done with it.
    """
    from repro.core.cloud import CloudServer
    from repro.core.owner import DataOwner
    from repro.core.params import setup
    from repro.core.sem import SecurityMediator
    from repro.core.verifier import PublicVerifier
    from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[param_set])
    params = setup(group, k)
    owns_pool = False
    if pool is None and workers > 1:
        from repro.core.parallel import WorkerPool

        pool = WorkerPool(params, workers)
        owns_pool = True
    if obs is not None and obs.enabled:
        obs.observe_group(group)
    sem = SecurityMediator(group, rng=_derived_rng(seed, "sem"),
                           require_membership=False)
    owner = DataOwner(params, sem.pk, rng=_derived_rng(seed, "owner"),
                      pool=pool)
    verifier = PublicVerifier(params, sem.pk, rng=_derived_rng(seed, "tpa"),
                              pool=pool)
    if ledger is not None:
        ledger.ensure_genesis({
            **(genesis_extra or {}),
            "param_set": param_set,
            "k": k,
            "setup_seed": params.seed.hex(),
        })
        ledger.pin_verifier(verifier_name, sem.pk)
    names = (tuple(server_names) if server_names is not None
             else tuple(f"cloud-s{j}" for j in range(servers + spares)))
    if len(names) != servers + spares:
        raise ValueError("need one server name per active + spare server")
    handles = [
        ServerHandle(name=name, server=CloudServer(
            params, org_pk=sem.pk, rng=_derived_rng(seed, "cloud", name),
            pool=pool,
        ))
        for name in names
    ]
    scoreboard = CloudScoreboard(names, threshold=quarantine_threshold,
                                 quarantine_rounds=quarantine_rounds)
    store = FleetStore(
        params, owner, sem, verifier, handles, parity=parity, spares=spares,
        rng=_derived_rng(seed, "store"), obs=obs, ledger=ledger,
        scoreboard=scoreboard, verifier_name=verifier_name,
    )
    if owns_pool:
        store.pool = pool
    return store


class RepairChecker:
    """Structural verification of fleet repair lifecycles.

    Every ``repair_slice`` / ``repair_complete`` / ``repair_failed``
    entry must reference a ``repair_begin`` that is still open, and a
    ``repair_complete`` must report the stripe count its begin promised.
    Repairs still open at the chain tail are *not* an error — that is
    exactly the crash-mid-repair state :meth:`FleetStore.resume_repairs`
    recovers from (it replays the chain through this same checker) — but
    they are surfaced so the operator can tell a clean chain from an
    interrupted one.  The cryptographic half of the repair verdict is
    the post-repair ``audit`` entry, which the ledger's Eq. 6 recheck
    already covers.
    """

    kinds = (KIND_REPAIR_BEGIN, KIND_REPAIR_SLICE, KIND_REPAIR_COMPLETE,
             KIND_REPAIR_FAILED)

    def __init__(self):
        #: repair id -> its ``repair_begin`` body, in begin order.
        self.open: dict[str, dict] = {}

    def check(self, kind: str, body: dict) -> list[str]:
        repair_id = body.get("repair")
        if not isinstance(repair_id, str) or not repair_id:
            return [f"{kind} entry without a repair id"]
        if kind == KIND_REPAIR_BEGIN:
            if repair_id in self.open:
                return [f"repair {repair_id} begun twice"]
            if not {"file", "slot", "from", "to", "stripes"} <= set(body):
                return [f"repair_begin {repair_id} missing placement fields"]
            self.open[repair_id] = body
            return []
        begun = self.open.get(repair_id)
        if begun is None:
            return [f"{kind} references repair {repair_id} that was never "
                    "begun (or already closed) — spliced repair record"]
        problems = []
        if kind == KIND_REPAIR_SLICE and body.get("stripes") != begun.get("stripes"):
            problems.append(
                f"repair {repair_id}: slice carries {body.get('stripes')} "
                f"stripes but its begin promised {begun.get('stripes')}")
        if kind == KIND_REPAIR_COMPLETE and body.get("slices") != begun.get("stripes"):
            problems.append(
                f"repair {repair_id}: completion reports "
                f"{body.get('slices')} slices but its begin promised "
                f"{begun.get('stripes')}")
        if kind != KIND_REPAIR_SLICE:  # complete or failed closes the repair
            self.open.pop(repair_id)
        return problems

    def finish(self, report) -> None:
        report.repairs_checked = sum(report.counts.get(k, 0) for k in self.kinds)
        report.open_repairs = sorted(self.open)
