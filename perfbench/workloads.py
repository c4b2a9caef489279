"""The benchmark's four workloads: upload, audit, churn, repair.

Each workload builds its whole system from the seed during set-up, then
runs a closed loop (zero think time) of its operations until its budget
is spent, then checks every output and runs one cheap negative control
that must be rejected — so a verifier that accepts everything cannot
read as a speed-up.  Everything runs in one process with ``workers=1``.

Why these four (see ``README.md`` in this directory for the layer map):

* ``upload`` is the write path: members sign blocks through the SEM
  service (blind BLS, Eq. 2-5, one Eq. 7 check per signing pass).
* ``audit`` is the read path: one TPA audits one file at the paper's
  c = 460 (Eq. 6).
* ``churn`` is many small checks: single-op dynamic updates signed by a
  threshold SEM cluster (Eq. 14 share checks) and dynamic audits, all on
  a file-backed ledger that is re-verified offline at the end.
* ``repair`` is the only workload for the erasure layer: an RS(5,3)
  fleet losing a server, quarantining it and rebuilding its slices.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from collections import defaultdict

from repro.core.blocks import encode_data
from repro.core.cloud import CloudServer
from repro.core.multi_sem import SEMCluster
from repro.core.owner import DataOwner, SignedFile
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp
from repro.dynamic.store import DynamicFileError
from repro.erasure.fleet import build_demo_fleet
from repro.obs import ledger as ledger_module
from repro.obs.exporters import model_equivalent_exp
from repro.obs.ledger import Ledger, read_ledger
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter
from repro.service.api import SignRequest, next_request_id
from repro.service.batcher import BatchConfig, BatchingSEMService
from repro.service.failover import FailoverError, FailoverMultiSEMClient
from repro.service.pipeline import SigningPipeline

#: The paper's own parameters: |r| = 160, |q| = 512.
PARAM_SET = "paper-160"


def _rng(seed: int, label: str) -> random.Random:
    """An independent seeded stream per (seed, purpose)."""
    digest = hashlib.sha256(f"perfbench|{label}|{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _group(param_set: str) -> TypeAPairingGroup:
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[param_set])


#: A fixed odd 512-bit modulus for the speed probe (the size of paper-160's q).
_PROBE_MODULUS = (1 << 511) + 187

#: Probe time that defines "reference speed": reported times are scaled to
#: a machine on which one probe takes exactly this long.
PROBE_REFERENCE_S = 0.007


def speed_probe() -> float:
    """Seconds a fixed big-integer computation takes right now.

    The machine this benchmark runs on is shared, and its speed drifts by
    tens of percent over seconds.  The probe is benchmark code, not repro
    code, so no change to the program can move it; dividing by it cancels
    most of the drift (see README.md, "Speed correction").
    """
    start = time.perf_counter()
    x = 3
    for i in range(12):
        x = pow(x + i, _PROBE_MODULUS >> 1, _PROBE_MODULUS)
    return time.perf_counter() - start


def op_fingerprint(delta: dict) -> tuple[int, int, int]:
    """(model-equivalent Exp, Pair, hash_to_g1) of one operation."""
    return (model_equivalent_exp(delta), delta.get("pairings", 0),
            delta.get("hash_to_g1", 0))


class Budget:
    """When a loop stops: after ``seconds`` of wall time, or after ``ops``
    operations (traced runs do a fixed amount of work so their counts are
    exact)."""

    def __init__(self, seconds: float | None = None, ops: int | None = None):
        if (seconds is None) == (ops is None):
            raise ValueError("give exactly one of seconds or ops")
        self.seconds = seconds
        self.ops = ops
        self._start = time.perf_counter()

    def start(self) -> None:
        self._start = time.perf_counter()

    def more(self, done: int) -> bool:
        """Whether another operation should start after ``done`` of them."""
        if self.ops is not None:
            return done < self.ops
        return time.perf_counter() - self._start < self.seconds


class Recorder:
    """Latency samples, per-operation op counts, rates, and verdicts."""

    def __init__(self, counter: OperationCounter, probing: bool = True):
        self.counter = counter
        self.probing = probing
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ops: dict[str, set] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)
        self.rates: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self.checks: list[tuple[str, bool]] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def run(self, kind: str, fn, *args, ops_kind: str | None = None):
        """Call ``fn(*args)``; record its wall time under ``kind`` and its
        op counts under ``ops_kind`` (default ``kind``).  The counter is
        shared, so only one thread may run crypto at a time."""
        before = self.counter.snapshot()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        fingerprint = op_fingerprint(self.counter.diff(before))
        with self._lock:
            self.samples[kind].append(elapsed)
            self.ops[ops_kind or kind].add(fingerprint)
        return result

    def probe(self) -> float:
        """Time three speed probes (outside every timed operation); returns
        the seconds they took.  Traced runs do not probe: their per-layer
        numbers are not speed-corrected, and probes would add residual."""
        if not self.probing:
            return 0.0
        times = [speed_probe() for _ in range(3)]
        self.probes.extend(times)
        return sum(times)

    def sample(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.samples[kind].append(seconds)

    def rate(self, kind: str, units: float, seconds: float) -> None:
        with self._lock:
            self.rates[kind][0] += units
            self.rates[kind][1] += seconds

    def tally(self, ok: bool) -> None:
        """One operation attempted; it failed unless ``ok``."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1

    def check(self, name: str, ok: bool) -> None:
        """One output check or negative control (counts as attempted)."""
        self.checks.append((name, bool(ok)))
        self.tally(bool(ok))


class Workload:
    """Interface every workload implements.

    ``metrics`` maps the three generic end-to-end latency/rate slots to the
    recorder keys this workload fills, with the name the issue gives them.
    """

    name = ""
    setup_repeats = 1      # set-ups per run; set-up time is their median
    trace_ops = 1          # operations per phase of a traced run
    metrics: dict[str, tuple[str, str]] = {}

    counter: OperationCounter
    ledger_path: str | None = None

    def config(self) -> dict:
        raise NotImplementedError

    def loop(self, budget: Budget, rec: Recorder) -> None:
        raise NotImplementedError

    def wrap_up(self, rec: Recorder) -> None:
        """Timed work after the loop (the offline ledger recheck)."""

    def verify_outputs(self, rec: Recorder) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# upload
# ---------------------------------------------------------------------------

class UploadWorkload(Workload):
    """Four members, each keeping one 8-block file outstanding, through
    ``BatchingSEMService`` (one signing pass per 4 files) into
    ``SigningPipeline``, one ``SecurityMediator``, and ``CloudServer.store``."""

    name = "upload"
    setup_repeats = 3
    trace_ops = 2                      # signing passes per traced phase
    metrics = {
        "main": ("upload_file", "upload_file_p50_s"),
        "side": ("flush", "flush_p50_s"),
        "rate": ("blocks", "upload_blocks_per_s"),
    }
    k = 20
    members = 4
    file_blocks = 8

    def __init__(self, seed: int, param_set: str, workdir: str):
        group = _group(param_set)
        self.params = setup(group, self.k)
        self.counter = OperationCounter()
        group.attach_counter(self.counter)
        sem = SecurityMediator(group, rng=_rng(seed, "sem"), require_membership=False)
        pipeline = SigningPipeline(self.params, sem, sem.pk, org_pk_g1=sem.pk_g1,
                                   rng=_rng(seed, "pipeline"))
        self.service = BatchingSEMService(
            self.params, pipeline,
            BatchConfig(max_batch=self.members, max_wait_s=3600.0,
                        queue_capacity=4 * self.members),
            clock=time.perf_counter,
        )
        self.cloud = CloudServer(self.params, org_pk=sem.pk)
        self.verifier = PublicVerifier(self.params, sem.pk, rng=_rng(seed, "tpa"))
        self._data = [_rng(seed, f"member-{i}") for i in range(self.members)]
        self._files_made = [0] * self.members
        self.last_file: dict[int, bytes] = {}

    def config(self) -> dict:
        return {"k": self.k, "members": self.members, "file_blocks": self.file_blocks,
                "max_batch": self.members}

    def _next_file(self, member: int):
        index = self._files_made[member]
        self._files_made[member] += 1
        file_id = f"member-{member}/file-{index}".encode()
        data = self._data[member].randbytes(
            self.file_blocks * self.params.block_bytes() - 8)  # 8-byte length header
        return file_id, tuple(encode_data(data, self.params, file_id))

    def loop(self, budget: Budget, rec: Recorder) -> None:
        cond = threading.Condition()
        state = {"stop": False, "active": self.members, "waiting": {}}

        def member(index: int) -> None:
            try:
                while not state["stop"]:
                    file_id, blocks = self._next_file(index)
                    box: list = []
                    done = threading.Event()

                    def complete(response, box=box, done=done):
                        box.append(response)
                        done.set()

                    submitted = time.perf_counter()
                    with cond:
                        refused = self.service.submit(SignRequest(
                            request_id=next_request_id(), owner=f"member-{index}",
                            blocks=blocks), on_complete=complete)
                        state["waiting"][index] = done
                        cond.notify_all()
                    if refused is not None:
                        rec.tally(False)
                        return
                    done.wait()
                    if not box:                     # dispatcher aborted
                        return
                    response = box[0]
                    if response.ok:
                        self.cloud.store(SignedFile(file_id=file_id, blocks=blocks,
                                                    signatures=response.signatures))
                        rec.sample("upload_file", time.perf_counter() - submitted)
                        rec.sample("queue_wait", response.queue_wait_s)
                        self.last_file[index] = file_id
                    rec.tally(response.ok)
            finally:
                with cond:
                    state["active"] -= 1
                    cond.notify_all()

        threads = [threading.Thread(target=member, args=(i,), daemon=True)
                   for i in range(self.members)]
        budget.start()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        flushes = 0
        probed = 0.0
        try:
            while True:
                with cond:
                    # Size trigger: every member has one file queued.
                    cond.wait_for(lambda: self.service.batch_ready()
                                  or state["active"] < self.members)
                    if not self.service.queue.depth:
                        break
                    # Decide before the pass completes, so every member
                    # woken by it already sees whether to submit again.
                    last = not budget.more(flushes + 1)
                    state["stop"] = last
                    probed += rec.probe()
                    rec.run("flush", self.service.flush, ops_kind="upload.flush")
                flushes += 1
                if last:
                    break
        finally:
            with cond:
                state["stop"] = True
                for event in state["waiting"].values():
                    event.set()
            for thread in threads:
                thread.join()
        rec.rate("blocks", len(rec.samples["upload_file"]) * self.file_blocks,
                 time.perf_counter() - start - probed)

    def _audit_all(self, file_id: bytes) -> bool:
        stored = self.cloud.retrieve(file_id)
        challenge = self.verifier.generate_challenge(file_id, stored.n_blocks)
        return self.verifier.verify(challenge, self.cloud.generate_proof(file_id, challenge))

    def verify_outputs(self, rec: Recorder) -> None:
        for member, file_id in sorted(self.last_file.items()):
            rec.check(f"Eq. 6 over every block of {file_id.decode()}",
                      self._audit_all(file_id))
        victim = self.last_file.get(0)
        if victim is None:
            rec.check("control: an uploaded file to forge", False)
            return
        self.cloud.tamper_signature(victim, 0)
        rec.check("control: forged block signature rejected", not self._audit_all(victim))


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

class AuditWorkload(Workload):
    """One TPA repeatedly auditing one stored file (k = 4, n = 512) at the
    paper's c = 460 with full-size beta; the file is uploaded in set-up."""

    name = "audit"
    setup_repeats = 1                  # one set-up signs 512 blocks
    trace_ops = 1
    metrics = {
        "main": ("audit", "audit_p50_s"),
        "side": ("proofgen", "proofgen_p50_s"),
        "rate": ("challenged_blocks", "audited_blocks_per_s"),
    }
    k = 4
    n_blocks = 512
    challenged = 460

    def __init__(self, seed: int, param_set: str, workdir: str):
        group = _group(param_set)
        params = setup(group, self.k)
        self.counter = OperationCounter()
        group.attach_counter(self.counter)
        sem = SecurityMediator(group, rng=_rng(seed, "sem"), require_membership=False)
        owner = DataOwner(params, sem.pk, rng=_rng(seed, "owner"), use_fixed_base=True)
        self.file_id = f"audit-{seed}".encode()
        data = _rng(seed, "data").randbytes(self.n_blocks * params.block_bytes() - 8)
        signed = owner.sign_file(data, self.file_id, sem, batch=True, sem_pk_g1=sem.pk_g1)
        self.cloud = CloudServer(params, org_pk=sem.pk)
        self.cloud.store(signed)
        self.verifier = PublicVerifier(params, sem.pk, rng=_rng(seed, "tpa"))

    def config(self) -> dict:
        return {"k": self.k, "n_blocks": self.n_blocks, "c": self.challenged,
                "beta_bits": "full"}

    def _audit(self, rec: Recorder) -> bool:
        challenge = self.verifier.generate_challenge(
            self.file_id, self.n_blocks, sample_size=self.challenged)
        proof = rec.run("proofgen", self.cloud.generate_proof, self.file_id, challenge)
        return self.verifier.verify(challenge, proof)

    def loop(self, budget: Budget, rec: Recorder) -> None:
        budget.start()
        start = time.perf_counter()
        done = 0
        probed = 0.0
        while budget.more(done):
            probed += rec.probe()
            rec.tally(rec.run("audit", self._audit, rec))
            done += 1
        rec.rate("challenged_blocks", done * self.challenged,
                 time.perf_counter() - start - probed)

    def verify_outputs(self, rec: Recorder) -> None:
        challenge = self.verifier.generate_challenge(self.file_id, self.n_blocks,
                                                     sample_size=4)
        index = challenge.indices[0]
        stored = self.cloud.retrieve(self.file_id)
        original = stored.blocks[index]
        self.cloud.tamper_block(self.file_id, index)
        try:
            proof = self.cloud.generate_proof(self.file_id, challenge)
            rejected = not self.verifier.verify(challenge, proof)
        finally:
            stored.blocks[index] = original
        rec.check("control: tampered challenged block rejected", rejected)


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------

#: The dynamic_drill churn mix: a versioned document edited in place.
CHURN_MIX = ("modify", "modify", "insert", "append", "delete")


class ChurnWorkload(Workload):
    """One editor running single-op update batches on a 32-block dynamic
    file (k = 4), signed through ``FailoverMultiSEMClient`` on a
    (w = 3, t = 2) ``SEMCluster``; each batch is followed by a dynamic
    audit at c = 8; everything is recorded on a file-backed ledger that is
    re-verified offline at the end."""

    name = "churn"
    setup_repeats = 1                  # one set-up signs 33 messages via t = 2 SEMs
    trace_ops = 6                      # update + audit cycles per traced phase
    metrics = {
        "main": ("update", "update_p50_s"),
        "side": ("dyn_audit", "dyn_audit_p50_s"),
        "rate": ("ledger_audits", "ledger_audits_per_s"),
    }
    k = 4
    initial_blocks = 32
    challenged = 8
    w, t = 3, 2
    verifier_name = "tpa-churn"

    def __init__(self, seed: int, param_set: str, workdir: str):
        group = _group(param_set)
        params = setup(group, self.k)
        self.counter = OperationCounter()
        group.attach_counter(self.counter)
        cluster = SEMCluster(group, t=self.t, w=self.w, rng=_rng(seed, "keys"),
                             require_membership=False)
        client = FailoverMultiSEMClient.from_cluster(cluster, rng=_rng(seed, "failover"))
        owner = DataOwner(params, cluster.master_pk, rng=_rng(seed, "owner"))
        self.ledger_path = os.path.join(workdir, "churn-ledger.jsonl")
        self.ledger = Ledger(path=self.ledger_path)
        self.ledger.ensure_genesis({"param_set": param_set, "k": self.k,
                                    "setup_seed": params.seed.hex()})
        self.ledger.append("verifier_key", {"verifier": self.verifier_name,
                                            "pk": cluster.master_pk.to_bytes().hex()})
        self.store = DynamicStore(params, client, owner, ledger=self.ledger)
        self.auditor = DynamicAuditor(params, cluster.master_pk, rng=_rng(seed, "tpa"))
        self.file_id = f"churn-{seed}".encode()
        self._payload = _rng(seed, "payload")
        self._mix = _rng(seed, "ops")
        self.block_bytes = params.block_bytes()
        receipt = self.store.create(
            self.file_id,
            [self._payload.randbytes(self.block_bytes) for _ in range(self.initial_blocks)])
        self.auditor.pin_receipt(receipt)

    def config(self) -> dict:
        return {"k": self.k, "initial_blocks": self.initial_blocks,
                "c": self.challenged, "w": self.w, "t": self.t, "mix": list(CHURN_MIX)}

    def _next_op(self) -> UpdateOp:
        count = self.store.file_state(self.file_id).count
        kind = self._mix.choice(CHURN_MIX)
        if kind == "delete" and count <= 1:
            kind = "append"                # never drain the file
        if kind == "delete":
            return UpdateOp("delete", self._mix.randrange(count))
        payload = self._payload.randbytes(self.block_bytes)
        if kind == "append":
            return UpdateOp("append", payload=payload)
        position = self._mix.randrange(count + 1 if kind == "insert" else count)
        return UpdateOp(kind, position, payload)

    def _dyn_audit(self) -> bool:
        challenge = self.auditor.generate_challenge(self.file_id,
                                                    sample_size=self.challenged)
        proof = self.store.generate_proof(self.file_id, challenge)
        ok = self.auditor.verify(self.file_id, challenge, proof)
        self.ledger.append("dyn_audit", {
            "verifier": self.verifier_name,
            "file": self.file_id.hex(),
            "epoch": proof.epoch,
            "indices": [int(i) for i in challenge.indices],
            "betas": [int(b) for b in challenge.betas],
            "block_ids": [b.hex() for b in proof.block_ids],
            "sigma": proof.response.sigma.to_bytes().hex(),
            "alphas": [int(a) for a in proof.response.alphas],
            "ok": ok,
        })
        return ok

    def loop(self, budget: Budget, rec: Recorder) -> None:
        budget.start()
        done = 0
        while budget.more(done):
            rec.probe()
            op = self._next_op()
            try:
                receipt = rec.run("update", self.store.update, self.file_id, [op],
                                  ops_kind=f"update.{op.op}")
            except (DynamicFileError, FailoverError):
                rec.tally(False)
            else:
                self.auditor.pin_receipt(receipt)
                rec.tally(receipt.signed_blocks == (0 if op.op == "delete" else 1))
            rec.tally(rec.run("dyn_audit", self._dyn_audit))
            done += 1

    def wrap_up(self, rec: Recorder) -> None:
        rec.probe()
        start = time.perf_counter()
        report = ledger_module.verify_ledger(self.ledger_path)
        rec.rate("ledger_audits", report.audits_rechecked, time.perf_counter() - start)
        rec.check("verify_ledger ok", report.ok)
        rec.check("verify_ledger rechecked every recorded audit",
                  report.audits_rechecked == self.ledger.counts.get("dyn_audit", 0))
        rec.check("no update batch left open", not report.open_updates)

    def verify_outputs(self, rec: Recorder) -> None:
        challenge = self.auditor.generate_challenge(self.file_id,
                                                    sample_size=self.challenged)
        stale = self.store.generate_proof(self.file_id, challenge)
        self.auditor.pin_receipt(self.store.update(self.file_id, [self._next_op()]))
        rec.check("control: stale-root proof rejected",
                  not self.auditor.verify(self.file_id, challenge, stale))


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

class RepairWorkload(Workload):
    """``build_demo_fleet``: RS(5,3) with one spare holding 2 x 1 KiB files
    (k = 4) on a ledger.  Each cycle: a healthy audit round, one server
    goes offline, a quarantining round, then the server restarts with an
    empty disk and ``repair()`` rebuilds and re-audits its slices."""

    name = "repair"
    setup_repeats = 1                  # one set-up signs 50 slice blocks
    trace_ops = 1                      # cycles per traced phase
    metrics = {
        "main": ("repair", "repair_p50_s"),
        "side": ("fleet_round", "fleet_round_p50_s"),
        "rate": ("ledger_audits", "ledger_audits_per_s"),
    }
    k = 4
    servers, parity, spares = 5, 2, 1
    files, file_bytes = 2, 1024

    def __init__(self, seed: int, param_set: str, workdir: str):
        self.seed = seed
        self.ledger_path = os.path.join(workdir, "repair-ledger.jsonl")
        self.ledger = Ledger(path=self.ledger_path)
        self.fleet = build_demo_fleet(servers=self.servers, parity=self.parity,
                                      spares=self.spares, seed=seed, param_set=param_set,
                                      k=self.k, ledger=self.ledger)
        self.counter = OperationCounter()
        self.fleet.group.attach_counter(self.counter)
        payload = _rng(seed, "payload")
        for i in range(self.files):
            self.fleet.store(payload.randbytes(self.file_bytes),
                             f"repair-{seed}-{i}".encode())
        self.cycles = 0

    def config(self) -> dict:
        return {"k": self.k, "servers": self.servers, "parity": self.parity,
                "spares": self.spares, "files": self.files, "file_bytes": self.file_bytes}

    def _cycle(self, rec: Recorder) -> None:
        fleet = self.fleet
        victim = fleet.active_names[(self.seed + self.cycles) % len(fleet.active_names)]
        self.cycles += 1
        healthy = rec.run("fleet_round", fleet.audit_round, ops_kind="fleet_round.healthy")
        rec.counts["timeouts"] += healthy.timeouts
        rec.tally(healthy.passed and healthy.aggregate_ok is True)
        fleet.set_online(victim, False)
        hurt = rec.run("fleet_round.quarantine", fleet.audit_round)
        rec.counts["timeouts"] += hurt.timeouts
        rec.tally(hurt.failures == 0 and fleet.scoreboard.is_quarantined_name(victim))
        fleet.handles[victim].server = CloudServer(fleet.params, org_pk=fleet.owner.sem_pk)
        fleet.set_online(victim, True)
        report = rec.run("repair", fleet.repair)
        rec.counts["slices_rebuilt"] += report.slices_rebuilt
        repaired = (bool(report.tasks) and report.repaired
                    and report.reaudits_passed == len(report.tasks))
        rec.tally(repaired)
        if repaired:
            # Its re-audit passed: the server is back in the healthy pool.
            fleet.scoreboard.record_success_name(victim)

    def loop(self, budget: Budget, rec: Recorder) -> None:
        budget.start()
        done = 0
        while budget.more(done):
            rec.probe()
            self._cycle(rec)
            done += 1

    def wrap_up(self, rec: Recorder) -> None:
        rec.probe()
        start = time.perf_counter()
        report = ledger_module.verify_ledger(self.ledger_path)
        rec.rate("ledger_audits", report.audits_rechecked, time.perf_counter() - start)
        rec.check("verify_ledger ok", report.ok)
        rec.check("verify_ledger rechecked every recorded audit",
                  report.audits_rechecked == self.ledger.counts.get("audit", 0))
        rec.check("no repair left open", not report.open_repairs)

    def verify_outputs(self, rec: Recorder) -> None:
        entries, _ = read_ledger(self.ledger_path)
        genesis = next(e["body"] for e in entries if e["kind"] == "genesis")
        key = next(e["body"] for e in entries if e["kind"] == "verifier_key")
        audit = next(e["body"] for e in reversed(entries) if e["kind"] == "audit")
        forged_path = os.path.join(os.path.dirname(self.ledger_path), "forged.jsonl")
        forged = Ledger(path=forged_path)
        forged.ensure_genesis({k: v for k, v in genesis.items()
                               if k not in ("schema", "epoch_len")})
        forged.append("verifier_key", key)
        forged.append("audit", dict(audit, ok=not audit["ok"]))
        report = ledger_module.verify_ledger(forged_path)
        rec.check("control: forged ledger verdict rejected",
                  not report.ok and report.audit_mismatches == 1)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (UploadWorkload, AuditWorkload, ChurnWorkload, RepairWorkload)
}
