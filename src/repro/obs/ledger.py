"""Tamper-evident audit ledger: append-only hash-chained JSONL.

The flight recorder's accountability layer.  Every protocol decision that
a mutually-distrusting party might later dispute — challenges issued,
proofs returned, Eq. 6 verdicts (with their Exp/Pair deltas), sign
request/response ids, failover round outcomes, quarantine trips,
signing-journal segment digests — is appended as one JSONL entry whose
``hash`` is SHA-256 over the canonical serialization of the entry
*including* the previous entry's hash.  Any single-bit flip, deletion, or
reorder anywhere in the chain breaks a link; truncation beyond the torn
tail is caught by comparing against a separately-communicated head digest
(``verify_ledger(expect_head=...)``).

Beyond chain integrity, ``verify_ledger`` re-checks the *semantics* of
recorded audits offline: a ``genesis`` entry pins (param_set, k, setup
seed), ``verifier_key`` entries pin each verifier's public key, and every
``audit`` entry carries the full challenge (file id + indices + betas) and
proof (sigma + alphas), so Eq. 6 can be re-evaluated from the ledger alone
— a forged verdict with a consistently re-chained hash tail still fails.

Crash semantics follow the signing journal's discipline
(:mod:`repro.service.journal`): appends are flushed line-writes, a torn
final line (the write that was racing the crash) is truncated away on
reopen, and anything torn *before* the final line is corruption and
raises.  Epoch ``checkpoint`` entries every N appends pin (epoch, entry
count, head-so-far) so an auditor can spot-check long chains.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

#: Ledger schema identifier recorded in every genesis entry.
LEDGER_SCHEMA = "repro-ledger-v1"

#: The previous-hash link of a chain's very first entry.
GENESIS_PREV = "0" * 64

#: Default epoch length: one checkpoint entry per this many appends.
DEFAULT_EPOCH_LEN = 256


class LedgerError(Exception):
    """Corrupt, unreadable, or tampered ledger."""


def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def entry_hash(entry: dict) -> str:
    """SHA-256 over the canonical entry with its own ``hash`` removed."""
    unsealed = {k: v for k, v in entry.items() if k != "hash"}
    return hashlib.sha256(_canonical(unsealed)).hexdigest()


class Ledger:
    """Append-only hash-chained event log (file-backed or in-memory).

    Args:
        path: JSONL file to append to; ``None`` keeps the chain in memory
            only (tests, benches).  Reopening an existing file resumes the
            chain from its head — after truncating a torn final line, the
            same recovery the signing journal performs.
        clock: zero-argument callable stamping each entry's virtual time
            (``lambda: sim.now`` under the simulator; defaults to 0.0 so
            CLI-side entries stay deterministic).
        epoch_len: appends per epoch checkpoint entry.
        fsync: fsync after every append (crash drills; slow).
    """

    def __init__(self, path=None, clock=None, epoch_len: int = DEFAULT_EPOCH_LEN,
                 fsync: bool = False):
        if epoch_len < 2:
            raise LedgerError("epoch_len must be at least 2")
        self.path = os.fspath(path) if path is not None else None
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.epoch_len = epoch_len
        self.fsync = fsync
        self.entries: list[dict] = []      # in-memory mode only
        self.counts: dict[str, int] = {}
        self._seq = 0
        self._prev = GENESIS_PREV
        self.torn_tail = False
        if self.path is not None and os.path.exists(self.path):
            self._resume()

    # -- recovery ------------------------------------------------------------
    def _resume(self) -> None:
        entries, torn = read_ledger(self.path)
        self.torn_tail = torn
        if torn:
            # Drop the torn tail so the next append re-extends a clean chain.
            with open(self.path, "r+b") as handle:
                data = handle.read()
                keep = data.rfind(b"\n") + 1
                handle.truncate(keep)
        for entry in entries:
            if entry_hash(entry) != entry["hash"]:
                raise LedgerError(
                    f"corrupt ledger entry at seq {entry.get('seq')}: hash mismatch"
                )
            if entry["prev"] != self._prev:
                raise LedgerError(
                    f"broken hash chain at seq {entry.get('seq')}"
                )
            self._prev = entry["hash"]
            self._seq = entry["seq"] + 1
            self.counts[entry["kind"]] = self.counts.get(entry["kind"], 0) + 1
            if entry["kind"] == "genesis" and "epoch_len" in entry["body"]:
                # Resume with the chain's own epoch cadence, not ours.
                self.epoch_len = int(entry["body"]["epoch_len"])

    # -- appending -----------------------------------------------------------
    def append(self, kind: str, body: dict) -> dict:
        """Seal one entry onto the chain and persist it."""
        entry = {
            "seq": self._seq,
            "t": round(float(self.clock()), 9),
            "kind": kind,
            "body": body,
            "prev": self._prev,
        }
        entry["hash"] = entry_hash(entry)
        self._seq += 1
        self._prev = entry["hash"]
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.path is None:
            self.entries.append(entry)
        else:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True,
                                        separators=(",", ":")) + "\n")
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        if self._seq % self.epoch_len == 0 and kind != "checkpoint":
            self.append("checkpoint", {
                "epoch": self._seq // self.epoch_len,
                "entries": self._seq,
                "head": entry["hash"],
            })
        return entry

    def ensure_genesis(self, meta: dict) -> bool:
        """Append a genesis entry unless the chain already starts with this
        exact metadata; returns True when a new genesis was written."""
        if self._seq == 0 or self._latest_genesis_meta() != meta:
            self.append("genesis", {"schema": LEDGER_SCHEMA,
                                    "epoch_len": self.epoch_len, **meta})
            return True
        return False

    def _latest_genesis_meta(self) -> dict | None:
        if self.path is None:
            source = self.entries
        else:
            source, _ = read_ledger(self.path)
        for entry in reversed(source):
            if entry["kind"] == "genesis":
                body = dict(entry["body"])
                body.pop("schema", None)
                body.pop("epoch_len", None)
                return body
        return None

    # -- heads ---------------------------------------------------------------
    def head(self) -> dict:
        """The chain head: entry count, epoch, and head hash."""
        return {
            "entries": self._seq,
            "epoch": self._seq // self.epoch_len,
            "hash": self._prev,
        }


# -- offline reading ---------------------------------------------------------

def read_ledger(path) -> tuple[list[dict], bool]:
    """Parse a ledger file; returns (entries, torn_tail).

    A torn final line (crash mid-append) is tolerated and reported; a
    malformed line anywhere else raises :class:`LedgerError` — the chain
    behind it is unusable.
    """
    entries: list[dict] = []
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for lineno, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            entries.append(json.loads(raw.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A flipped bit can break UTF-8 just as easily as JSON; both
            # are tamper unless it is the torn final line of a crash.
            if lineno == len(lines) - 1:
                return entries, True
            raise LedgerError(f"corrupt ledger record at line {lineno + 1}")
    return entries, False


def ledger_head(path) -> dict | None:
    """The head of a ledger file (None when empty), without verification."""
    entries, _ = read_ledger(path)
    if not entries:
        return None
    last = entries[-1]
    epoch_len = DEFAULT_EPOCH_LEN
    for entry in entries:
        if entry.get("kind") == "genesis":
            epoch_len = int(entry["body"].get("epoch_len", DEFAULT_EPOCH_LEN))
            break
    count = last["seq"] + 1
    return {"entries": count, "epoch": count // epoch_len, "hash": last["hash"]}


# -- offline verification -----------------------------------------------------

@dataclass
class LedgerVerification:
    """The full result of one offline ``ledger verify`` walk."""

    path: str
    entries: int = 0
    torn_tail: bool = False
    head: str = GENESIS_PREV
    errors: list[str] = field(default_factory=list)
    audits_rechecked: int = 0
    audit_mismatches: int = 0
    meterings_checked: int = 0
    repairs_checked: int = 0
    updates_checked: int = 0
    open_repairs: list[str] = field(default_factory=list)
    open_updates: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors


class _AuditRuntime:
    """Crypto context rebuilt from genesis/verifier_key entries, lazily."""

    def __init__(self):
        self.params = None
        self.pks: dict[str, object] = {}
        self.failure: str | None = None

    def load_genesis(self, body: dict) -> None:
        from repro.core.params import setup
        from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

        self.pks = {}
        self.failure = None
        if not {"param_set", "k", "setup_seed"} <= set(body):
            # A chain-only genesis (no crypto pins): rechecking is simply
            # unavailable, not an error.
            self.params = None
            return
        try:
            group = TypeAPairingGroup.from_params(
                TYPE_A_PARAM_SETS[body["param_set"]])
            self.params = setup(group, int(body["k"]),
                                seed=bytes.fromhex(body["setup_seed"]))
        except Exception as exc:  # unknown param set, bad seed, …
            self.params = None
            self.failure = f"cannot rebuild parameters: {exc}"

    def load_key(self, body: dict) -> None:
        from repro.pairing.interface import GroupElement

        if self.params is None:
            return
        group = self.params.group
        element = group.deserialize_g1(bytes.fromhex(body["pk"]))
        # Type A is symmetric: G1 and G2 share the serialization, so the
        # G2 public key round-trips through deserialize_g1 plus a rewrap.
        self.pks[body["verifier"]] = GroupElement(group, element.point, "g2")

    def recheck(self, kind: str, body: dict) -> bool | None:
        """Re-evaluate Eq. 6 for one audit or dyn_audit entry; None when
        impossible.

        A static ``audit`` derives each block id from (file, index).  A
        ``dyn_audit`` records the rank-authenticated identifiers
        explicitly (they are not derivable from positions alone), so the
        recheck replays the same identifiers the TPA verified.
        """
        from repro.core.blocks import make_block_id
        from repro.core.challenge import Challenge, ProofResponse
        from repro.core.verifier import PublicVerifier

        if self.params is None:
            return None
        pk = self.pks.get(body.get("verifier"))
        if pk is None:
            return None
        indices = tuple(int(i) for i in body["indices"])
        if kind == "dyn_audit":
            block_ids = tuple(bytes.fromhex(b) for b in body["block_ids"])
        else:
            file_id = bytes.fromhex(body["file"])
            block_ids = tuple(make_block_id(file_id, i) for i in indices)
        challenge = Challenge(
            indices=indices,
            block_ids=block_ids,
            betas=tuple(int(b) for b in body["betas"]),
        )
        sigma = self.params.group.deserialize_g1(bytes.fromhex(body["sigma"]))
        response = ProofResponse(
            sigma=sigma, alphas=tuple(int(a) for a in body["alphas"])
        )
        return PublicVerifier(self.params, pk).verify(challenge, response)


class _MeterAudit:
    """Re-adds metering deltas offline; totals must match the records.

    A forged delta (or total) in any ``metering`` entry desynchronises
    the running sum from the recorded cumulative total; a consistently
    forged suffix is still caught by the ``metering_close`` grand totals
    (and, failing that, by the pinned head).  Epoch numbers must be
    strictly increasing — a replayed or dropped epoch breaks billing.
    """

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {}
        self.last_epoch = 0

    def check_record(self, body: dict) -> list[str]:
        problems = []
        epoch = body.get("epoch")
        scope = body.get("scope")
        delta = body.get("delta") or {}
        total = body.get("total") or {}
        if not isinstance(epoch, int) or epoch <= self.last_epoch:
            problems.append(
                f"epoch {epoch!r} not strictly increasing "
                f"(last was {self.last_epoch})")
        else:
            self.last_epoch = epoch
        running = self.totals.setdefault(str(scope), {})
        for key in sorted(set(delta) | set(total)):
            running[key] = running.get(key, 0) + delta.get(key, 0)
            if running[key] != total.get(key):
                problems.append(
                    f"scope {scope}: cumulative {key}={total.get(key)} does "
                    f"not match the recorded deltas (expected {running[key]})"
                    " — forged metering record")
        return problems

    def check_close(self, body: dict) -> list[str]:
        problems = []
        claimed = body.get("totals") or {}
        for scope in sorted(set(claimed) | set(self.totals)):
            if claimed.get(scope) != self.totals.get(scope):
                problems.append(
                    f"closing totals for scope {scope} "
                    f"({claimed.get(scope)}) do not match the metering "
                    f"records ({self.totals.get(scope)})")
        return problems


class _RepairAudit:
    """Structural verification of fleet repair lifecycles.

    Every ``repair_slice`` / ``repair_complete`` / ``repair_failed``
    entry must reference a ``repair_begin`` that is still open, and a
    ``repair_complete`` must report the stripe count its begin promised.
    Repairs still open at the chain tail are *not* an error — that is
    exactly the crash-mid-repair state :meth:`FleetStore.resume_repairs`
    recovers from — but they are surfaced so the operator can tell a
    clean chain from an interrupted one.  The cryptographic half of the
    repair verdict is the post-repair ``audit`` entry, which the regular
    Eq. 6 recheck already covers.
    """

    def __init__(self):
        self.open: dict[str, dict] = {}

    def check(self, kind: str, body: dict) -> list[str]:
        repair_id = body.get("repair")
        if not isinstance(repair_id, str) or not repair_id:
            return [f"{kind} entry without a repair id"]
        if kind == "repair_begin":
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
        if kind == "repair_slice":
            if body.get("stripes") != begun.get("stripes"):
                problems.append(
                    f"repair {repair_id}: slice carries {body.get('stripes')} "
                    f"stripes but its begin promised {begun.get('stripes')}")
        elif kind == "repair_complete":
            if body.get("slices") != begun.get("stripes"):
                problems.append(
                    f"repair {repair_id}: completion reports "
                    f"{body.get('slices')} slices but its begin promised "
                    f"{begun.get('stripes')}")
            self.open.pop(repair_id, None)
        elif kind == "repair_failed":
            self.open.pop(repair_id, None)
        return problems


class _DynamicAudit:
    """Shadow-replay of dynamic-file root transitions.

    ``dyn_create`` plants a shadow rank tree from the recorded leaves;
    every ``dyn_update_begin`` must assert exactly the shadow's current
    root, and every ``dyn_update_commit`` re-applies its begin's
    recorded ops to the shadow tree — the recomputed root must equal the
    recorded root-after, or the transition was forged.  A second begin
    for the same file with the same root-before supersedes the open one
    (the crash-retry path: the first batch never committed, so the state
    never moved); a begin with a *different* root-before while one is
    open means a commit went missing.  Batches still open at the chain
    tail are surfaced, not failed — that is the torn mid-batch state the
    store resumes from idempotently.
    """

    def __init__(self):
        self.trees: dict[str, object] = {}
        self.open: dict[str, dict] = {}

    def check(self, kind: str, body: dict) -> list[str]:
        from repro.dynamic.rank_tree import RankTree

        file = body.get("file")
        if not isinstance(file, str) or not file:
            return [f"{kind} entry without a file id"]
        if kind == "dyn_create":
            if file in self.trees:
                return [f"dynamic file {file[:16]} created twice"]
            try:
                leaves = [bytes.fromhex(leaf) for leaf in body.get("leaves", [])]
            except ValueError:
                return [f"dynamic file {file[:16]}: unparseable create leaves"]
            tree = RankTree(leaves)
            self.trees[file] = tree
            problems = []
            if body.get("count") != len(leaves):
                problems.append(
                    f"dynamic file {file[:16]}: create count {body.get('count')} "
                    f"does not match its {len(leaves)} leaves")
            if body.get("root") != tree.root.hex():
                problems.append(
                    f"dynamic file {file[:16]}: create root does not hash "
                    "from the recorded leaves — forged initial root")
            return problems
        tree = self.trees.get(file)
        if tree is None:
            return [f"{kind} references dynamic file {file[:16]} that was "
                    "never created — spliced update record"]
        if kind == "dyn_update_begin":
            if body.get("root_before") != tree.root.hex():
                return [
                    f"dynamic file {file[:16]}: batch {body.get('batch')} "
                    f"asserts root-before {str(body.get('root_before'))[:16]}… "
                    "but the replayed state disagrees — forged or out-of-order"
                    " update"]
            open_batch = self.open.get(file)
            if open_batch is not None and (
                open_batch.get("root_before") != body.get("root_before")
            ):
                return [
                    f"dynamic file {file[:16]}: batch {body.get('batch')} "
                    f"begun while batch {open_batch.get('batch')} is open at a "
                    "different root — missing commit"]
            # Same root-before: an idempotent crash retry; supersede.
            self.open[file] = body
            return []
        # dyn_update_commit
        begun = self.open.get(file)
        if begun is None or begun.get("batch") != body.get("batch"):
            return [f"dynamic file {file[:16]}: commit for batch "
                    f"{body.get('batch')} without a matching open begin"]
        self.open.pop(file)
        problems = []
        signed = 0
        for record in begun.get("ops", []):
            op, position = record.get("op"), record.get("position")
            try:
                if op == "delete":
                    tree.delete(position)
                else:
                    leaf = bytes.fromhex(record.get("leaf", ""))
                    signed += 1
                    if op == "modify":
                        tree.modify(position, leaf)
                    elif op == "insert":
                        tree.insert(position, leaf)
                    elif op == "append":
                        tree.append(leaf)
                    else:
                        problems.append(
                            f"dynamic file {file[:16]}: unknown op {op!r} in "
                            f"batch {body.get('batch')}")
            except (IndexError, TypeError, ValueError):
                problems.append(
                    f"dynamic file {file[:16]}: op {op!r} at position "
                    f"{position!r} does not apply to the replayed state")
        if body.get("root_after") != tree.root.hex():
            problems.append(
                f"dynamic file {file[:16]}: batch {body.get('batch')} commits "
                f"root-after {str(body.get('root_after'))[:16]}… but replaying "
                "its recorded ops yields a different root — forged root "
                "transition")
        if body.get("count") != len(tree):
            problems.append(
                f"dynamic file {file[:16]}: commit count {body.get('count')} "
                f"does not match the replayed {len(tree)} leaves")
        if body.get("signed_blocks") != signed:
            problems.append(
                f"dynamic file {file[:16]}: commit claims "
                f"{body.get('signed_blocks')} signed blocks but its begin "
                f"records {signed} non-delete ops")
        return problems


def verify_ledger(path, expect_head: str | None = None,
                  recheck: bool = True) -> LedgerVerification:
    """Re-walk a ledger chain offline and fail loudly on any tamper.

    Checks, in order: every line parses (torn tail tolerated), every
    entry's hash seals its canonical serialization, every ``prev`` links
    the preceding hash, ``seq`` is gapless from 0, checkpoint entries pin
    the head they claim, every ``metering`` entry's cumulative totals
    re-add from the recorded deltas (and the ``metering_close`` grand
    totals match), every fleet repair record references an open
    ``repair_begin`` with consistent stripe counts (repairs still open at
    the tail are reported, not failed — that is the crash-resume state),
    every dynamic-file root transition replays from its recorded ops
    (``dyn_create`` / ``dyn_update_begin`` / ``dyn_update_commit`` — a
    commit whose root-after disagrees with the replayed rank tree is a
    forged transition; a batch open at the tail is the torn mid-update
    state, reported not failed),
    and — when ``recheck`` is on and the genesis metadata
    allows rebuilding the crypto context — every recorded audit verdict
    matches a fresh Eq. 6 evaluation of its recorded proof.
    ``expect_head`` defends against whole-suffix truncation and total
    re-chain forgery, which no chain-internal check can see.
    """
    report = LedgerVerification(path=os.fspath(path))
    try:
        entries, torn = read_ledger(path)
    except (OSError, LedgerError) as exc:
        report.errors.append(str(exc))
        return report
    report.torn_tail = torn
    runtime = _AuditRuntime() if recheck else None
    metering = _MeterAudit()
    repairs = _RepairAudit()
    dynamics = _DynamicAudit()
    prev = GENESIS_PREV
    for position, entry in enumerate(entries):
        label = f"entry {position}"
        try:
            seq, kind = entry["seq"], entry["kind"]
        except (TypeError, KeyError):
            report.errors.append(f"{label}: missing seq/kind fields")
            return report
        if seq != position:
            report.errors.append(
                f"{label}: seq {seq} out of order (expected {position}) — "
                "entry deleted, inserted, or reordered")
            return report
        if entry.get("prev") != prev:
            report.errors.append(f"{label} (kind {kind}): prev-hash link broken")
            return report
        if entry_hash(entry) != entry.get("hash"):
            report.errors.append(
                f"{label} (kind {kind}): hash does not seal the entry — "
                "contents tampered")
            return report
        prev = entry["hash"]
        report.entries += 1
        report.counts[kind] = report.counts.get(kind, 0) + 1
        if kind == "checkpoint":
            body = entry["body"]
            if body.get("entries") != seq or entries[seq - 1]["hash"] != body.get("head"):
                report.errors.append(f"{label}: checkpoint does not pin the chain head")
                return report
        elif kind == "metering":
            report.meterings_checked += 1
            for problem in metering.check_record(entry["body"]):
                report.errors.append(f"{label}: {problem}")
        elif kind == "metering_close":
            for problem in metering.check_close(entry["body"]):
                report.errors.append(f"{label}: {problem}")
        elif kind in ("repair_begin", "repair_slice", "repair_complete",
                      "repair_failed"):
            report.repairs_checked += 1
            for problem in repairs.check(kind, entry["body"]):
                report.errors.append(f"{label}: {problem}")
        elif kind in ("dyn_create", "dyn_update_begin", "dyn_update_commit"):
            report.updates_checked += 1
            for problem in dynamics.check(kind, entry["body"]):
                report.errors.append(f"{label}: {problem}")
        if runtime is not None:
            if kind == "genesis":
                runtime.load_genesis(entry["body"])
                if runtime.failure:
                    report.errors.append(f"{label}: {runtime.failure}")
            elif kind == "verifier_key":
                try:
                    runtime.load_key(entry["body"])
                except Exception as exc:
                    report.errors.append(f"{label}: bad verifier key: {exc}")
            elif kind in ("audit", "dyn_audit"):
                try:
                    verdict = runtime.recheck(kind, entry["body"])
                except Exception as exc:
                    report.errors.append(f"{label}: audit recheck failed: {exc}")
                    report.audit_mismatches += 1
                    continue
                if verdict is None:
                    continue
                report.audits_rechecked += 1
                if verdict != entry["body"].get("ok"):
                    report.audit_mismatches += 1
                    report.errors.append(
                        f"{label}: recorded verdict ok={entry['body'].get('ok')} "
                        f"but Eq. 6 re-evaluates to {verdict} — forged verdict")
    report.head = prev
    report.open_repairs = sorted(repairs.open)
    report.open_updates = sorted(
        f"{file[:16]}:{body.get('batch')}" for file, body in dynamics.open.items()
    )
    if expect_head is not None and prev != expect_head:
        report.errors.append(
            f"head hash {prev[:16]}… does not match expected "
            f"{expect_head[:16]}… — chain truncated or wholly replaced")
    return report
