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
This module owns those records (:func:`audit_record`); every other kind
is checked by the module that writes it (see :func:`verify_ledger`).

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

from repro.obs.exporters import model_equivalent_exp

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
        for position, entry in enumerate(entries):
            problem = _chain_break(entry, position, self._prev)
            if problem is not None:
                raise LedgerError(f"corrupt ledger: {problem}")
            self._prev = entry["hash"]
            self._seq = position + 1
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

    def pin_verifier(self, name: str, pk) -> dict:
        """Record ``name``'s public key for the offline Eq. 6 recheck."""
        return self.append("verifier_key", {"verifier": name,
                                            "pk": pk.to_bytes().hex()})

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

def _is_record(record) -> bool:
    """The shape every appended entry has: int ``seq``, numeric ``t``,
    str ``kind``/``prev``/``hash``, and an object ``body``."""
    return (
        isinstance(record, dict)
        and type(record.get("seq")) is int
        and type(record.get("t")) in (int, float)
        and all(isinstance(record.get(key), str) for key in ("kind", "prev", "hash"))
        and isinstance(record.get("body"), dict)
    )


def read_ledger(path) -> tuple[list[dict], bool]:
    """Parse a ledger file; returns (entries, torn_tail).

    A torn final line (crash mid-append) is tolerated and reported; a
    malformed line anywhere else — and any line that parses but is not
    shaped like a ledger record — raises :class:`LedgerError`: the chain
    behind it is unusable.
    """
    entries: list[dict] = []
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for lineno, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A flipped bit can break UTF-8 just as easily as JSON; both
            # are tamper unless it is the torn final line of a crash.
            if lineno == len(lines) - 1:
                return entries, True
            raise LedgerError(f"corrupt ledger record at line {lineno + 1}")
        if not _is_record(record):
            # A torn write never parses, so this is tamper on any line.
            raise LedgerError(f"malformed ledger record at line {lineno + 1}: "
                              "not a sealed entry")
        entries.append(record)
    return entries, False


def ledger_head(path) -> dict | None:
    """The head of a ledger file (None when empty), without verification."""
    entries, _ = read_ledger(path)
    if not entries:
        return None
    last = entries[-1]
    epoch_len = DEFAULT_EPOCH_LEN
    for entry in entries:
        if entry["kind"] == "genesis":
            epoch_len = int(entry["body"].get("epoch_len", DEFAULT_EPOCH_LEN))
            break
    count = last["seq"] + 1
    return {"entries": count, "epoch": count // epoch_len, "hash": last["hash"]}


# -- audit records -------------------------------------------------------------

def audit_record(verifier: str, file_id: bytes, challenge, proof, ok: bool,
                 ops: tuple[dict, dict] | None = None) -> tuple[str, dict]:
    """The ``(kind, body)`` ledger entry for one audit verdict: the full
    challenge and proof, so :func:`verify_ledger` can re-evaluate Eq. 6.

    A :class:`~repro.dynamic.store.DynamicProof` makes a ``dyn_audit``
    that also records its epoch and rank-authenticated block ids.
    ``ops`` — counter snapshots (before, after) around the verification
    — adds the verdict's model-equivalent Exp and pairing cost.
    """
    response = getattr(proof, "response", proof)
    body = {
        "verifier": verifier,
        "file": file_id.hex(),
        "indices": [int(i) for i in challenge.indices],
        "betas": [int(b) for b in challenge.betas],
        "sigma": response.sigma.to_bytes().hex(),
        "alphas": [int(a) for a in response.alphas],
        "ok": ok,
    }
    kind = "audit"
    if response is not proof:
        kind = "dyn_audit"
        body["epoch"] = proof.epoch
        body["block_ids"] = [b.hex() for b in proof.block_ids]
    if ops is not None:
        before, after = ops
        body["exp"] = model_equivalent_exp(after) - model_equivalent_exp(before)
        body["pair"] = after.get("pairings", 0) - before.get("pairings", 0)
    return kind, body


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


class _AuditRecheck:
    """Eq. 6 re-evaluation of recorded audit verdicts.

    The crypto context is rebuilt lazily from the chain itself: a
    ``genesis`` entry's (param_set, k, setup seed) rebuilds the
    parameters, each ``verifier_key`` entry pins one verifier's public
    key, and every ``audit`` / ``dyn_audit`` body (see
    :func:`audit_record`) is then re-verified from its recorded challenge
    and proof.  With ``enabled=False`` the checker owns no kinds.
    """

    def __init__(self, enabled: bool = True):
        self.kinds = (("genesis", "verifier_key", "audit", "dyn_audit")
                      if enabled else ())
        self.params = None
        self.pks: dict[str, object] = {}
        self.rechecked = 0
        self.mismatches = 0

    def check(self, kind: str, body: dict) -> list[str]:
        if kind == "genesis":
            return self._load_genesis(body)
        if kind == "verifier_key":
            if self.params is not None:
                from repro.pairing.interface import GroupElement

                # Type A is symmetric: G1 and G2 share the serialization, so
                # the G2 key round-trips through deserialize_g1 plus a rewrap.
                group = self.params.group
                point = group.deserialize_g1(bytes.fromhex(body["pk"])).point
                self.pks[body["verifier"]] = GroupElement(group, point, "g2")
            return []
        try:
            verdict = self._recheck(kind, body)
        except Exception as exc:
            self.mismatches += 1
            return [f"audit recheck failed: {exc}"]
        if verdict is None:
            return []
        self.rechecked += 1
        if verdict != body.get("ok"):
            self.mismatches += 1
            return [f"recorded verdict ok={body.get('ok')} but Eq. 6 "
                    f"re-evaluates to {verdict} — forged verdict"]
        return []

    def finish(self, report: LedgerVerification) -> None:
        report.audits_rechecked = self.rechecked
        report.audit_mismatches = self.mismatches

    def _load_genesis(self, body: dict) -> list[str]:
        from repro.core.params import setup
        from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

        self.pks = {}
        self.params = None
        if not {"param_set", "k", "setup_seed"} <= set(body):
            # A chain-only genesis (no crypto pins): rechecking is simply
            # unavailable, not an error.
            return []
        try:
            group = TypeAPairingGroup.from_params(
                TYPE_A_PARAM_SETS[body["param_set"]])
            self.params = setup(group, int(body["k"]),
                                seed=bytes.fromhex(body["setup_seed"]))
        except Exception as exc:  # unknown param set, bad seed, …
            return [f"cannot rebuild parameters: {exc}"]
        return []

    def _recheck(self, kind: str, body: dict) -> bool | None:
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


def _chain_break(entry: dict, position: int, prev: str) -> str | None:
    """Why ``entry`` cannot sit at ``position`` after head ``prev``, or None.

    ``seq`` must be gapless from 0, ``prev`` must link the preceding
    hash, the entry's hash must seal its canonical serialization, and a
    checkpoint must pin the head it claims.
    """
    label, kind, body = f"entry {position}", entry["kind"], entry["body"]
    if entry["seq"] != position:
        return (f"{label}: seq {entry['seq']} out of order (expected "
                f"{position}) — entry deleted, inserted, or reordered")
    if entry["prev"] != prev:
        return f"{label} (kind {kind}): prev-hash link broken"
    if entry_hash(entry) != entry["hash"]:
        return (f"{label} (kind {kind}): hash does not seal the entry — "
                "contents tampered")
    if kind == "checkpoint" and (body.get("entries") != position
                                 or body.get("head") != prev):
        return f"{label}: checkpoint does not pin the chain head"
    return None


def verify_ledger(path, expect_head: str | None = None,
                  recheck: bool = True) -> LedgerVerification:
    """Re-walk a ledger chain offline and fail loudly on any tamper.

    Every line must parse into a record (torn tail tolerated) that extends
    the chain (:func:`_chain_break`).  Every other record kind is
    re-derived by the checker of the module that writes it: metering
    totals re-add from their deltas (:class:`repro.obs.meter.MeterChecker`),
    fleet repairs form begin → slice* → complete/failed lifecycles
    (:class:`repro.erasure.fleet.RepairChecker`), dynamic-file root
    transitions replay from their recorded ops
    (:class:`repro.dynamic.store.DynamicChecker`), and — when ``recheck``
    is on and the genesis pins allow rebuilding the crypto context —
    every recorded audit verdict matches a fresh Eq. 6 evaluation.
    Repairs and update batches still open at the tail are the
    crash-resume state: reported, not failed.  A checker that raises on
    a malformed body is an error on that entry.  ``expect_head`` defends
    against whole-suffix truncation and total re-chain forgery, which no
    chain-internal check can see.
    """
    from repro.dynamic.store import DynamicChecker
    from repro.erasure.fleet import RepairChecker
    from repro.obs.meter import MeterChecker

    report = LedgerVerification(path=os.fspath(path))
    try:
        entries, torn = read_ledger(path)
    except (OSError, LedgerError) as exc:
        report.errors.append(str(exc))
        return report
    report.torn_tail = torn
    checkers = (_AuditRecheck(enabled=recheck), MeterChecker(),
                RepairChecker(), DynamicChecker())
    dispatch = {kind: checker for checker in checkers for kind in checker.kinds}
    prev = GENESIS_PREV
    for position, entry in enumerate(entries):
        problem = _chain_break(entry, position, prev)
        if problem is not None:
            report.errors.append(problem)
            return report
        prev, kind = entry["hash"], entry["kind"]
        report.entries += 1
        report.counts[kind] = report.counts.get(kind, 0) + 1
        checker = dispatch.get(kind)
        if checker is None:
            continue
        try:
            problems = checker.check(kind, entry["body"])
        except Exception as exc:
            problems = [f"malformed {kind} record: {exc!r}"]
        report.errors.extend(f"entry {position}: {p}" for p in problems)
    report.head = prev
    for checker in checkers:
        checker.finish(report)
    if expect_head is not None and prev != expect_head:
        report.errors.append(
            f"head hash {prev[:16]}… does not match expected "
            f"{expect_head[:16]}… — chain truncated or wholly replaced")
    return report
