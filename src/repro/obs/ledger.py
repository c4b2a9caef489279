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
The recorded PASS verdicts under one key are rechecked together, in
random-weight ``verify_batch`` checks of up to :data:`MAX_RECHECK_BATCH`
records (two pairings each); only a failing batch is binary-split, down
to the single records that mismatch.
This module owns those records (:func:`audit_record`); every other kind
is checked by the module that writes it (see :func:`verify_ledger`).

Crash semantics are shared with the signing journal
(:mod:`repro.service.journal`), in :func:`truncate_torn_tail`: appends
are flushed line-writes, a record exists once its newline is written,
whatever follows the last newline (the write that was racing the crash)
is truncated away on reopen, and a bad line *before* it is corruption
and raises.  Epoch ``checkpoint`` entries every N appends pin (epoch, entry
count, head-so-far) so an auditor can spot-check long chains.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

from repro.core.blocks import make_block_id
from repro.core.challenge import Challenge, ProofResponse
from repro.core.verifier import PublicVerifier, bisect_failures
from repro.obs.exporters import model_equivalent_exp
from repro.pairing.interface import GroupElement

#: Ledger schema identifier recorded in every genesis entry.
LEDGER_SCHEMA = "repro-ledger-v1"

#: The previous-hash link of a chain's very first entry.
GENESIS_PREV = "0" * 64

#: Default epoch length: one checkpoint entry per this many appends.
DEFAULT_EPOCH_LEN = 256

#: Most recorded PASS verdicts the offline recheck holds in one batch:
#: memory stays flat however long the ledger is, and each 32 records still
#: share one pair of pairings.
MAX_RECHECK_BATCH = 32


class LedgerError(Exception):
    """Corrupt, unreadable, or tampered ledger."""


def truncate_torn_tail(path) -> bool:
    """Cut an append-only JSONL file back to its last newline.

    The crash rule of the ledger and the signing journal: a record exists
    once its newline is written, so whatever follows the last newline is
    the torn tail of an append that raced a crash, even when it parses.
    Cutting it on reopen lets the next append start a line of its own.

    Returns:
        True when a torn tail was cut.
    """
    with open(path, "r+b") as handle:
        end = position = handle.seek(0, os.SEEK_END)
        while position:
            step = min(position, 1 << 16)
            position -= step
            handle.seek(position)
            newline = handle.read(step).rfind(b"\n")
            if newline >= 0:
                position += newline + 1
                break
        if position == end:
            return False
        handle.truncate(position)
        return True


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
            chain from its head, after :func:`truncate_torn_tail`.
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
        self.torn_tail = truncate_torn_tail(self.path)
        entries, _ = read_ledger(self.path)
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


def iter_ledger(path):
    """Yield a ledger file's records one line at a time; returns torn_tail.

    The generator's return value (``StopIteration.value``) is True when
    the file ends in a torn tail (bytes after the last newline, see
    :func:`truncate_torn_tail`): it is tolerated, reported, and not
    yielded.  A malformed line anywhere else — and any line that parses
    but is not shaped like a ledger record — raises :class:`LedgerError`:
    the chain behind it is unusable.  Only one line is held at a time.
    """
    lineno = 0
    with open(path, "rb") as handle:
        # Iterating splits after each b"\n"; splitlines() then splits the
        # pieces further exactly as bytes.splitlines() splits the file.
        for chunk in handle:
            if not chunk.endswith(b"\n"):
                return True
            for raw in chunk.splitlines():
                lineno += 1
                if not raw.strip():
                    continue
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    # A flipped bit can break UTF-8 just as easily as JSON.
                    raise LedgerError(f"corrupt ledger record at line {lineno}")
                if not _is_record(record):
                    raise LedgerError(f"malformed ledger record at line {lineno}: "
                                      "not a sealed entry")
                yield record
    return False


def read_ledger(path) -> tuple[list[dict], bool]:
    """Parse a whole ledger file; returns (entries, torn_tail).

    The list form of :func:`iter_ledger`, with the same rules.
    """
    entries: list[dict] = []
    walk = iter_ledger(path)
    while True:
        try:
            entries.append(next(walk))
        except StopIteration as stop:
            return entries, stop.value


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
    audit_batches: int = 0
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
    :func:`audit_record`) is decoded into its recorded challenge and
    proof under the key in effect.

    A recorded FAIL (or a record no batch can hold: k alphas missing, an
    empty challenge) is re-verified on its own at once, because each FAIL
    must fail by itself.  A recorded PASS is queued under its key, and
    each queue is rechecked in one :meth:`PublicVerifier.verify_batch`
    when a ``genesis`` or a re-pinning ``verifier_key`` entry retires
    that key, when it holds :data:`MAX_RECHECK_BATCH` records, and at
    :meth:`finish`.  A failing (or raising) batch is
    split by :func:`~repro.core.verifier.bisect_failures` down to single
    records, which get the same plain :meth:`PublicVerifier.verify` — and
    the same error text — as a FAIL.  A queued record's problem list is
    returned empty by :meth:`check` and filled when its queue is flushed.
    Both paths run through one :class:`PublicVerifier` per pinned key, so
    its hash cache serves every record under that key; it is dropped when
    the key is re-pinned or a genesis resets the context.  With
    ``enabled=False`` the checker owns no kinds.
    """

    def __init__(self, enabled: bool = True):
        self.kinds = (("genesis", "verifier_key", "audit", "dyn_audit")
                      if enabled else ())
        self.params = None
        self.pks: dict[str, object] = {}
        #: pk point -> the one verifier rechecking records under that key.
        self.verifiers: dict[object, PublicVerifier] = {}
        #: pk point -> queued PASS records (challenge, response, problems).
        self.pending: dict[object, list[tuple]] = {}
        self.rechecked = 0
        self.mismatches = 0
        self.batches = 0

    def check(self, kind: str, body: dict) -> list[str]:
        if kind == "genesis":
            self.flush()
            return self._load_genesis(body)
        if kind == "verifier_key":
            if self.params is not None:
                self._pin(body)
            return []
        try:
            decoded = self._decode(kind, body)
        except Exception as exc:
            self.mismatches += 1
            return [f"audit recheck failed: {exc}"]
        if decoded is None:
            return []
        pk, challenge, response = decoded
        problems: list[str] = []
        if (body.get("ok") is True and challenge.block_ids
                and len(response.alphas) == self.params.k):
            queue = self.pending.setdefault(pk.point, [])
            queue.append((challenge, response, problems))
            if len(queue) >= MAX_RECHECK_BATCH:
                self._flush(pk.point)
        else:
            problems += self._recheck_one(self._verifier(pk.point),
                                          challenge, response, body.get("ok"))
        return problems

    def finish(self, report: LedgerVerification) -> None:
        self.flush()
        report.audits_rechecked = self.rechecked
        report.audit_mismatches = self.mismatches
        report.audit_batches = self.batches

    def queued(self) -> set[int]:
        """The ids of the problem lists still waiting in a queue."""
        return {id(problems) for queue in self.pending.values()
                for _, _, problems in queue}

    def flush(self) -> None:
        """Recheck every queued PASS record."""
        for point in list(self.pending):
            self._flush(point)

    def _pin(self, body: dict) -> None:
        pk = self.params.group.deserialize_g1(bytes.fromhex(body["pk"]))
        previous = self.pks.get(body["verifier"])
        if previous is not None and previous.point != pk.point:
            self._flush(previous.point)
            self.verifiers.pop(previous.point, None)
        self.pks[body["verifier"]] = pk

    def _verifier(self, point) -> PublicVerifier:
        verifier = self.verifiers.get(point)
        if verifier is None:
            # No rng: the batch weights come from OS randomness, never
            # from anything written in the ledger.
            verifier = PublicVerifier(self.params, GroupElement(self.params.group, point))
            self.verifiers[point] = verifier
        return verifier

    def _flush(self, point) -> None:
        """One ``verify_batch`` over the PASS records queued under ``point``,
        bisected down to plain rechecks of single records if it fails."""
        records = self.pending.pop(point, [])
        verifier = self._verifier(point)

        def check_range(lo: int, hi: int) -> bool:
            if hi - lo == 1:
                challenge, response, problems = records[lo]
                problems += self._recheck_one(verifier, challenge, response, True)
                return not problems
            self.batches += 1
            try:
                ok = verifier.verify_batch(
                    [(challenge, response) for challenge, response, _ in records[lo:hi]])
            except Exception:
                return False
            if ok:
                self.rechecked += hi - lo
            return ok

        bisect_failures(len(records), check_range)

    def _recheck_one(self, verifier, challenge, response, recorded) -> list[str]:
        """Plain Eq. 6 for one record against its recorded verdict."""
        try:
            verdict = verifier.verify(challenge, response)
        except Exception as exc:
            self.mismatches += 1
            return [f"audit recheck failed: {exc}"]
        self.rechecked += 1
        if verdict != recorded:
            self.mismatches += 1
            return [f"recorded verdict ok={recorded} but Eq. 6 "
                    f"re-evaluates to {verdict} — forged verdict"]
        return []

    def _load_genesis(self, body: dict) -> list[str]:
        from repro.core.params import setup
        from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

        self.pks = {}
        self.verifiers = {}
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

    def _decode(self, kind: str, body: dict):
        """(pk, challenge, response) of one audit or dyn_audit entry; None
        when no key material is pinned for it.

        A static ``audit`` derives each block id from (file, index).  A
        ``dyn_audit`` records the rank-authenticated identifiers
        explicitly (they are not derivable from positions alone), so the
        recheck replays the same identifiers the TPA verified.
        """
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
        return pk, challenge, response


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

    The file is streamed through :func:`iter_ledger`, one record at a
    time, so memory stays flat however long the chain is.  Every line
    must parse into a record (torn tail tolerated) that extends the chain
    (:func:`_chain_break`); an unreadable line reports that one error and
    nothing else.  Every other record kind is
    re-derived by the checker of the module that writes it: metering
    totals re-add from their deltas (:class:`repro.obs.meter.MeterChecker`),
    fleet repairs form begin → slice* → complete/failed lifecycles
    (:class:`repro.erasure.fleet.RepairChecker`), dynamic-file root
    transitions replay from their recorded ops
    (:class:`repro.dynamic.store.DynamicChecker`), and — when ``recheck``
    is on and the genesis pins allow rebuilding the crypto context —
    every recorded audit verdict matches a fresh Eq. 6 evaluation
    (:class:`_AuditRecheck`: each recorded FAIL on its own, the recorded
    PASSes under one key in batched checks, split only to name the
    forgeries).  Repairs and update batches still open at the tail are
    the crash-resume state: reported, not failed.  A checker that raises
    on a malformed body is an error on that entry.  Errors are reported
    in entry order, each labelled with its entry, whenever the batch that
    found it ran.  ``expect_head`` defends against whole-suffix truncation
    and total re-chain forgery, which no chain-internal check can see.
    """
    from repro.dynamic.store import DynamicChecker
    from repro.erasure.fleet import RepairChecker
    from repro.obs.meter import MeterChecker

    report = LedgerVerification(path=os.fspath(path))
    audits = _AuditRecheck(enabled=recheck)
    checkers = (audits, MeterChecker(), RepairChecker(), DynamicChecker())
    dispatch = {kind: checker for checker in checkers for kind in checker.kinds}
    # (position, problems) per checked entry that has a problem or may
    # still get one: a queued audit's list is filled when the recheck
    # flushes its batch.  Settled clean entries are dropped as the walk
    # goes, so memory stays bounded however long the chain is.
    found: list[tuple[int, list[str]]] = []

    def labelled() -> list[str]:
        return [f"entry {position}: {p}" for position, problems in found
                for p in problems]

    keep = 2 * MAX_RECHECK_BATCH       # prune ``found`` when it grows past this
    walk = iter_ledger(path)
    prev = GENESIS_PREV
    for position in itertools.count():
        try:
            entry = next(walk)
        except StopIteration as stop:
            report.torn_tail = stop.value
            break
        except (OSError, LedgerError) as exc:
            # An unreadable chain reports that one error and nothing else,
            # whatever was walked before it.
            return LedgerVerification(path=report.path, errors=[str(exc)])
        problem = _chain_break(entry, position, prev)
        if problem is not None:
            audits.flush()
            report.errors += labelled() + [problem]
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
        found.append((position, problems))
        if len(found) >= keep:
            queued = audits.queued()
            found = [(at, problems) for at, problems in found
                     if problems or id(problems) in queued]
            keep = max(keep, 2 * len(found))
    report.head = prev
    for checker in checkers:
        checker.finish(report)
    report.errors += labelled()
    if expect_head is not None and prev != expect_head:
        report.errors.append(
            f"head hash {prev[:16]}… does not match expected "
            f"{expect_head[:16]}… — chain truncated or wholly replaced")
    return report
