"""Crash-recoverable signing: an append-only journal of request state.

A :class:`~repro.service.batcher.BatchingSEMService` holds accepted
requests in memory (the bounded queue) while their fan-out round runs.  A
service crash between admission and reply would silently lose them — the
owner waits forever for signatures that were never produced.  The journal
closes that window with two append-only JSONL record kinds:

* ``accepted`` — written at admission, carrying the full request payload
  (block elements, or blinded G1 points as hex), enough to re-create the
  :class:`~repro.service.api.SignRequest` byte-for-byte after a restart.
* ``done`` — written when the request reaches a terminal
  :class:`~repro.service.api.SignResponse`; OK records carry the
  signatures as hex so a *re-submission of an already-completed id*
  returns the cached response without re-signing (exactly-once).

Recovery contract (:meth:`SigningJournal.pending`): every request with an
``accepted`` record and no ``done`` record is in-flight; a restarted
service replays them through
:meth:`~repro.service.batcher.BatchingSEMService.recover` — directly into
the queue, since admission (validation + membership) already passed before
the ``accepted`` record existed.  Replay is idempotent: dedupe is by
request id, so zero requests are lost and zero are signed twice.

A record exists once its newline is written: whatever follows the last
newline is the torn tail of an append the crash interrupted, and reopening
truncates it (:func:`~repro.obs.ledger.truncate_torn_tail`, the ledger's
rule too).  It is treated as if never written, which is safe in both
cases — a torn ``accepted`` means the client never got an admission
acknowledgment (it retries), a torn ``done`` merely re-signs one batch
after restart.
"""

from __future__ import annotations

import json
import os

from repro.core.blocks import Block
from repro.obs.ledger import truncate_torn_tail
from repro.service.api import ResponseStatus, SignRequest, SignResponse


class JournalError(ValueError):
    """The journal file holds a structurally invalid (non-torn) record."""


def _encode_request(request: SignRequest) -> dict:
    record = {
        "rec": "accepted",
        "id": request.request_id,
        "owner": request.owner,
        "submitted_at": request.submitted_at,
    }
    if request.blocks:
        record["blocks"] = [
            {"bid": block.block_id.hex(), "elems": list(block.elements)}
            for block in request.blocks
        ]
    if request.blinded:
        record["blinded"] = [element.to_bytes().hex() for element in request.blinded]
    return record


def _decode_request(record: dict, group) -> SignRequest:
    blocks = tuple(
        Block(block_id=bytes.fromhex(b["bid"]), elements=tuple(b["elems"]))
        for b in record.get("blocks", ())
    )
    blinded = tuple(
        group.deserialize_g1(bytes.fromhex(h)) for h in record.get("blinded", ())
    )
    return SignRequest(
        request_id=record["id"],
        owner=record["owner"],
        blocks=blocks,
        blinded=blinded,
        submitted_at=record.get("submitted_at", 0.0),
    )


def _encode_response(response: SignResponse) -> dict:
    record = {
        "rec": "done",
        "id": response.request_id,
        "status": response.status.value,
        "queue_wait_s": response.queue_wait_s,
        "service_time_s": response.service_time_s,
        "batch_size": response.batch_size,
    }
    if response.signatures is not None:
        record["sigs"] = [sig.to_bytes().hex() for sig in response.signatures]
    if response.error is not None:
        record["error"] = response.error
    return record


def _decode_response(record: dict, group) -> SignResponse:
    signatures = None
    if "sigs" in record:
        signatures = tuple(
            group.deserialize_g1(bytes.fromhex(h)) for h in record["sigs"]
        )
    return SignResponse(
        request_id=record["id"],
        status=ResponseStatus(record["status"]),
        signatures=signatures,
        error=record.get("error"),
        queue_wait_s=record.get("queue_wait_s", 0.0),
        service_time_s=record.get("service_time_s", 0.0),
        batch_size=record.get("batch_size", 0),
    )


class SigningJournal:
    """Append-only JSONL journal keyed by request id.

    Args:
        path: the journal file; created on first append, loaded (with
            torn-tail tolerance) if it already exists.
        group: the pairing group, needed to deserialize G1 points on load.
        fsync: force each append to stable storage.  Off by default —
            the tests simulate crashes by dropping the in-memory service,
            and real deployments can trade durability for latency.
    """

    def __init__(self, path, group=None, fsync: bool = False):
        self.path = os.fspath(path)
        self.group = group
        self.fsync = fsync
        self._accepted: dict[int, SignRequest] = {}
        self._order: list[int] = []  # acceptance order, for fair replay
        self._completed: dict[int, SignResponse] = {}
        self.torn_lines = 0  # truncated tail records dropped on load
        self.replayed = 0  # pending requests re-queued after restart
        if os.path.exists(self.path):
            self._load()

    # -- persistence ---------------------------------------------------------
    def _load(self) -> None:
        self.torn_lines = int(truncate_torn_tail(self.path))
        with open(self.path, "r", encoding="utf-8") as stream:
            lines = stream.readlines()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise JournalError(f"corrupt journal record at line {lineno + 1}")
            self._apply(record)

    def _apply(self, record: dict) -> None:
        kind = record.get("rec")
        if kind == "accepted":
            request = _decode_request(record, self.group)
            if request.request_id not in self._accepted:
                self._accepted[request.request_id] = request
                self._order.append(request.request_id)
        elif kind == "done":
            response = _decode_response(record, self.group)
            self._completed[response.request_id] = response
        else:
            raise JournalError(f"unknown journal record kind {kind!r}")

    def _append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record, separators=(",", ":")) + "\n")
            stream.flush()
            if self.fsync:
                os.fsync(stream.fileno())

    # -- writes --------------------------------------------------------------
    def record_accepted(self, request: SignRequest) -> None:
        """Journal an admitted request (idempotent by request id)."""
        if request.request_id in self._accepted:
            return
        self._accepted[request.request_id] = request
        self._order.append(request.request_id)
        self._append(_encode_request(request))

    def record_terminal(self, response: SignResponse) -> None:
        """Journal a terminal response (idempotent by request id).

        Only admitted requests are journaled — a terminal for an id the
        journal never accepted (e.g. rejected at the door, before the
        ``accepted`` record) is ignored, keeping the invariant that every
        ``done`` record pairs with exactly one ``accepted`` record.
        """
        if response.request_id not in self._accepted:
            return
        if response.request_id in self._completed:
            return
        self._completed[response.request_id] = response
        self._append(_encode_response(response))

    # -- recovery ------------------------------------------------------------
    def completed_response(self, request_id: int) -> SignResponse | None:
        """The cached terminal response, or None if still pending/unknown."""
        return self._completed.get(request_id)

    def accepted_request(self, request_id: int) -> SignRequest | None:
        """The journaled request admitted under ``request_id``, if any."""
        return self._accepted.get(request_id)

    def is_pending(self, request_id: int) -> bool:
        return request_id in self._accepted and request_id not in self._completed

    def pending(self) -> list[SignRequest]:
        """Accepted-but-unfinished requests, in acceptance order."""
        return [
            self._accepted[request_id]
            for request_id in self._order
            if request_id not in self._completed
        ]

    def summary(self) -> dict:
        """Flat counters for the obs registry and recovery logs."""
        return {
            "accepted": len(self._accepted),
            "completed": len(self._completed),
            "pending": len(self._accepted) - len(self._completed),
            "replayed": self.replayed,
            "torn_lines": self.torn_lines,
        }
