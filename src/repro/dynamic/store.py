"""Dynamic file store and auditor: rank-authenticated updates with
batched re-signing.

The store keeps each dynamic file as an ordered sequence of *slots*.
A slot holds a ``(serial, version)`` pair: serials are allocated once
and never reused (so a deleted block's identifier can never come back),
versions increment on modify (so a stale copy of a block carries a
visibly old identifier).  The block identifier

    ``file_id || '#' || be8(serial) || be8(version)``

is simultaneously the leaf of the rank-annotated Merkle tree
(:class:`~repro.dynamic.rank_tree.RankTree`) and the hashed identity in
the block's BLS signature — one string binds *content* (Eq. 6),
*position* (rank path), and *freshness* (version + epoch-stamped root).

Update batches are the whole point: an update of k blocks blinds the k
new block aggregates plus one epoch-stamped root message and pushes all
k + 1 through a **single** ``sem.sign_blinded_batch`` round (Eq. 3),
verifies the batch with one Eq. 7 check (2 pairings total), and
unblinds without per-message pairings — exactly k block re-signatures
per batch, never n.  Every batch is fenced on the hash-chained ledger
with a ``dyn_update_begin`` / ``dyn_update_commit`` pair so
``repro-pdp ledger verify`` can replay the root transitions offline
(:class:`DynamicChecker`).

The auditor pins ``(epoch, root, count)`` per file and checks four
things together: the pin (stale-root replay dies here), the root
signature (pairing check against the organization key), each challenged
block's rank path (index-shifting dies here — the derived rank must
equal the challenged position), and Eq. 6 over the *authenticated*
block identifiers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core.blocks import Block
from repro.core.challenge import Challenge, ProofResponse
from repro.core.owner import DataOwner
from repro.core.params import SystemParams
from repro.core.verifier import PublicVerifier
from repro.crypto.blind_bls import BlindSignatureError
from repro.crypto.bls import bls_verify
from repro.dynamic.rank_tree import RankPath, RankTree
from repro.pairing.interface import GroupElement

#: Ledger record kinds written by :class:`DynamicStore`.
KIND_DYN_CREATE = "dyn_create"
KIND_DYN_UPDATE_BEGIN = "dyn_update_begin"
KIND_DYN_UPDATE_COMMIT = "dyn_update_commit"

_VALID_OPS = ("insert", "modify", "delete", "append")


class DynamicFileError(ValueError):
    """A dynamic-store operation was malformed or failed verification."""


def dyn_block_id(file_id: bytes, serial: int, version: int) -> bytes:
    """id_i for a dynamic block — also the rank-tree leaf."""
    return file_id + b"#" + struct.pack(">QQ", serial, version)


def dyn_root_message(file_id: bytes, epoch: int, count: int, root: bytes) -> bytes:
    """The epoch-stamped root statement the SEM blind-signs per batch.

    Binding the epoch and leaf count alongside the root hash means a
    replayed old root signature asserts an old epoch — it cannot be
    passed off as the current state.
    """
    return (
        b"dyn-root|" + file_id + b"|"
        + epoch.to_bytes(8, "big") + b"|" + count.to_bytes(8, "big") + b"|" + root
    )


@dataclass(frozen=True)
class UpdateOp:
    """One verified mutation: insert / modify / delete / append.

    ``position`` is the 0-based slot index *at the time the op is
    applied* (ops in a batch apply sequentially, so a batch of inserts
    at position 0 stacks in reverse order, exactly like repeated
    ``list.insert(0, ...)``).
    """

    op: str
    position: int | None = None
    payload: bytes | None = None

    def __post_init__(self):
        if self.op not in _VALID_OPS:
            raise DynamicFileError(f"unknown update op {self.op!r}")
        if self.op in ("insert", "modify"):
            if self.position is None or self.payload is None:
                raise DynamicFileError(f"{self.op} needs a position and a payload")
        elif self.op == "delete":
            if self.position is None or self.payload is not None:
                raise DynamicFileError("delete needs a position and no payload")
        else:  # append
            if self.position is not None or self.payload is None:
                raise DynamicFileError("append needs a payload and no position")


@dataclass(frozen=True)
class UpdateReceipt:
    """What a committed batch tells the TPA: the root transition."""

    file_id: bytes
    batch: str
    epoch_before: int
    epoch_after: int
    root_before: bytes
    root_after: bytes
    count: int
    signed_blocks: int
    ops: int


@dataclass(frozen=True)
class DynamicProof:
    """Cloud's answer to a dynamic challenge.

    ``block_ids`` / ``paths`` align with the challenge's positions; the
    Eq. 6 response is computed over these authenticated identifiers.
    """

    file_id: bytes
    epoch: int
    count: int
    root: bytes
    root_signature: GroupElement
    block_ids: tuple[bytes, ...]
    paths: tuple[RankPath, ...]
    response: ProofResponse

    def wire_size_bytes(self) -> int:
        fixed = 8 + 8 + 32 + len(self.root_signature.to_bytes())
        ids = sum(len(b) for b in self.block_ids)
        paths = sum(p.wire_size_bytes() for p in self.paths)
        return fixed + ids + paths + self.response.wire_size_bytes()


@dataclass
class DynamicFile:
    """In-memory (and serialized) state of one dynamic file."""

    file_id: bytes
    epoch: int = 0
    next_serial: int = 0
    slots: list[tuple[int, int]] = field(default_factory=list)
    blocks: dict[int, Block] = field(default_factory=dict)
    signatures: dict[int, GroupElement] = field(default_factory=dict)
    tree: RankTree = field(default_factory=RankTree)
    root_signature: GroupElement | None = None

    @property
    def count(self) -> int:
        return len(self.slots)

    @property
    def root(self) -> bytes:
        return self.tree.root


class DynamicStore:
    """Owner + cloud side of the dynamic tier.

    One object plays both roles for the reproduction (like
    :class:`~repro.core.protocol.SemPdpSystem` does for static files):
    the *owner* path blinds and batches signatures through the SEM, the
    *cloud* path stores blocks and answers challenges.  The split is
    clean — :meth:`generate_proof` touches only stored state.

    Args:
        params: system parameters (group, k, u-vector).
        sem: anything exposing ``sign_blinded_batch(blinded, credential)``
            — a single :class:`~repro.core.sem.SecurityMediator` or a
            :class:`~repro.core.multi_sem.MultiSEMClient` cluster front.
        owner: the enrolled member whose credential signs the updates
            (``None`` for a store that only answers challenges).
        ledger: optional hash-chained ledger; when present every create
            and update batch is fenced with dyn_* records.
    """

    def __init__(self, params: SystemParams, sem, owner: DataOwner | None, ledger=None):
        self.params = params
        self.group = params.group
        self.sem = sem
        self.owner = owner
        self.ledger = ledger
        self._files: dict[bytes, DynamicFile] = {}

    # -- accessors -----------------------------------------------------------
    def file_state(self, file_id: bytes) -> DynamicFile:
        try:
            return self._files[file_id]
        except KeyError:
            raise DynamicFileError(f"unknown dynamic file {file_id!r}") from None

    def files(self) -> list[bytes]:
        return sorted(self._files)

    def adopt(self, state: DynamicFile) -> None:
        """Install a deserialized file state (CLI persistence path)."""
        self._files[state.file_id] = state

    # -- payload packing -----------------------------------------------------
    def elements_from_bytes(self, payload: bytes) -> tuple[int, ...]:
        width = self.params.element_bytes()
        needed = self.params.block_bytes()
        if len(payload) > needed:
            raise DynamicFileError(f"a dynamic block holds at most {needed} bytes")
        payload = payload.ljust(needed, b"\x00")
        return tuple(
            int.from_bytes(payload[i * width : (i + 1) * width], "big")
            for i in range(self.params.k)
        )

    # -- create --------------------------------------------------------------
    def create(self, file_id: bytes, chunks: list[bytes]) -> UpdateReceipt:
        """Sign and store the initial block sequence (epoch 0).

        All n block aggregates plus the epoch-0 root message go through
        one blind-sign batch — the same n + 1-message round an update of
        n blocks would use.
        """
        if file_id in self._files:
            raise DynamicFileError(f"dynamic file {file_id!r} already exists")
        state = DynamicFile(file_id=file_id)
        new_blocks: list[Block] = []
        for chunk in chunks:
            serial = state.next_serial
            state.next_serial += 1
            block = Block(
                block_id=dyn_block_id(file_id, serial, 0),
                elements=self.elements_from_bytes(chunk),
            )
            state.slots.append((serial, 0))
            state.blocks[serial] = block
            new_blocks.append(block)
        state.tree = RankTree([b.block_id for b in new_blocks])
        signatures, root_signature = self._sign_batch(state, new_blocks)
        for block, signature in zip(new_blocks, signatures):
            serial, _ = struct.unpack(">QQ", block.block_id[len(file_id) + 1:])
            state.signatures[serial] = signature
        state.root_signature = root_signature
        self._files[file_id] = state
        if self.ledger is not None:
            self.ledger.append(KIND_DYN_CREATE, {
                "file": file_id.hex(),
                "epoch": 0,
                "count": state.count,
                "root": state.root.hex(),
                "leaves": [b.block_id.hex() for b in new_blocks],
            })
        return UpdateReceipt(
            file_id=file_id, batch=self._batch_id(file_id, 0),
            epoch_before=0, epoch_after=0,
            root_before=state.root, root_after=state.root,
            count=state.count, signed_blocks=len(new_blocks), ops=len(chunks),
        )

    # -- update --------------------------------------------------------------
    def update(self, file_id: bytes, ops: list[UpdateOp]) -> UpdateReceipt:
        """Apply one atomic batch of verified updates.

        Stages the ops on copies, writes ``dyn_update_begin``, runs the
        single k + 1-message blind-sign round, then installs the staged
        state and writes ``dyn_update_commit``.  A crash between begin
        and commit leaves the committed state untouched and the ledger
        with an open batch — re-running the same batch writes a second
        begin with the same root-before, which the offline checker
        treats as an idempotent retry.
        """
        if not ops:
            raise DynamicFileError("an update batch needs at least one op")
        state = self.file_state(file_id)
        epoch_before, root_before = state.epoch, state.root
        epoch_after = state.epoch + 1
        batch = self._batch_id(file_id, epoch_after)

        slots = list(state.slots)
        next_serial = state.next_serial
        new_entries: list[tuple[int, int, Block]] = []
        removed: list[int] = []
        op_records = []
        for op in ops:
            record: dict = {"op": op.op}
            if op.op == "delete":
                if not 0 <= op.position < len(slots):
                    raise DynamicFileError(f"delete position {op.position} out of range")
                serial, _ = slots.pop(op.position)
                removed.append(serial)
                record["position"] = op.position
            else:
                if op.op == "modify":
                    if not 0 <= op.position < len(slots):
                        raise DynamicFileError(
                            f"modify position {op.position} out of range")
                    serial, version = slots[op.position]
                    version += 1
                    position = op.position
                    slots[position] = (serial, version)
                elif op.op == "insert":
                    if not 0 <= op.position <= len(slots):
                        raise DynamicFileError(
                            f"insert position {op.position} out of range")
                    serial, version = next_serial, 0
                    next_serial += 1
                    position = op.position
                    slots.insert(position, (serial, version))
                else:  # append
                    serial, version = next_serial, 0
                    next_serial += 1
                    position = len(slots)
                    slots.append((serial, version))
                block = Block(
                    block_id=dyn_block_id(file_id, serial, version),
                    elements=self.elements_from_bytes(op.payload),
                )
                new_entries.append((serial, version, block))
                record["position"] = position
                record["leaf"] = block.block_id.hex()
            op_records.append(record)

        staged = RankTree([
            dyn_block_id(file_id, serial, version) for serial, version in slots
        ])
        root_after = staged.root

        if self.ledger is not None:
            self.ledger.append(KIND_DYN_UPDATE_BEGIN, {
                "file": file_id.hex(),
                "batch": batch,
                "epoch_before": epoch_before,
                "root_before": root_before.hex(),
                "ops": op_records,
            })

        shadow = DynamicFile(file_id=file_id, epoch=epoch_after, tree=staged,
                             slots=slots)
        signatures, root_signature = self._sign_batch(
            shadow, [block for _, _, block in new_entries]
        )

        # Commit: install the staged state atomically (plain attribute
        # writes — nothing below can fail).
        state.slots = slots
        state.next_serial = next_serial
        state.tree = staged
        state.epoch = epoch_after
        state.root_signature = root_signature
        for (serial, _version, block), signature in zip(new_entries, signatures):
            state.blocks[serial] = block
            state.signatures[serial] = signature
        for serial in removed:
            state.blocks.pop(serial, None)
            state.signatures.pop(serial, None)

        if self.ledger is not None:
            self.ledger.append(KIND_DYN_UPDATE_COMMIT, {
                "file": file_id.hex(),
                "batch": batch,
                "epoch_after": epoch_after,
                "root_after": root_after.hex(),
                "count": state.count,
                "signed_blocks": len(new_entries),
            })
        return UpdateReceipt(
            file_id=file_id, batch=batch,
            epoch_before=epoch_before, epoch_after=epoch_after,
            root_before=root_before, root_after=root_after,
            count=state.count, signed_blocks=len(new_entries), ops=len(ops),
        )

    def _batch_id(self, file_id: bytes, epoch_after: int) -> str:
        return f"{file_id.hex()[:16]}#e{epoch_after}"

    def _sign_batch(self, state: DynamicFile,
                    new_blocks: list[Block]) -> tuple[list[GroupElement], GroupElement]:
        """One blind-sign round for k blocks + the epoch-stamped root.

        The owner's signing pass with H(root message) riding along as one
        more message: all k + 1 blind signatures come from the SEM in one
        batch (Eq. 3) and pass one Eq. 7 check (2 pairings).
        """
        root_msg = dyn_root_message(state.file_id, state.epoch, len(state.slots),
                                    state.tree.root)
        try:
            signatures = self.owner.sign_blocks(
                self.sem, new_blocks, rng=self.owner._rng,
                extra=[self.group.hash_to_g1(root_msg)])
        except BlindSignatureError as exc:
            raise DynamicFileError(str(exc)) from exc
        return signatures[:-1], signatures[-1]

    # -- cloud: challenge/response -------------------------------------------
    def generate_proof(self, file_id: bytes, challenge: Challenge) -> DynamicProof:
        """Answer a dynamic challenge: Eq. 6 response + rank paths.

        The challenge carries *positions* (its block_ids are empty
        placeholders — the verifier does not trust the cloud to know
        them); the proof supplies the authenticated identifiers and
        their rank paths, and the Eq. 6 aggregate over the stored
        blocks and signatures.
        """
        state = self.file_state(file_id)
        block_ids: list[bytes] = []
        paths: list[RankPath] = []
        sigs: list[GroupElement] = []
        alphas = [0] * self.params.k
        for position, beta in zip(challenge.indices, challenge.betas):
            if not 0 <= position < state.count:
                raise DynamicFileError(f"challenged position {position} out of range")
            serial, _version = state.slots[position]
            block = state.blocks[serial]
            block_ids.append(block.block_id)
            paths.append(state.tree.prove(position))
            sigs.append(state.signatures[serial])
            for l, element in enumerate(block.elements):
                alphas[l] = (alphas[l] + beta * element) % self.params.order
        sigma = self.group.multi_exp(sigs, list(challenge.betas))
        return DynamicProof(
            file_id=file_id,
            epoch=state.epoch,
            count=state.count,
            root=state.root,
            root_signature=state.root_signature,
            block_ids=tuple(block_ids),
            paths=tuple(paths),
            response=ProofResponse(sigma=sigma, alphas=tuple(alphas)),
        )

    # -- fault injection (tests / scenarios) ---------------------------------
    def tamper_block(self, file_id: bytes, position: int) -> None:
        """Corrupt a stored block's first element (keeps id + signature)."""
        state = self.file_state(file_id)
        serial, _ = state.slots[position]
        block = state.blocks[serial]
        elements = list(block.elements)
        elements[0] = (elements[0] + 1) % self.params.order
        state.blocks[serial] = Block(block_id=block.block_id,
                                     elements=tuple(elements))


class DynamicAuditor:
    """TPA for dynamic files: pins (epoch, root, count), checks proofs.

    Verification is the conjunction the tentpole demands — pin match,
    root-signature pairing check, rank-path per challenged position,
    and Eq. 6 over the authenticated identifiers.  Any single failure
    rejects the proof.
    """

    def __init__(self, params: SystemParams, org_pk: GroupElement,
                 rng=None, pool=None):
        self.params = params
        self.group = params.group
        self.org_pk = org_pk
        self.verifier = PublicVerifier(params, org_pk, rng=rng, pool=pool)
        self._pins: dict[bytes, tuple[int, bytes, int]] = {}

    # -- pin management ------------------------------------------------------
    def pin(self, file_id: bytes, epoch: int, root: bytes, count: int) -> None:
        self._pins[file_id] = (epoch, root, count)

    def pin_receipt(self, receipt: UpdateReceipt) -> None:
        """Advance the pin from a committed batch's receipt."""
        self.pin(receipt.file_id, receipt.epoch_after, receipt.root_after,
                 receipt.count)

    def pinned(self, file_id: bytes) -> tuple[int, bytes, int]:
        try:
            return self._pins[file_id]
        except KeyError:
            raise DynamicFileError(f"no pinned root for {file_id!r}") from None

    # -- challenge -----------------------------------------------------------
    def generate_challenge(self, file_id: bytes, sample_size: int | None = None,
                           beta_bits: int | None = None) -> Challenge:
        """Challenge c random *positions* of the pinned file.

        The block_ids are empty placeholders: the proof must supply the
        real identifiers under rank paths — the verifier never trusts
        an unauthenticated id.
        """
        _epoch, _root, count = self.pinned(file_id)
        if count == 0:
            raise DynamicFileError("cannot challenge an empty file")
        template = self.verifier.generate_challenge(
            b"", count, sample_size=sample_size, beta_bits=beta_bits)
        return Challenge(
            indices=template.indices,
            block_ids=tuple(b"" for _ in template.indices),
            betas=template.betas,
        )

    # -- verify --------------------------------------------------------------
    def verify(self, file_id: bytes, challenge: Challenge,
               proof: DynamicProof) -> bool:
        """True iff the proof is fresh, positioned, and possessed."""
        epoch, root, count = self.pinned(file_id)
        # Freshness: a proof for any earlier (or other) state shows a
        # different epoch/root/count and dies here.
        if (proof.file_id != file_id or proof.epoch != epoch
                or proof.root != root or proof.count != count):
            return False
        if not (len(proof.block_ids) == len(proof.paths) == len(challenge.indices)):
            return False
        # Root authenticity: the SEM signed this exact (epoch, count, root).
        root_msg = dyn_root_message(file_id, epoch, count, root)
        if not bls_verify(self.group, self.org_pk, root_msg, proof.root_signature):
            return False
        # Position: each rank path must derive exactly the challenged rank.
        for position, block_id, path in zip(
            challenge.indices, proof.block_ids, proof.paths
        ):
            if not block_id.startswith(file_id + b"#"):
                return False
            if RankTree.verify_path(root, count, block_id, path) != position:
                return False
        # Possession: Eq. 6 over the authenticated identifiers.
        authed = Challenge(
            indices=challenge.indices,
            block_ids=proof.block_ids,
            betas=challenge.betas,
        )
        return self.verifier.verify(authed, proof.response)


class DynamicChecker:
    """Shadow-replay of dynamic-file root transitions on the ledger.

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

    kinds = (KIND_DYN_CREATE, KIND_DYN_UPDATE_BEGIN, KIND_DYN_UPDATE_COMMIT)

    def __init__(self):
        self.trees: dict[str, RankTree] = {}
        self.open: dict[str, dict] = {}

    def check(self, kind: str, body: dict) -> list[str]:
        file = body.get("file")
        if not isinstance(file, str) or not file:
            return [f"{kind} entry without a file id"]
        if kind == KIND_DYN_CREATE:
            if file in self.trees:
                return [f"dynamic file {file[:16]} created twice"]
            try:
                leaves = [bytes.fromhex(leaf) for leaf in body.get("leaves", [])]
            except (TypeError, ValueError):
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
        if kind == KIND_DYN_UPDATE_BEGIN:
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

    def finish(self, report) -> None:
        report.updates_checked = sum(report.counts.get(k, 0) for k in self.kinds)
        report.open_updates = sorted(
            f"{file[:16]}:{body.get('batch')}" for file, body in self.open.items()
        )
