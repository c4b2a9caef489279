"""The data owner — paper Blind and Unblind (Section IV-B) plus the
end-to-end per-file signing workflow (Section IV-A).

For each block the owner (1) aggregates the k elements into one G1 value,
(2) blinds it (Eq. 2), (3) obtains σ̃ from the SEM (Eq. 3), and (4) checks
and unblinds it (Eq. 4/5).  With ``batch=True`` step (4) verifies all n
blind signatures at once (Eq. 7) — the "Our Scheme*" optimization that
Figure 4(a) shows closes the gap with SW08.  :meth:`DataOwner.sign_blocks`
is that one pass; its aggregation (∏u^m), blinding (g^r) and unblinding
(pk^{−r}) are fixed-base table lookups, so the only Exp a block costs
is the SEM's Eq. 3 (hashing H(id) still clears its cofactor).

The optional data-privacy layer (Section IV-C) encrypts the payload with
ChaCha20 before any of this happens, so neither the SEM nor the cloud ever
sees plaintext.
"""

from __future__ import annotations

import secrets
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.blocks import Block, encode_data
from repro.core.params import SystemParams
from repro.crypto.blind_bls import (
    BlindingState,
    BlindSignatureError,
    batch_unblind_verify,
    blind_batch,
    unblind_batch,
    verify_blinded,
)
from repro.crypto.symmetric import chacha20_decrypt, chacha20_encrypt
from repro.ec import fixed_base
from repro.ec.fixed_base import FixedBaseTable
from repro.pairing.interface import GroupElement


@dataclass(frozen=True)
class SignedFile:
    """The owner's output: blocks plus one signature per block, ready to upload."""

    file_id: bytes
    blocks: tuple[Block, ...]
    signatures: tuple[GroupElement, ...]
    encrypted: bool = False
    nonce: bytes | None = None

    def __post_init__(self):
        if len(self.blocks) != len(self.signatures):
            raise ValueError("one signature per block required")


@dataclass
class OwnerStats:
    """Per-file workload statistics for communication accounting."""

    blocks: int = 0
    bytes_to_sem: int = 0
    bytes_from_sem: int = 0
    resigned_blocks: int = 0
    extra: dict = field(default_factory=dict)


class DataOwner:
    """A group member who signs (via the SEM) and uploads shared data.

    Every signer blinds with :meth:`blind_all` and unblinds with
    :meth:`unblind_all`: :meth:`sign_file`, the dynamic, resilient and
    fleet stores and the multi-owner builder inside :meth:`sign_blocks`
    (Blind, one SEM batch, Eq. 7, Unblind), the batching service's
    :class:`~repro.service.pipeline.SigningPipeline` and the simulator's
    ``OwnerNode`` directly.  The owner raises three fixed bases and holds
    a table for each, built once: u_1..u_k in the aggregate, g in Blind
    (Eq. 2) and the SEM key pk = g^y in Unblind (Eq. 5), so the only Exp
    a signed block costs is the SEM's Eq. 3.  The paper's plain
    :func:`~repro.core.blocks.aggregate_block`,
    :func:`~repro.crypto.blind_bls.blind` and
    :func:`~repro.crypto.blind_bls.unblind` are the reference.

    Args:
        pool: a :class:`~repro.core.parallel.WorkerPool`; block
            aggregation/blinding, Eq. 7 batch verification, and unblinding
            then fan out across its workers, which build the same tables,
            so the raw op tallies are equal at any worker count.
        use_fixed_base: kept for the benchmark harness (``perfbench``),
            which still passes ``True``; any other value raises
            ``ValueError`` before a table is built.
    """

    def __init__(self, params: SystemParams, sem_pk: GroupElement, credential=None,
                 rng=None, use_fixed_base: bool = True, pool=None):
        if use_fixed_base is not True:
            raise ValueError("every owner signs through fixed-base tables; "
                             "use_fixed_base can only be True")
        self.params = params
        self.group = params.group
        self.sem_pk = sem_pk
        self.credential = credential
        self._rng = rng
        self.stats = OwnerStats()
        self.pool = pool
        bits = params.order.bit_length()
        self._u_tables = [FixedBaseTable(u, bits) for u in params.u]
        self._g1_table = FixedBaseTable(self.group.g1(), bits)
        self._pk_table = FixedBaseTable(sem_pk, bits)

    # -- single-block primitives (the paper's algorithms, through tables) -----
    def aggregate(self, block: Block) -> GroupElement:
        """H(id)·∏u^m, from the u-tables."""
        # Through the module, so per-layer tracing sees every call.
        return fixed_base.aggregate_with_tables(self.params, block, self._u_tables)

    def blind_block(self, block: Block) -> BlindingState:
        """Blind (Eq. 2): aggregate the block, then blind the aggregate."""
        return self.blind_all([block])[0]

    def unblind(self, state: BlindingState, blind_signature: GroupElement,
                check: bool = True) -> GroupElement:
        """Unblind (Eq. 4/5): verify then recover σ_i = M_i^y.

        Raises:
            BlindSignatureError: if ``check`` is set and Eq. 4 fails.
        """
        if check and not verify_blinded(self.group, state.blinded, blind_signature,
                                        self.sem_pk):
            raise BlindSignatureError(
                "blind signature failed verification (Eq. 4); re-request from SEM")
        return self.unblind_all([state], [blind_signature])[0]

    # -- the owner-side signing pass -------------------------------------------
    def trusts(self, signer) -> bool:
        """Whether ``signer``'s replies need no Eq. 7 (Eq. 4) here: a signer
        driving signing rounds names as ``verified_pk`` the key its rounds
        check their combined results against.

        Raises:
            BlindSignatureError: if the signer checks for a key other than
                the one this owner unblinds with.
        """
        verified_pk = getattr(signer, "verified_pk", None)
        if verified_pk is None:
            return False
        if verified_pk != self.sem_pk:
            raise BlindSignatureError("the signer's rounds sign for another key")
        return True

    def sign_blocks(
        self,
        sem,
        blocks: list[Block],
        *,
        rng,
        extra: Sequence[GroupElement] = (),
        batch: bool = True,
    ) -> list[GroupElement]:
        """Blind → Sign → Eq. 7 → Unblind for every block, then ``extra``.

        Blinds (Eq. 2) each block's aggregate and each ``extra`` G1
        message, gets all blind signatures from ``sem`` in one
        ``sign_blinded_batch`` call (Eq. 3), checks them with one Eq. 7
        (or each with Eq. 4 when ``batch`` is off) unless :meth:`trusts`
        says ``sem`` already has, and unblinds (Eq. 5).  The blinding
        masks and unmasks are fixed-base lookups, so the pass runs no Exp
        of its own.

        Args:
            sem: anything exposing ``sign_blinded_batch(blinded, credential)``.
            rng: where Eq. 7's γ_i come from (the blinding factors always
                come from the owner's rng).
            extra: G1 messages signed after the blocks, e.g. H(root message).

        Returns:
            One signature per block, then one per ``extra`` message.

        Raises:
            BlindSignatureError: if the SEM's reply has the wrong length
                or fails Eq. 7 (Eq. 4), or, before anything is signed, if
                ``sem`` checks for another key.
        """
        checked = self.trusts(sem)
        states = self.blind_all(blocks, extra)
        blinded = [s.blinded for s in states]
        blind_signatures = sem.sign_blinded_batch(blinded, self.credential)
        if len(blind_signatures) != len(blinded):
            raise BlindSignatureError(
                f"SEM returned {len(blind_signatures)} signatures for {len(blinded)} messages")
        if not checked and batch:
            if not batch_unblind_verify(self.group, blinded, blind_signatures, self.sem_pk,
                                        rng, pool=self.pool):
                raise BlindSignatureError(
                    "batch verification of blind signatures failed (Eq. 7)")
        elif not checked and not all(verify_blinded(self.group, m, s, self.sem_pk)
                                     for m, s in zip(blinded, blind_signatures)):
            raise BlindSignatureError(
                "blind signature failed verification (Eq. 4); re-request from SEM")
        return self.unblind_all(states, blind_signatures)

    def sign_file(
        self,
        data: bytes,
        file_id: bytes,
        sem,
        batch: bool = True,
        encrypt_key: bytes | None = None,
        sem_pk_g1: GroupElement | None = None,
    ) -> SignedFile:
        """Run Blind/Sign/Unblind for every block of ``data``.

        Args:
            data: the raw payload.
            file_id: unique file identifier (block ids derive from it).
            sem: anything exposing ``sign_blinded_batch(blinded, credential)``
                (a :class:`~repro.core.sem.SecurityMediator`, a
                :class:`~repro.service.failover.FailoverMultiSEMClient`, or a
                network proxy).
            batch: use Eq. 7 batch verification (2 pairings total) instead
                of per-signature Eq. 4 checks (2 pairings each).
            encrypt_key: when given, ChaCha20-encrypt the payload first
                (data privacy, Section IV-C).
            sem_pk_g1: kept for the benchmark harness (``perfbench``),
                which still passes the SEM key under this name.  It is
                only compared with ``sem_pk``, never used.

        Returns:
            A :class:`SignedFile` ready for
            :meth:`repro.core.cloud.CloudServer.store`.

        Raises:
            ValueError: if ``sem_pk_g1`` is given and is not ``sem_pk``
                (before anything is signed).
        """
        if sem_pk_g1 is not None and sem_pk_g1 != self.sem_pk:
            raise ValueError("sem_pk_g1 is not the SEM key this owner unblinds with")
        nonce = None
        encrypted = False
        if encrypt_key is not None:
            nonce = secrets.token_bytes(12)
            data = chacha20_encrypt(encrypt_key, nonce, data)
            encrypted = True
        blocks = encode_data(data, self.params, file_id)
        signatures = self.sign_blocks(sem, blocks, rng=self._rng, batch=batch)
        element_size = self.group.g1_element_bytes()
        self.stats.blocks += len(blocks)
        self.stats.bytes_to_sem += element_size * len(blocks)
        self.stats.bytes_from_sem += element_size * len(signatures)
        return SignedFile(
            file_id=file_id,
            blocks=tuple(blocks),
            signatures=tuple(signatures),
            encrypted=encrypted,
            nonce=nonce,
        )

    # -- the blind and unblind steps -------------------------------------------
    def blind_all(self, blocks: list[Block],
                  extra: Sequence[GroupElement] = ()) -> list[BlindingState]:
        """Blind (Eq. 2) every block's aggregate, then every ``extra`` G1
        message, fanned out when pooled.

        The blinding factors are always drawn here, sequentially, so a
        seeded run consumes the rng stream identically at any worker count
        and signatures come out bit-for-bit equal.
        """
        if self.pool is None or not self.pool.fans_out(len(blocks)):
            return blind_batch(self.group, [*map(self.aggregate, blocks), *extra],
                               self._rng, self._g1_table)
        rs = [self.group.random_nonzero_scalar(self._rng) for _ in blocks]
        states = [BlindingState(r=r, blinded=m)
                  for r, m in zip(rs, self.pool.blind_blocks(blocks, rs))]
        return states + blind_batch(self.group, extra, self._rng, self._g1_table)

    def unblind_all(self, states, blind_signatures) -> list[GroupElement]:
        """Unblind (Eq. 5) every signature, fanned out when pooled, once
        the signatures are checked."""
        if self.pool is not None and self.pool.fans_out(len(states)):
            return self.pool.unblind_batch(states, blind_signatures, self.sem_pk)
        return unblind_batch(self.group, states, blind_signatures, self._pk_table)

    @staticmethod
    def decrypt_file(data: bytes, key: bytes, nonce: bytes) -> bytes:
        """Undo the data-privacy layer after downloading from the cloud."""
        return chacha20_decrypt(key, nonce, data)
