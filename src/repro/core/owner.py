"""The data owner — paper Blind and Unblind (Section IV-B) plus the
end-to-end per-file signing workflow (Section IV-A).

For each block the owner (1) aggregates the k elements into one G1 value,
(2) blinds it (Eq. 2), (3) obtains σ̃ from the SEM (Eq. 3), and (4) checks
and unblinds it (Eq. 4/5).  With ``batch=True`` step (4) verifies all n
blind signatures at once (Eq. 7) — the "Our Scheme*" optimization that
Figure 4(a) shows closes the gap with SW08.  :meth:`DataOwner.sign_blocks`
is that one pass; with fixed-base tables its blinding (g^r) and
unblinding (pk^{−r}) are table lookups, so the only Exp a block costs
is the SEM's Eq. 3 (hashing H(id) still clears its cofactor).

The optional data-privacy layer (Section IV-C) encrypts the payload with
ChaCha20 before any of this happens, so neither the SEM nor the cloud ever
sees plaintext.
"""

from __future__ import annotations

import secrets
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.blocks import Block, aggregate_block, encode_data
from repro.core.params import SystemParams
from repro.crypto.blind_bls import (
    BlindingState,
    BlindSignatureError,
    batch_unblind_verify,
    blind,
    blind_batch,
    unblind,
    unblind_batch,
    verify_blinded,
)
from repro.crypto.symmetric import chacha20_decrypt, chacha20_encrypt
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

    Every signing caller — :meth:`sign_file`, the dynamic, resilient and
    fleet stores, and the multi-owner builder — runs the same
    :meth:`sign_blocks` pass: Blind, one SEM batch, Eq. 7, Unblind.

    Args:
        use_fixed_base: precompute window tables for the u_1..u_k bases so
            Bind's k exponentiations become table lookups, and for the
            blinding bases g1 (Eq. 2) and pk1 = g1^y (Eq. 5), so blinding
            and unblinding become lookups too (one-time cost amortized
            across all blocks the owner ever signs).
        table_cache_dir: load/persist the u_1..u_k tables via the
            :mod:`repro.ec.precompute` disk cache instead of rebuilding
            (implies ``use_fixed_base``).  The g1 and pk1 tables are
            always built in memory: blindness never rests on a file.
        pool: a :class:`~repro.core.parallel.WorkerPool`; block
            aggregation/blinding, Eq. 7 batch verification, and unblinding
            then fan out across its workers.  Configure the pool with the
            same ``table_cache_dir`` so workers blind and unblind through
            the same tables as the owner, keeping the raw op tallies equal
            at any worker count.
    """

    def __init__(self, params: SystemParams, sem_pk: GroupElement, credential=None,
                 rng=None, use_fixed_base: bool = False,
                 table_cache_dir=None, pool=None):
        self.params = params
        self.group = params.group
        self.sem_pk = sem_pk
        self.credential = credential
        self._rng = rng
        self.stats = OwnerStats()
        self.pool = pool
        self._pk1 = GroupElement(self.group, sem_pk.point, "g1")
        self._tables = None
        self._g1_table = self._pk1_table = None
        if table_cache_dir is not None or use_fixed_base:
            from repro.ec.precompute import build_tables_fast, load_or_build

            bits = params.order.bit_length()
            if table_cache_dir is not None:
                self._tables, _ = load_or_build(
                    table_cache_dir, self.group, list(params.u), bits)
            else:
                self._tables = build_tables_fast(list(params.u), bits)
            self._g1_table, self._pk1_table = build_tables_fast(
                [self.group.g1(), self._pk1], bits)

    # -- single-block primitives (the paper's algorithms) -------------------
    def aggregate(self, block: Block) -> GroupElement:
        """H(id)·∏u^m — via fixed-base tables when enabled."""
        if self._tables is not None:
            from repro.ec.fixed_base import aggregate_with_tables

            return aggregate_with_tables(self.params, block, self._tables)
        return aggregate_block(self.params, block)

    def blind_block(self, block: Block) -> BlindingState:
        """Blind (Eq. 2): aggregate the block, then blind the aggregate."""
        return blind(self.group, self.aggregate(block), self._rng)

    def unblind(
        self,
        state: BlindingState,
        blind_signature: GroupElement,
        check: bool = True,
        sem_pk_g1: GroupElement | None = None,
    ) -> GroupElement:
        """Unblind (Eq. 4/5): verify then recover σ_i = M_i^y.

        Raises:
            ValueError: if ``sem_pk_g1`` is not the owner's key.
        """
        return unblind(self.group, state, blind_signature, self.sem_pk,
                       pk1=self._checked_pk1(sem_pk_g1), check=check)

    def _checked_pk1(self, sem_pk_g1: GroupElement | None) -> GroupElement:
        """The key Eq. 5 unblinds with; a caller's copy must be the same
        point, or σ would verify under no key."""
        if sem_pk_g1 is not None and sem_pk_g1.point != self.sem_pk.point:
            raise ValueError("sem_pk_g1 is not the SEM key this owner unblinds with")
        return self._pk1

    # -- the owner-side signing pass -------------------------------------------
    def sign_blocks(
        self,
        sem,
        blocks: list[Block],
        *,
        rng,
        extra: Sequence[GroupElement] = (),
        batch: bool = True,
        sem_pk_g1: GroupElement | None = None,
    ) -> list[GroupElement]:
        """Blind → Sign → Eq. 7 → Unblind for every block, then ``extra``.

        Blinds (Eq. 2) each block's aggregate and each ``extra`` G1
        message, gets all blind signatures from ``sem`` in one
        ``sign_blinded_batch`` call (Eq. 3), checks them with one Eq. 7
        (or each with Eq. 4 when ``batch`` is off), and unblinds (Eq. 5).
        With tables, the blinding masks and unmasks are fixed-base
        lookups, so the pass runs no Exp of its own.

        Args:
            sem: anything exposing ``sign_blinded_batch(blinded, credential)``.
            rng: where Eq. 7's γ_i come from (the blinding factors always
                come from the owner's rng).
            extra: G1 messages signed after the blocks, e.g. H(root message).
            sem_pk_g1: the SEM key as a G1 element; when given it must be
                the owner's ``sem_pk`` point.

        Returns:
            One signature per block, then one per ``extra`` message.

        Raises:
            ValueError: if ``sem_pk_g1`` is not the owner's key (before
                anything is signed).
            BlindSignatureError: if the SEM's reply has the wrong length
                or fails Eq. 7 (Eq. 4).
        """
        pk1 = self._checked_pk1(sem_pk_g1)
        states = self._blind_all(blocks, list(extra))
        blinded = [s.blinded for s in states]
        blind_signatures = sem.sign_blinded_batch(blinded, self.credential)
        if len(blind_signatures) != len(blinded):
            raise BlindSignatureError(
                f"SEM returned {len(blind_signatures)} signatures for {len(blinded)} messages")
        if batch:
            if not batch_unblind_verify(self.group, blinded, blind_signatures, self.sem_pk,
                                        rng, pool=self.pool):
                raise BlindSignatureError(
                    "batch verification of blind signatures failed (Eq. 7)")
        elif not all(verify_blinded(self.group, m, s, self.sem_pk)
                     for m, s in zip(blinded, blind_signatures)):
            raise BlindSignatureError(
                "blind signature failed verification (Eq. 4); re-request from SEM")
        return self._unblind_all(states, blind_signatures, pk1)

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
                :class:`~repro.core.multi_sem.MultiSEMClient`, or a network
                proxy).
            batch: use Eq. 7 batch verification (2 pairings total) instead
                of per-signature Eq. 4 checks (2 pairings each).
            encrypt_key: when given, ChaCha20-encrypt the payload first
                (data privacy, Section IV-C).
            sem_pk_g1: the SEM key as a G1 element; a point other than
                the owner's ``sem_pk`` raises ``ValueError``.

        Returns:
            A :class:`SignedFile` ready for
            :meth:`repro.core.cloud.CloudServer.store`.
        """
        nonce = None
        encrypted = False
        if encrypt_key is not None:
            nonce = secrets.token_bytes(12)
            data = chacha20_encrypt(encrypt_key, nonce, data)
            encrypted = True
        blocks = encode_data(data, self.params, file_id)
        signatures = self.sign_blocks(sem, blocks, rng=self._rng, batch=batch,
                                      sem_pk_g1=sem_pk_g1)
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

    # -- parallel fan-out helpers ------------------------------------------
    def _blind_all(self, blocks: list[Block], extra: list) -> list[BlindingState]:
        """Blind every block, then every extra message, fanned out when pooled.

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

    def _unblind_all(self, states, blind_signatures, pk1) -> list[GroupElement]:
        """Unblind every signature (Eq. 5), fanned out when pooled."""
        if self.pool is not None and self.pool.fans_out(len(states)):
            return self.pool.unblind_batch(states, blind_signatures, pk1)
        return unblind_batch(self.group, states, blind_signatures, pk1, self._pk1_table)

    @staticmethod
    def decrypt_file(data: bytes, key: bytes, nonce: bytes) -> bytes:
        """Undo the data-privacy layer after downloading from the cloud."""
        return chacha20_decrypt(key, nonce, data)
