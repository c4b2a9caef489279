"""Resilient SEM-PDP storage: encode → sign → upload → localize → repair.

Workflow on top of the ordinary actors:

1. **Encode**: the payload's n data blocks are RS-extended with m parity
   blocks (element-wise over Z_p), all under the same file.
2. **Sign & upload**: every coded block is blind-signed and stored —
   to the cloud and every verifier, parity blocks are indistinguishable
   from data blocks, so nothing about the paper's protocol changes.
3. **Localize**: when a sampled audit fails, a deterministic binary
   split over the block range pins down exactly which coded blocks are
   corrupt — the PDP machinery doubles as a group-testing corruption
   locator, and a clean range is certified by one aggregate check
   instead of one check per block.
4. **Repair**: any ``n`` healthy coded blocks reconstruct the originals;
   repaired blocks are re-signed via the SEM and re-uploaded.

The file survives up to m corrupted blocks with zero interaction with the
original uploader — the property [10]/[12] add to auditing, recreated on
the SEM-PDP substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocks import Block, decode_data, encode_data, make_block_id
from repro.core.challenge import Challenge
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner, SignedFile
from repro.core.params import SystemParams
from repro.core.verifier import PublicVerifier, bisect_failures
from repro.erasure.reed_solomon import ReedSolomonCode


@dataclass(frozen=True)
class RepairReport:
    """What a repair pass found and fixed."""

    corrupt_positions: tuple[int, ...]
    repaired: bool
    resigned_blocks: int


class ResilientStore:
    """Erasure-coded, audited, self-repairing storage for one organization."""

    def __init__(self, params: SystemParams, owner: DataOwner, sem,
                 cloud: CloudServer, verifier: PublicVerifier, parity: int,
                 rng=None, obs=None):
        from repro.obs import NULL_OBS

        self.params = params
        self.group = params.group
        self.owner = owner
        self.sem = sem
        self.cloud = cloud
        self.verifier = verifier
        self.parity = parity
        self._rng = rng
        self.obs = obs if obs is not None else NULL_OBS
        self._codes: dict[bytes, ReedSolomonCode] = {}
        self._data_blocks: dict[bytes, int] = {}

    # -- store ------------------------------------------------------------------
    def store(self, data: bytes, file_id: bytes) -> int:
        """Encode, sign, and upload; returns the number of coded blocks."""
        data_blocks = encode_data(data, self.params, file_id)
        code = ReedSolomonCode(len(data_blocks), self.parity, self.params.order)
        words = [block.elements for block in data_blocks]
        coded_words = code.encode(words)
        coded_blocks = [
            Block(block_id=make_block_id(file_id, index), elements=elements)
            for index, elements in enumerate(coded_words)
        ]
        signatures = self.owner.sign_blocks(self.sem, coded_blocks, rng=self._rng)
        self.cloud.store(
            SignedFile(
                file_id=file_id,
                blocks=tuple(coded_blocks),
                signatures=tuple(signatures),
            )
        )
        self._codes[file_id] = code
        self._data_blocks[file_id] = len(data_blocks)
        return len(coded_blocks)

    # -- audit / localize -----------------------------------------------------------
    def audit(self, file_id: bytes, sample_size: int | None = None) -> bool:
        stored = self.cloud.retrieve(file_id)
        challenge = self.verifier.generate_challenge(
            file_id, stored.n_blocks, sample_size=sample_size
        )
        return self.verifier.verify(challenge, self.cloud.generate_proof(file_id, challenge))

    def locate_corruption(self, file_id: bytes) -> list[int]:
        """Binary-split group testing over the block range: exact corrupt
        positions in O(k · log n) pairing checks for k corrupt blocks.

        The split is :func:`~repro.core.verifier.bisect_failures`, with one
        range challenge per visited range.  Its schedule is deterministic:
        ranges are visited depth-first, lower half before upper half, so
        for a fixed rng the exact sequence of challenges — and hence the
        Exp/Pair tally — is bit-identical across runs.  A range whose
        aggregate Eq. 6 check passes is certified clean with a single
        verification (a random
        β-combination of a clean range verifies; a corrupt block escapes
        only with probability 1/p), which is what makes this cheaper than
        the old one-challenge-per-block scrub: a clean file costs 1 check
        instead of n.  The whole traversal runs under a
        ``repair.localize`` tracer span so the Exp/Pair cost lands in the
        reconciled cost model.
        """
        stored = self.cloud.retrieve(file_id)
        challenges = 0

        def check_range(lo: int, hi: int) -> bool:
            nonlocal challenges
            challenge = self._range_challenge(file_id, lo, hi)
            proof = self.cloud.generate_proof(file_id, challenge)
            challenges += 1
            return self.verifier.verify(challenge, proof)

        with self.obs.tracer.span("repair.localize",
                                  blocks=stored.n_blocks) as span:
            corrupt = bisect_failures(stored.n_blocks, check_range)
            span.set(challenges=challenges, corrupt=len(corrupt))
        return corrupt

    def _range_challenge(self, file_id: bytes, lo: int, hi: int) -> Challenge:
        """One aggregate challenge over the half-open block range [lo, hi)."""
        positions = range(lo, hi)
        return Challenge(
            indices=tuple(positions),
            block_ids=tuple(make_block_id(file_id, p) for p in positions),
            betas=tuple(self._random_beta() for _ in positions),
        )

    def _random_beta(self) -> int:
        if self._rng is not None:
            return self._rng.randrange(1, self.params.order)
        import secrets

        return secrets.randbelow(self.params.order - 1) + 1

    # -- repair -------------------------------------------------------------------------
    def repair(self, file_id: bytes) -> RepairReport:
        """Locate corrupt blocks, reconstruct them, re-sign, re-upload."""
        code = self._codes[file_id]
        corrupt = self.locate_corruption(file_id)
        if not corrupt:
            return RepairReport(corrupt_positions=(), repaired=True, resigned_blocks=0)
        stored = self.cloud.retrieve(file_id)
        healthy = {
            i: stored.blocks[i].elements
            for i in range(stored.n_blocks)
            if i not in corrupt
        }
        if len(healthy) < code.data:
            return RepairReport(
                corrupt_positions=tuple(corrupt), repaired=False, resigned_blocks=0
            )
        originals = code.decode(healthy)
        coded_words = code.encode(originals)
        replacement_blocks = [
            Block(
                block_id=make_block_id(file_id, position),
                elements=coded_words[position],
            )
            for position in corrupt
        ]
        replacement_signatures = self.owner.sign_blocks(
            self.sem, replacement_blocks, rng=self._rng)
        for block, signature, position in zip(
            replacement_blocks, replacement_signatures, corrupt
        ):
            stored.blocks[position] = block
            stored.signatures[position] = signature
        return RepairReport(
            corrupt_positions=tuple(corrupt),
            repaired=True,
            resigned_blocks=len(corrupt),
        )

    # -- retrieval -------------------------------------------------------------------------
    def retrieve(self, file_id: bytes) -> bytes:
        """Decode the payload, reconstructing through corruption if needed."""
        code = self._codes[file_id]
        stored = self.cloud.retrieve(file_id)
        corrupt = set(self.locate_corruption(file_id))
        healthy = {
            i: stored.blocks[i].elements
            for i in range(stored.n_blocks)
            if i not in corrupt
        }
        originals = code.decode(healthy)
        data_blocks = [
            Block(block_id=make_block_id(file_id, i), elements=elements)
            for i, elements in enumerate(originals)
        ]
        return decode_data(data_blocks, self.params)
