"""Multi-owner shared files (paper Section IV-C, "Multi-Owner Scenario").

A file maintained by several members — think collaborative editing — where
each block is signed by its actual author *via the SEM*.  Because every
signature comes out under the single organization key, the stored file is
bit-for-bit indistinguishable from a single-owner upload: a verifier can
neither attribute blocks to members nor even tell how many members
contributed (the "more important member" / "more important block"
inferences the paper warns about are information-theoretically impossible).

The builder below assembles such a file from per-member contributions,
running each member's Blind/Sign/Unblind independently (members never see
each other's blinding factors), and emits one ordinary
:class:`~repro.core.owner.SignedFile`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocks import Block, make_block_id
from repro.core.owner import DataOwner, SignedFile
from repro.core.params import SystemParams


@dataclass(frozen=True)
class Contribution:
    """One member's slice of the shared file."""

    owner: DataOwner
    payload: bytes


class SharedFileBuilder:
    """Assembles a multi-owner file block by block."""

    def __init__(self, params: SystemParams, file_id: bytes, sem, sem_pk_g1=None):
        self.params = params
        self.group = params.group
        self.file_id = file_id
        self.sem = sem
        self.sem_pk_g1 = sem_pk_g1
        self._blocks: list[Block] = []
        self._signatures: list = []
        self._authors: list[DataOwner] = []  # builder-local; NOT uploaded

    def _pack_elements(self, payload: bytes) -> list[tuple[int, ...]]:
        """Pack one contribution into whole blocks (padded)."""
        width = self.params.element_bytes()
        block_bytes = self.params.block_bytes()
        if len(payload) % block_bytes:
            payload = payload + b"\x00" * (block_bytes - len(payload) % block_bytes)
        out = []
        for offset in range(0, len(payload), block_bytes):
            chunk = payload[offset : offset + block_bytes]
            out.append(
                tuple(
                    int.from_bytes(chunk[j * width : (j + 1) * width], "big")
                    for j in range(self.params.k)
                )
            )
        return out

    def append(self, contribution: Contribution) -> int:
        """Sign a member's contribution and append its blocks.

        Each member talks to the SEM herself (her own blinding factors,
        her own credential).  Returns the number of blocks appended.
        """
        owner = contribution.owner
        element_rows = self._pack_elements(contribution.payload)
        blocks = [
            Block(
                block_id=make_block_id(self.file_id, len(self._blocks) + i),
                elements=elements,
            )
            for i, elements in enumerate(element_rows)
        ]
        signatures = owner.sign_blocks(self.sem, blocks, rng=owner._rng,
                                       sem_pk_g1=self.sem_pk_g1)
        self._blocks.extend(blocks)
        self._signatures.extend(signatures)
        self._authors.extend([owner] * len(blocks))
        return len(blocks)

    def build(self) -> SignedFile:
        """The finished shared file — structurally a plain SignedFile."""
        if not self._blocks:
            raise ValueError("no contributions appended")
        return SignedFile(
            file_id=self.file_id,
            blocks=tuple(self._blocks),
            signatures=tuple(self._signatures),
        )

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    def author_of(self, position: int) -> DataOwner:
        """Builder-side bookkeeping ONLY — this mapping never leaves the
        members' side; nothing equivalent exists in the uploaded file."""
        return self._authors[position]


def build_shared_file(
    params: SystemParams,
    file_id: bytes,
    sem,
    contributions: list[Contribution],
    sem_pk_g1=None,
) -> SignedFile:
    """Convenience wrapper: assemble a shared file in one call."""
    builder = SharedFileBuilder(params, file_id, sem, sem_pk_g1=sem_pk_g1)
    for contribution in contributions:
        builder.append(contribution)
    return builder.build()
