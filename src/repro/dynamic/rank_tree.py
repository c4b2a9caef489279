"""Rank-annotated Merkle tree over an ordered sequence of byte leaves.

A plain Merkle tree authenticates *which* identifiers are under the root
but trusts the path's claimed index to pick the left/right hashing order
— fine for static files, insufficient once blocks shift.  Here every
interior node hash seals the **leaf counts** of both children::

    leaf:  H(0x00 || leaf)                                   count 1
    node:  H(0x01 || be8(lc) || lh || be8(rc) || rh)         count lc+rc

so an inclusion proof carries (side, sibling hash, sibling count) per
step and verification *derives* the leaf's position as the sum of the
left-side sibling counts — the leaf's rank.  A cloud that deletes block
i and replays a neighbouring block's proof for position i produces a
derived rank that disagrees with the challenged position, and any count
forgery changes a node preimage and breaks the root hash.  The total
count derived at the root also authenticates the file's length, so a
truncated file cannot masquerade as the full one.

Mutation is an O(n) rebuild (microseconds at this reproduction's block
counts, and far easier to audit than node surgery); proofs and
verification are O(log n).  Odd nodes are promoted unchanged — never
duplicated — which is what keeps the Bitcoin-style duplication mutation
impossible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"
_EMPTY_ROOT = hashlib.sha256(b"\x02empty-rank").digest()

#: Path-step side markers: the sibling sits to our left or to our right.
SIDE_LEFT = 0
SIDE_RIGHT = 1


def _hash_leaf(leaf: bytes) -> bytes:
    return hashlib.sha256(_LEAF_TAG + leaf).digest()


def _hash_node(left_count: int, left: bytes, right_count: int, right: bytes) -> bytes:
    return hashlib.sha256(
        _NODE_TAG
        + left_count.to_bytes(8, "big") + left
        + right_count.to_bytes(8, "big") + right
    ).digest()


@dataclass(frozen=True)
class RankPath:
    """Inclusion proof: (side, sibling hash, sibling count) bottom-up.

    Levels where the climbing node was promoted (no sibling) contribute
    no step — promotion leaves both hash and count unchanged.
    """

    steps: tuple[tuple[int, bytes, int], ...]

    def wire_size_bytes(self) -> int:
        return sum(1 + 32 + 8 for _ in self.steps)


class RankTree:
    """Rank-annotated Merkle tree over an ordered list of byte leaves."""

    def __init__(self, leaves: list[bytes] | None = None):
        self._leaves: list[bytes] = list(leaves) if leaves else []
        # Levels of (hash, count) pairs, bottom-up; level 0 is the leaves.
        self._levels: list[list[tuple[bytes, int]]] = []
        self._rebuild()

    # -- construction --------------------------------------------------------
    def _rebuild(self) -> None:
        if not self._leaves:
            self._levels = [[]]
            return
        level = [(_hash_leaf(leaf), 1) for leaf in self._leaves]
        levels = [level]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                if i + 1 < len(level):
                    (lh, lc), (rh, rc) = level[i], level[i + 1]
                    nxt.append((_hash_node(lc, lh, rc, rh), lc + rc))
                else:
                    nxt.append(level[i])  # promoted unchanged
            level = nxt
            levels.append(level)
        self._levels = levels

    # -- accessors -----------------------------------------------------------
    @property
    def root(self) -> bytes:
        if not self._leaves:
            return _EMPTY_ROOT
        return self._levels[-1][0][0]

    def __len__(self) -> int:
        return len(self._leaves)

    def leaf(self, index: int) -> bytes:
        return self._leaves[index]

    def leaves(self) -> list[bytes]:
        return list(self._leaves)

    # -- mutation ------------------------------------------------------------
    def modify(self, index: int, leaf: bytes) -> None:
        self._leaves[index] = leaf
        self._rebuild()

    def insert(self, index: int, leaf: bytes) -> None:
        if not 0 <= index <= len(self._leaves):
            raise IndexError("insert position out of range")
        self._leaves.insert(index, leaf)
        self._rebuild()

    def append(self, leaf: bytes) -> None:
        self._leaves.append(leaf)
        self._rebuild()

    def delete(self, index: int) -> None:
        del self._leaves[index]
        self._rebuild()

    # -- proofs ---------------------------------------------------------------
    def prove(self, index: int) -> RankPath:
        """Rank-authenticated inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError("leaf index out of range")
        steps = []
        position = index
        for level in self._levels[:-1]:
            sibling_pos = position ^ 1
            if sibling_pos < len(level):
                sibling_hash, sibling_count = level[sibling_pos]
                side = SIDE_LEFT if sibling_pos < position else SIDE_RIGHT
                steps.append((side, sibling_hash, sibling_count))
            # else: promoted — no step, hash and count pass through.
            position //= 2
        return RankPath(steps=tuple(steps))

    @staticmethod
    def verify_path(root: bytes, total: int, leaf: bytes,
                    path: RankPath) -> int | None:
        """Verify ``leaf`` against ``root``; return its derived rank.

        Returns the authenticated position (0-based) when the recomputed
        root hash matches ``root`` *and* the derived total leaf count
        matches ``total``; ``None`` otherwise.  The caller compares the
        returned rank against the position it challenged — the proof
        cannot claim a different one without breaking the hash.
        """
        digest = _hash_leaf(leaf)
        count = 1
        rank = 0
        for side, sibling_hash, sibling_count in path.steps:
            if sibling_count < 1:
                return None
            if side == SIDE_LEFT:
                digest = _hash_node(sibling_count, sibling_hash, count, digest)
                rank += sibling_count
            elif side == SIDE_RIGHT:
                digest = _hash_node(count, digest, sibling_count, sibling_hash)
            else:
                return None
            count += sibling_count
        if digest != root or count != total:
            return None
        return rank
