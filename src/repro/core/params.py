"""Global system parameters (paper Setup, Section IV-B).

Setup outputs (G1, e, p, g, H, u_1..u_k): the pairing group supplies
everything except the k random G1 elements u_1..u_k used to aggregate the k
sector elements of each block.  The u elements are derived by hashing a
public seed so that every party (owner, SEM, cloud, verifier) can recompute
identical parameters from (group, k, seed) without trusting a dealer —
hashing into G1 also guarantees nobody knows their discrete logs, which the
unforgeability argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pairing.interface import GroupElement, PairingGroup


@dataclass(frozen=True)
class SystemParams:
    """Public parameters shared by all parties.

    Attributes:
        group: the symmetric bilinear group (G1, GT, e, p, g).
        k: number of Z_p elements aggregated per block (the paper's k).
        u: the k public G1 elements u_1..u_k.
        seed: the public seed the u elements were derived from.
    """

    group: PairingGroup
    k: int
    u: tuple[GroupElement, ...]
    seed: bytes

    @property
    def order(self) -> int:
        """The prime group order (the paper's p)."""
        return self.group.order

    def element_bytes(self) -> int:
        """Bytes of data packed into one Z_p element (strictly below p)."""
        return (self.order.bit_length() - 1) // 8

    def block_bytes(self) -> int:
        """Bytes of data packed into one k-element block."""
        return self.k * self.element_bytes()


def setup(group: PairingGroup, k: int, seed: bytes = b"repro-sem-pdp-params-v1") -> SystemParams:
    """Generate public parameters for aggregation width ``k``.

    Args:
        group: the pairing group to operate in.
        k: elements per block; the paper's experiments use k up to 1000.
        seed: public derivation seed (change it to get an independent
            parameter universe).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    u = tuple(group.hash_to_g1(seed + b"|u|" + index.to_bytes(4, "big")) for index in range(k))
    return SystemParams(group=group, k=k, u=u, seed=seed)
