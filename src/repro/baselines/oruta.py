"""Oruta [5] — ring-signature-based PDP for shared data (Wang, Li, Li,
IEEE CLOUD 2012), built on HARS (homomorphic authenticable ring signatures).

Each block is ring-signed by its actual author over the ring of all d group
members: the verifier learns "one of the d members signed this" but not
which one.  The price the paper's Table III charges Oruta for this is
structural and reproduced exactly here:

* a signature is **d G1 elements** (vs 1 for SEM-PDP), so signature storage
  and response communication grow linearly in the group size;
* verification needs **d + 1 pairings** (vs 2);
* any membership change invalidates the anonymity set, so *all* signatures
  must be recomputed (no group dynamics).

HARS construction (BGLS-style): for block aggregate β ∈ G1 and ring public
keys w_i = g^{x_i}, the signer s picks random a_i for i ≠ s, sets
σ_i = g^{a_i}, and closes the ring with σ_s = (β / ∏_{i≠s} w_i^{a_i})^{1/x_s}.
Verification:  e(β, g) == ∏_i e(σ_i, w_i).  The map is linear in the
exponents, hence *homomorphic*: component-wise products of signatures
verify against products of aggregates — exactly what sampling PDP needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocks import Block, aggregate_block, encode_data
from repro.core.challenge import Challenge
from repro.core.params import SystemParams
from repro.mathkit.ntheory import inverse_mod
from repro.pairing.interface import GroupElement, PairingGroup


@dataclass(frozen=True)
class RingSignature:
    """σ = (σ_1..σ_d): one G1 element per ring member."""

    components: tuple[GroupElement, ...]

    def __len__(self) -> int:
        return len(self.components)


class HARSRing:
    """A ring of d members with HARS keys."""

    def __init__(self, group: PairingGroup, d: int, rng=None):
        if d < 2:
            raise ValueError("a ring needs at least 2 members (d >= 2)")
        self.group = group
        self.d = d
        self._sks = [group.random_nonzero_scalar(rng) for _ in range(d)]
        self.pks = [group.g1() ** sk for sk in self._sks]
        self._rng = rng

    def sign(self, aggregate: GroupElement, signer: int) -> RingSignature:
        """Ring-sign a block aggregate on behalf of member ``signer``."""
        if not 0 <= signer < self.d:
            raise ValueError("signer index out of range")
        group = self.group
        components: list[GroupElement | None] = [None] * self.d
        # The other members' public keys enter the closing term.
        closing = aggregate
        for i in range(self.d):
            if i == signer:
                continue
            a_i = group.random_nonzero_scalar(self._rng)
            components[i] = group.g1() ** a_i
            closing = closing / self.pks[i] ** a_i
        x_inv = inverse_mod(self._sks[signer], group.order)
        components[signer] = closing**x_inv
        return RingSignature(components=tuple(components))  # type: ignore[arg-type]

    def verify(self, aggregate: GroupElement, signature: RingSignature) -> bool:
        """e(β, g) == ∏ e(σ_i, w_i)  —  d + 1 pairings."""
        if len(signature) != self.d:
            return False
        group = self.group
        return group.pairing_check(
            [(aggregate.inverse(), group.g1()), *zip(signature.components, self.pks)]
        )


@dataclass(frozen=True)
class OrutaResponse:
    """Oruta's audit response: k combinations plus d aggregated σ-components."""

    phis: tuple[GroupElement, ...]
    alphas: tuple[int, ...]

    def paper_size_bits(self, p_bits: int) -> int:
        return (len(self.alphas) + len(self.phis)) * p_bits


class OrutaGroup:
    """A d-member group storing ring-signed shared data (owner + server side)."""

    def __init__(self, params: SystemParams, d: int, rng=None):
        self.params = params
        self.group = params.group
        self.ring = HARSRing(self.group, d, rng=rng)
        self._files: dict[bytes, tuple[list[Block], list[RingSignature]]] = {}
        self._rng = rng

    def sign_and_store(self, data: bytes, file_id: bytes, signers: list[int] | None = None):
        """Each block is signed by its (round-robin by default) author."""
        blocks = encode_data(data, self.params, file_id)
        signatures = []
        for index, block in enumerate(blocks):
            signer = signers[index] if signers is not None else index % self.ring.d
            aggregate = aggregate_block(self.params, block)
            signatures.append(self.ring.sign(aggregate, signer))
        self._files[file_id] = (blocks, signatures)
        return blocks

    def n_blocks(self, file_id: bytes) -> int:
        return len(self._files[file_id][0])

    def signature_storage_elements(self, file_id: bytes) -> int:
        """Total G1 elements of verification metadata (n·d)."""
        _, sigs = self._files[file_id]
        return sum(len(s) for s in sigs)

    def generate_proof(self, file_id: bytes, challenge: Challenge) -> OrutaResponse:
        blocks, signatures = self._files[file_id]
        p = self.params.order
        alphas = [0] * self.params.k
        phis: list[GroupElement | None] = [None] * self.ring.d
        for index, beta in zip(challenge.indices, challenge.betas):
            for l, m_l in enumerate(blocks[index].elements):
                alphas[l] = (alphas[l] + beta * m_l) % p
            for j, component in enumerate(signatures[index].components):
                term = component**beta
                phis[j] = term if phis[j] is None else phis[j] * term
        if any(phi is None for phi in phis):
            raise ValueError("challenge selects no blocks")
        return OrutaResponse(phis=tuple(phis), alphas=tuple(alphas))  # type: ignore[arg-type]


class OrutaVerifier:
    """Public verifier for Oruta: anonymous within the ring, O(d) work."""

    def __init__(self, params: SystemParams, ring_pks: list[GroupElement], rng=None):
        self.params = params
        self.group = params.group
        self.ring_pks = list(ring_pks)
        self._rng = rng

    def verify(self, challenge: Challenge, response: OrutaResponse) -> bool:
        if len(response.alphas) != self.params.k or len(response.phis) != len(self.ring_pks):
            return False
        group = self.group
        acc = None
        for block_id, beta in zip(challenge.block_ids, challenge.betas):
            term = group.hash_to_g1(block_id) ** beta
            acc = term if acc is None else acc * term
        for u_l, alpha_l in zip(self.params.u, response.alphas):
            if alpha_l:
                acc = acc * u_l**alpha_l
        return group.pairing_check(
            [(acc.inverse(), group.g1()), *zip(response.phis, self.ring_pks)]
        )
