"""WCWRL11 — Wang, Chow, Wang, Ren, Lou, "Privacy-Preserving Public
Auditing for Secure Cloud Storage" (IEEE TC 2013; conference version 2010).

Signing is identical to SW08 (hence the shared "SW08/WCWRL11" curve in
Figure 4(a)); the novelty is *data privacy against the auditor*: the cloud
masks the linear combinations α_l with randomness r_l, committing to the
mask through a GT value R, so the TPA learns nothing about the file
contents while still verifying possession:

    server:  R = e(∏_l u_l^{r_l}, pk),  γ = h(R),  α_l = r_l + γ·α'_l
    verify:  R · e(σ^γ, g)  ==  e( (∏_i H(id_i)^{β_i})^γ · ∏_l u_l^{α_l}, pk )

where α'_l = Σ β_i m_{i,l} are the true combinations (never revealed).
This generalizes the paper's single-sector masking to k sectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.baselines.sw08 import SW08Owner
from repro.core.challenge import Challenge
from repro.core.cloud import CloudServer
from repro.core.params import SystemParams
from repro.pairing.interface import GroupElement, GTElement


@dataclass(frozen=True)
class MaskedProofResponse:
    """R = (σ, α_1..α_k, R) with masked combinations."""

    sigma: GroupElement
    alphas: tuple[int, ...]
    commitment: GTElement

    def paper_size_bits(self, p_bits: int) -> int:
        # One extra GT element versus the unmasked response; GT elements in
        # embedding-degree-2 groups serialize to 2|q| bits, but the paper's
        # convention counts group elements as |p| bits.
        return (len(self.alphas) + 2) * p_bits


class WCWRL11Owner(SW08Owner):
    """Signing is exactly SW08; class alias for experiment readability."""


def _mask_scalar(commitment: GTElement, order: int) -> int:
    """γ = h(R): hash the GT commitment to a challenge scalar."""
    digest = hashlib.sha256(repr(commitment.value).encode()).digest()
    return int.from_bytes(digest, "big") % order


class WCWRL11Server(CloudServer):
    """A cloud server producing masked (data-private) proofs."""

    def __init__(self, params: SystemParams, org_pk: GroupElement, rng=None):
        super().__init__(params, org_pk=org_pk, rng=rng)
        self._pk_for_masking = org_pk

    def generate_masked_proof(self, file_id: bytes, challenge: Challenge) -> MaskedProofResponse:
        base = self.generate_proof(file_id, challenge)
        p = self.params.order
        rng = self._rng
        r = [
            (rng.randrange(p) if rng is not None else self.group.random_scalar())
            for _ in range(self.params.k)
        ]
        mask_point = None
        for u_l, r_l in zip(self.params.u, r):
            term = u_l**r_l
            mask_point = term if mask_point is None else mask_point * term
        commitment = self.group.pair(mask_point, self._pk_for_masking)
        gamma = _mask_scalar(commitment, p)
        alphas = tuple((r_l + gamma * a_l) % p for r_l, a_l in zip(r, base.alphas))
        return MaskedProofResponse(sigma=base.sigma, alphas=alphas, commitment=commitment)


class WCWRL11Verifier:
    """The third-party auditor: verifies possession without seeing data."""

    def __init__(self, params: SystemParams, owner_pk: GroupElement, rng=None):
        self.params = params
        self.group = params.group
        self.owner_pk = owner_pk
        self._rng = rng

    def verify(self, challenge: Challenge, response: MaskedProofResponse) -> bool:
        if len(response.alphas) != self.params.k:
            return False
        group = self.group
        gamma = _mask_scalar(response.commitment, self.params.order)
        lhs = response.commitment * group.pair(response.sigma**gamma, group.g1())
        hash_acc = None
        for block_id, beta in zip(challenge.block_ids, challenge.betas):
            term = group.hash_to_g1(block_id) ** beta
            hash_acc = term if hash_acc is None else hash_acc * term
        rhs_point = hash_acc**gamma
        for u_l, alpha_l in zip(self.params.u, response.alphas):
            if alpha_l:
                rhs_point = rhs_point * u_l**alpha_l
        rhs = group.pair(rhs_point, self.owner_pk)
        return lhs == rhs
