"""Panda-style proxy re-signature PDP (Wang, Li, Li — INFOCOM 2014 [24],
built on Ateniese–Hohenberger proxy re-signatures [26]).

The paper's related work cites this family as the *other* way to handle
membership change in shared-data auditing: each member signs her own
blocks under her own key, and when a member is revoked the **cloud**
converts her signatures to a remaining member's key with a re-signing key

    rk_{A->B} = sk_B / sk_A   (mod p),    σ^rk = (H(id)·∏u^m)^{sk_B}.

This avoids involving the revoked user and avoids downloading data — but,
as the paper points out, it is **not identity-private**: blocks verify
under per-member keys, so audits necessarily proceed member by member and
anyone can attribute every block to its current signer.  We implement the
scheme faithfully so that contrast is testable:

* signatures are plain BLS on the usual block aggregate, per member;
* the cloud stores (block, signature, signer) and re-signs on revocation
  (an O(#blocks-of-revoked-member) cloud-side cost SEM-PDP never pays);
* audits are per-signer: one challenge per member whose blocks are
  checked, verified against *that member's* public key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocks import Block, aggregate_block, encode_data
from repro.core.challenge import Challenge, ProofResponse
from repro.core.params import SystemParams
from repro.mathkit.ntheory import inverse_mod
from repro.pairing.interface import GroupElement


@dataclass(frozen=True)
class PandaAudit:
    """One per-signer audit unit: whose key it verifies under is public."""

    signer: int
    challenge: Challenge
    response: ProofResponse


class PandaGroup:
    """A d-member group with per-member keys and cloud-side re-signing."""

    def __init__(self, params: SystemParams, d: int, rng=None):
        if d < 2:
            raise ValueError("need at least 2 members (a successor must exist)")
        self.params = params
        self.group = params.group
        self._rng = rng
        self._sks = [self.group.random_nonzero_scalar(rng) for _ in range(d)]
        self.pks = [self.group.g2() ** sk for sk in self._sks]
        self.live = set(range(d))
        self._files: dict[bytes, tuple[list[Block], list[GroupElement], list[int]]] = {}
        self.resign_operations = 0

    @property
    def d(self) -> int:
        return len(self._sks)

    # -- signing ------------------------------------------------------------
    def sign_and_store(self, data: bytes, file_id: bytes, signers: list[int] | None = None):
        blocks = encode_data(data, self.params, file_id)
        signatures, signer_of = [], []
        for index, block in enumerate(blocks):
            signer = signers[index] if signers is not None else index % self.d
            if signer not in self.live:
                raise ValueError("revoked member cannot sign")
            signatures.append(aggregate_block(self.params, block) ** self._sks[signer])
            signer_of.append(signer)
        self._files[file_id] = (blocks, signatures, signer_of)
        return blocks

    # -- revocation via proxy re-signature --------------------------------------
    def resign_key(self, revoked: int, successor: int) -> int:
        """rk = sk_successor / sk_revoked — computed by the manager, handed
        to the cloud.  (rk alone reveals neither secret key.)"""
        return (
            self._sks[successor]
            * inverse_mod(self._sks[revoked], self.group.order)
            % self.group.order
        )

    def revoke(self, revoked: int, successor: int) -> int:
        """Revoke a member; the cloud re-signs all her blocks to the
        successor's key.  Returns the number of re-signed blocks — the
        linear cost SEM-PDP's revocation avoids entirely."""
        if successor not in self.live or revoked not in self.live:
            raise ValueError("both members must be live")
        if successor == revoked:
            raise ValueError("successor must differ from the revoked member")
        rk = self.resign_key(revoked, successor)
        converted = 0
        for blocks, signatures, signer_of in self._files.values():
            for i, signer in enumerate(signer_of):
                if signer == revoked:
                    signatures[i] = signatures[i] ** rk
                    signer_of[i] = successor
                    converted += 1
        self.live.discard(revoked)
        self.resign_operations += converted
        return converted

    # -- audit ----------------------------------------------------------------------
    def n_blocks(self, file_id: bytes) -> int:
        return len(self._files[file_id][0])

    def signer_of(self, file_id: bytes, position: int) -> int:
        """Public metadata: who currently vouches for a block (the leak)."""
        return self._files[file_id][2][position]

    def signers_in(self, file_id: bytes) -> set[int]:
        return set(self._files[file_id][2])

    def challenge_for_signer(self, file_id: bytes, signer: int, rng) -> Challenge:
        """A challenge covering exactly one member's blocks."""
        blocks, _, signer_of = self._files[file_id]
        indices = tuple(i for i, s in enumerate(signer_of) if s == signer)
        if not indices:
            raise ValueError("signer has no blocks in this file")
        p = self.params.order
        return Challenge(
            indices=indices,
            block_ids=tuple(blocks[i].block_id for i in indices),
            betas=tuple(rng.randrange(1, p) for _ in indices),
        )

    def generate_proof(self, file_id: bytes, challenge: Challenge) -> ProofResponse:
        """Standard Response over one signer's blocks.

        Raises:
            ValueError: if the challenge mixes blocks of different signers
                (per-member auditing is inherent to per-member keys).
        """
        blocks, signatures, signer_of = self._files[file_id]
        owners = {signer_of[i] for i in challenge.indices}
        if len(owners) != 1:
            raise ValueError("Panda audits one member's blocks per challenge")
        p = self.params.order
        alphas = [0] * self.params.k
        sigma: GroupElement | None = None
        for index, beta in zip(challenge.indices, challenge.betas):
            term = signatures[index] ** beta
            sigma = term if sigma is None else sigma * term
            for l, m in enumerate(blocks[index].elements):
                alphas[l] = (alphas[l] + beta * m) % p
        return ProofResponse(sigma=sigma, alphas=tuple(alphas))

    def audit_units(self, file_id: bytes, rng) -> list[PandaAudit]:
        """Everything a verifier needs to audit the whole file: one
        (signer, challenge, response) triple per member with blocks."""
        units = []
        for signer in sorted(self.signers_in(file_id)):
            challenge = self.challenge_for_signer(file_id, signer, rng)
            units.append(
                PandaAudit(
                    signer=signer,
                    challenge=challenge,
                    response=self.generate_proof(file_id, challenge),
                )
            )
        return units


class PandaVerifier:
    """Public verifier: needs ALL member public keys — identity exposure."""

    def __init__(self, params: SystemParams, pks: list[GroupElement], rng=None):
        self.params = params
        self.group = params.group
        self.pks = list(pks)
        self._rng = rng

    def verify_unit(self, unit: PandaAudit) -> bool:
        """Eq. 6 against the named member's public key."""
        if len(unit.response.alphas) != self.params.k:
            return False
        group = self.group
        chi: GroupElement | None = None
        for block_id, beta in zip(unit.challenge.block_ids, unit.challenge.betas):
            term = group.hash_to_g1(block_id) ** beta
            chi = term if chi is None else chi * term
        for u_l, alpha_l in zip(self.params.u, unit.response.alphas):
            if alpha_l:
                chi = chi * u_l**alpha_l
        return group.pairing_check(
            [(unit.response.sigma, group.g2()), (chi.inverse(), self.pks[unit.signer])]
        )

    def verify_file(self, units: list[PandaAudit]) -> bool:
        """All per-member units must pass; costs 2 pairings per member
        (vs 2 total for SEM-PDP regardless of group size)."""
        return bool(units) and all(self.verify_unit(u) for u in units)
