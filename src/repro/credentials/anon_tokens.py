"""Blind-signature-based single-use anonymous tokens.

Protocol (all under the issuer's token key, distinct from the SEM data
key):

1. **Withdraw** — the member picks a random serial s, computes
   T = H(epoch || s), blinds it, and has the group manager blind-sign it.
   The manager checks *who* is withdrawing (members only, quota per
   member) but — by blindness — learns nothing about s.
2. **Spend** — to authenticate a signing request, the member reveals
   (s, σ = T^y).  The SEM checks the pairing equation for the *current*
   epoch and that s is fresh (double-spend list).
3. **Revoke** — the manager bumps the epoch.  All outstanding tokens die
   (they hash the old epoch); everyone still enrolled withdraws fresh
   tokens; the revoked member simply isn't served at the counter.

Unlinkability: the manager's view of a withdrawal is a uniformly random
blinded element, and a spent token reveals only (s, σ) — independent of
any withdrawal transcript.  So neither the manager nor the SEM can link a
signing request to a member identity, strictly stronger than the opaque
pseudonymous tokens in :mod:`repro.core.group_mgmt`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.crypto.blind_bls import blind, sign_blinded, unblind
from repro.pairing.interface import GroupElement, PairingGroup


@dataclass(frozen=True)
class AnonymousToken:
    """A spendable token: the serial and the issuer's signature on it."""

    epoch: int
    serial: bytes
    signature: GroupElement


def _token_element(group: PairingGroup, epoch: int, serial: bytes) -> GroupElement:
    return group.hash_to_g1(b"anon-token|" + epoch.to_bytes(8, "big") + b"|" + serial)


class CredentialIssuer:
    """The group manager's token-issuing counter."""

    def __init__(self, group: PairingGroup, rng=None, quota_per_member: int = 64):
        self.group = group
        self._rng = rng
        self._sk = group.random_nonzero_scalar(rng)
        self.pk = group.g2() ** self._sk
        self.pk_g1 = group.g1() ** self._sk
        self.epoch = 0
        self.quota_per_member = quota_per_member
        self._members: set[str] = set()
        self._withdrawn: dict[tuple[int, str], int] = {}

    # -- membership --------------------------------------------------------
    def enroll(self, member_id: str) -> None:
        if member_id in self._members:
            raise ValueError(f"{member_id!r} already enrolled")
        self._members.add(member_id)

    def revoke(self, member_id: str) -> None:
        """Remove the member and invalidate ALL outstanding tokens by
        bumping the epoch — O(1), and cloud data is untouched."""
        self._members.discard(member_id)
        self.epoch += 1

    def is_enrolled(self, member_id: str) -> bool:
        return member_id in self._members

    # -- withdrawal (the only authenticated step) -----------------------------
    def sign_withdrawal(self, member_id: str, blinded: GroupElement) -> GroupElement:
        """Blind-sign one token withdrawal for an enrolled member.

        Raises:
            PermissionError: non-members (including the just-revoked).
            RuntimeError: quota exceeded for this epoch.
        """
        if member_id not in self._members:
            raise PermissionError(f"{member_id!r} is not an enrolled member")
        key = (self.epoch, member_id)
        if self._withdrawn.get(key, 0) >= self.quota_per_member:
            raise RuntimeError("withdrawal quota exceeded for this epoch")
        self._withdrawn[key] = self._withdrawn.get(key, 0) + 1
        return sign_blinded(blinded, self._sk)


class TokenWallet:
    """Member-side: withdraws and holds unlinkable tokens."""

    def __init__(self, group: PairingGroup, member_id: str, issuer_pk: GroupElement,
                 issuer_pk_g1: GroupElement | None = None, rng=None):
        self.group = group
        self.member_id = member_id
        self.issuer_pk = issuer_pk
        self.issuer_pk_g1 = issuer_pk_g1
        self._rng = rng
        self._tokens: list[AnonymousToken] = []

    def withdraw(self, issuer: CredentialIssuer, count: int = 1) -> int:
        """Withdraw ``count`` fresh tokens for the issuer's current epoch."""
        epoch = issuer.epoch
        for _ in range(count):
            serial = (
                self._rng.randbytes(16) if self._rng is not None else secrets.token_bytes(16)
            )
            element = _token_element(self.group, epoch, serial)
            state = blind(self.group, element, self._rng)
            blind_signature = issuer.sign_withdrawal(self.member_id, state.blinded)
            signature = unblind(
                self.group, state, blind_signature, self.issuer_pk,
                pk1=self.issuer_pk_g1, check=True,
            )
            self._tokens.append(AnonymousToken(epoch=epoch, serial=serial, signature=signature))
        return len(self._tokens)

    def spend(self) -> AnonymousToken:
        """Pop one token (single-use)."""
        if not self._tokens:
            raise LookupError("wallet is empty; withdraw first")
        return self._tokens.pop()

    def __len__(self) -> int:
        return len(self._tokens)


@dataclass
class TokenVerifier:
    """SEM-side token acceptance: signature + epoch + double-spend check."""

    group: PairingGroup
    issuer_pk: GroupElement
    current_epoch: int = 0
    _spent: set[bytes] = field(default_factory=set)

    def advance_epoch(self, epoch: int) -> None:
        if epoch < self.current_epoch:
            raise ValueError("epochs only move forward")
        self.current_epoch = epoch
        self._spent.clear()  # old serials can never validate again anyway

    def accept(self, token: AnonymousToken) -> bool:
        """True iff the token is valid, current, and never seen before."""
        if token.epoch != self.current_epoch:
            return False
        if token.serial in self._spent:
            return False
        element = _token_element(self.group, token.epoch, token.serial)
        if not self.group.pairing_check(
            [(token.signature, self.group.g2()), (element.inverse(), self.issuer_pk)]
        ):
            return False
        self._spent.add(token.serial)
        return True
