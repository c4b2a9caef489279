"""The security mediator (SEM) — paper Sections II-A and IV-B (Sign).

The SEM holds the organization's signing key y and exposes exactly one
cryptographic operation: raising a blinded group element to y (Eq. 3).  It
never sees block contents (blindness) and cannot link signing requests to
the signatures later stored in the cloud (unlinkability) — both properties
are inherited from the blind BLS protocol and exercised in
``tests/core/test_anonymity.py``.

The SEM also keeps the group member list: it serves enrolled credentials
and refuses revoked ones, which is all that dynamic-group support requires.
Every signing request is recorded in a transcript (blinded message in,
blind signature out) used by the anonymity tests — a real SEM would keep
such a log too, and the scheme's privacy must hold *even against* it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.group_mgmt import MemberCredential
from repro.crypto.blind_bls import sign_blinded
from repro.pairing.interface import GroupElement, PairingGroup


class UnknownMemberError(Exception):
    """Raised when a signing request carries a credential the SEM never saw."""


class RevokedMemberError(Exception):
    """Raised when a revoked credential attempts to obtain signatures."""


@dataclass
class SigningTranscriptEntry:
    """What the SEM sees for one request: the blinded pair only."""

    blinded: GroupElement
    blind_signature: GroupElement


class SecurityMediator:
    """A single SEM holding the full organizational signing key.

    Args:
        group: the pairing group.
        sk: signing key y (freshly sampled when omitted).
        require_membership: when False the SEM signs for anyone (useful for
            microbenchmarks); protocol-level deployments keep it True.
    """

    def __init__(
        self,
        group: PairingGroup,
        sk: int | None = None,
        rng=None,
        require_membership: bool = True,
    ):
        self.group = group
        self._sk = sk if sk is not None else group.random_nonzero_scalar(rng)
        self.pk = group.g1() ** self._sk
        self.require_membership = require_membership
        self._members: set[bytes] = set()
        self._revoked: set[bytes] = set()
        self.transcript: list[SigningTranscriptEntry] = []
        self.fail_mode: str | None = None  # None | "crash" | "byzantine"

    @property
    def pk_g1(self) -> GroupElement:
        """``pk`` under its old G1-copy name, read only; kept for the
        benchmark harness (``perfbench``), which still reads it."""
        return self.pk

    # -- membership (driven by the GroupManager) ---------------------------
    def add_member(self, credential: MemberCredential) -> None:
        self._members.add(credential.token)
        self._revoked.discard(credential.token)

    def remove_member(self, credential: MemberCredential) -> None:
        self._members.discard(credential.token)
        self._revoked.add(credential.token)

    def serves(self, credential: MemberCredential) -> bool:
        return credential.token in self._members

    # -- the one cryptographic service --------------------------------------
    def sign_blinded(
        self, blinded: GroupElement, credential: MemberCredential | None = None
    ) -> GroupElement:
        """Eq. 3: return σ̃ = m̃^y after the membership check.

        Raises:
            UnknownMemberError / RevokedMemberError: membership failures.
            ConnectionError: when failure injection is set to "crash".
        """
        if self.fail_mode == "crash":
            raise ConnectionError("SEM is down (injected failure)")
        if self.require_membership:
            if credential is None or credential.token not in self._members:
                if credential is not None and credential.token in self._revoked:
                    raise RevokedMemberError("credential has been revoked")
                raise UnknownMemberError("credential is not an enrolled member")
        signature = sign_blinded(blinded, self._sk)
        if self.fail_mode == "byzantine":
            # Return a well-formed but wrong share: signed under a perturbed key.
            signature = sign_blinded(blinded, (self._sk + 1) % self.group.order)
        self.transcript.append(SigningTranscriptEntry(blinded=blinded, blind_signature=signature))
        return signature

    def sign_blinded_batch(
        self, blinded_messages: list[GroupElement], credential: MemberCredential | None = None
    ) -> list[GroupElement]:
        """Sign many blinded messages in one round trip.

        Vectorized: the failure-injection and membership checks run once
        per batch (one credential covers one request), not once per
        element — the per-element path through :meth:`sign_blinded` exists
        for single-message protocol steps.
        """
        if self.fail_mode == "crash":
            raise ConnectionError("SEM is down (injected failure)")
        if self.require_membership:
            if credential is None or credential.token not in self._members:
                if credential is not None and credential.token in self._revoked:
                    raise RevokedMemberError("credential has been revoked")
                raise UnknownMemberError("credential is not an enrolled member")
        sk = self._sk
        if self.fail_mode == "byzantine":
            sk = (self._sk + 1) % self.group.order
        signatures = [sign_blinded(m, sk) for m in blinded_messages]
        self.transcript.extend(
            SigningTranscriptEntry(blinded=m, blind_signature=s)
            for m, s in zip(blinded_messages, signatures)
        )
        return signatures
