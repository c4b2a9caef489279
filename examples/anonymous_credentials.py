#!/usr/bin/env python3
"""Unlinkable member authentication with single-use blind tokens.

The paper delegates SEM authentication to an external anonymous-credential
mechanism (PE(AR)² et al.).  This example runs the repository's
implementation of that layer: members withdraw blind-signed single-use
tokens from the group manager and spend one per signing request, so
neither the manager nor the SEM can link requests to members — and
revocation is a single epoch bump.

    python examples/anonymous_credentials.py
"""

import random

from repro.core.owner import DataOwner
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.credentials import CredentialIssuer, TokenVerifier, TokenWallet
from repro.pairing import toy_group


class TokenGatedSEM:
    """A SEM that demands a fresh anonymous token per signing batch."""

    def __init__(self, sem: SecurityMediator, gate: TokenVerifier):
        self.sem = sem
        self.gate = gate

    def sign_blinded_batch(self, blinded, token):
        if not self.gate.accept(token):
            raise PermissionError("invalid, stale, or already-spent token")
        return self.sem.sign_blinded_batch(blinded, None)


def main() -> None:
    rng = random.Random(606)
    group = toy_group()
    params = setup(group, k=4)

    issuer = CredentialIssuer(group, rng=rng)  # the group manager's counter
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    gated = TokenGatedSEM(sem, TokenVerifier(group=group, issuer_pk=issuer.pk))

    issuer.enroll("ana")
    issuer.enroll("ben")

    # Members stock up on tokens. The issuer authenticates WHO withdraws,
    # but blindness means it cannot recognize the tokens later.
    wallets = {
        name: TokenWallet(group, name, issuer.pk, rng=rng)
        for name in ("ana", "ben")
    }
    for wallet in wallets.values():
        wallet.withdraw(issuer, count=3)
    print("ana and ben each withdrew 3 unlinkable tokens")

    # Upload: one token per signing request.
    owner = DataOwner(params, sem.pk, credential=wallets["ana"].spend(), rng=rng)
    signed = owner.sign_file(b"ana's anonymous upload " * 5, b"f1", gated)
    print(f"ana signed {len(signed.blocks)} blocks; "
          "the SEM saw only a valid token + blinded elements")

    # Replaying a spent token fails.
    try:
        owner.sign_file(b"second file", b"f2", gated)
    except PermissionError as exc:
        print(f"token reuse rejected: {exc}")

    # A fresh token works.
    owner.credential = wallets["ana"].spend()
    owner.sign_file(b"second file", b"f2", gated)
    print("fresh token accepted")

    # Revocation: bump the epoch; ben's remaining tokens all die at once.
    issuer.revoke("ben")
    gated.gate.advance_epoch(issuer.epoch)
    owner_ben = DataOwner(params, sem.pk, credential=wallets["ben"].spend(), rng=rng)
    try:
        owner_ben.sign_file(b"ben tries anyway", b"f3", gated)
    except PermissionError:
        print("ben revoked: every outstanding token invalidated by one epoch bump")
    # Ana just withdraws for the new epoch and continues.
    wallets["ana"].withdraw(issuer, count=1)
    owner.credential = wallets["ana"].spend()
    owner.sign_file(b"life goes on", b"f4", gated)
    print("ana re-provisioned for the new epoch and kept working")


if __name__ == "__main__":
    main()
