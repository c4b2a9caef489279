"""Tests for the anonymous-credential (single-use token) layer."""

import pytest

from repro.credentials import CredentialIssuer, TokenVerifier, TokenWallet


@pytest.fixture()
def issuer(group, rng):
    issuer = CredentialIssuer(group, rng=rng, quota_per_member=8)
    issuer.enroll("alice")
    issuer.enroll("bob")
    return issuer


@pytest.fixture()
def verifier(group, issuer):
    return TokenVerifier(group=group, issuer_pk=issuer.pk)


def _wallet(group, issuer, name, rng):
    return TokenWallet(group, name, issuer.pk, rng=rng)


class TestWithdrawSpend:
    def test_round_trip(self, group, issuer, verifier, rng):
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer, count=3)
        assert len(wallet) == 3
        token = wallet.spend()
        assert verifier.accept(token)
        assert len(wallet) == 2

    def test_double_spend_rejected(self, group, issuer, verifier, rng):
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer)
        token = wallet.spend()
        assert verifier.accept(token)
        assert not verifier.accept(token)

    def test_forged_token_rejected(self, group, issuer, verifier, rng):
        from repro.credentials.anon_tokens import AnonymousToken

        forged = AnonymousToken(epoch=0, serial=b"x" * 16, signature=group.random_g1(rng))
        assert not verifier.accept(forged)

    def test_token_under_wrong_issuer_rejected(self, group, issuer, rng):
        other = CredentialIssuer(group, rng=rng)
        other.enroll("mallory")
        wallet = _wallet(group, other, "mallory", rng)
        wallet.withdraw(other)
        verifier = TokenVerifier(group=group, issuer_pk=issuer.pk)
        assert not verifier.accept(wallet.spend())

    def test_empty_wallet(self, group, issuer, rng):
        wallet = _wallet(group, issuer, "alice", rng)
        with pytest.raises(LookupError):
            wallet.spend()

    def test_non_member_cannot_withdraw(self, group, issuer, rng):
        wallet = _wallet(group, issuer, "mallory", rng)
        with pytest.raises(PermissionError):
            wallet.withdraw(issuer)

    def test_quota_enforced(self, group, issuer, rng):
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer, count=8)
        with pytest.raises(RuntimeError):
            wallet.withdraw(issuer)


class TestRevocation:
    def test_revocation_kills_outstanding_tokens(self, group, issuer, verifier, rng):
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer, count=2)
        issuer.revoke("bob")  # ANY revocation bumps the epoch
        verifier.advance_epoch(issuer.epoch)
        assert not verifier.accept(wallet.spend())

    def test_surviving_members_rewithdraw(self, group, issuer, verifier, rng):
        issuer.revoke("bob")
        verifier.advance_epoch(issuer.epoch)
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer)
        assert verifier.accept(wallet.spend())

    def test_revoked_member_cannot_rewithdraw(self, group, issuer, rng):
        issuer.revoke("bob")
        wallet = _wallet(group, issuer, "bob", rng)
        with pytest.raises(PermissionError):
            wallet.withdraw(issuer)

    def test_epoch_monotonicity(self, verifier):
        verifier.advance_epoch(3)
        with pytest.raises(ValueError):
            verifier.advance_epoch(2)

    def test_quota_resets_per_epoch(self, group, issuer, rng):
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer, count=8)
        issuer.revoke("bob")
        wallet.withdraw(issuer, count=8)  # fresh epoch, fresh quota
        assert len(wallet) == 16


class TestUnlinkability:
    def test_issuer_view_is_blinded(self, group, issuer, rng):
        """What the issuer signs is a blinded element, never T itself."""
        from repro.credentials.anon_tokens import _token_element

        seen = []
        original = issuer.sign_withdrawal

        def spy(member_id, blinded):
            seen.append(blinded.to_bytes())
            return original(member_id, blinded)

        issuer.sign_withdrawal = spy
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer, count=3)
        elements = {
            _token_element(group, t.epoch, t.serial).to_bytes() for t in wallet._tokens
        }
        assert not elements & set(seen)

    def test_spent_tokens_carry_no_member_field(self, group, issuer, verifier, rng):
        """The token dataclass structurally contains no member identity."""
        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer)
        token = wallet.spend()
        assert set(token.__dataclass_fields__) == {"epoch", "serial", "signature"}

    def test_two_members_tokens_indistinguishable(self, group, issuer, verifier, rng):
        """Both members' tokens verify identically; serials are uniform."""
        alice = _wallet(group, issuer, "alice", rng)
        bob = _wallet(group, issuer, "bob", rng)
        alice.withdraw(issuer, count=2)
        bob.withdraw(issuer, count=2)
        tokens = [alice.spend(), bob.spend(), alice.spend(), bob.spend()]
        assert all(verifier.accept(t) for t in tokens)
        assert len({t.serial for t in tokens}) == 4


class TestIntegrationWithSem:
    def test_sem_gated_by_anonymous_tokens(self, group, params_k4, rng):
        """Wire the token layer in front of the SEM's signing service."""
        from repro.core.owner import DataOwner
        from repro.core.sem import SecurityMediator

        issuer = CredentialIssuer(group, rng=rng)
        issuer.enroll("alice")
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        gate = TokenVerifier(group=group, issuer_pk=issuer.pk)

        class TokenGatedSem:
            def sign_blinded_batch(self, blinded, credential):
                if not gate.accept(credential):
                    raise PermissionError("invalid or spent token")
                return sem.sign_blinded_batch(blinded, None)

        wallet = _wallet(group, issuer, "alice", rng)
        wallet.withdraw(issuer, count=2)
        owner = DataOwner(params_k4, sem.pk, credential=wallet.spend(), rng=rng)
        signed = owner.sign_file(b"token-gated upload", b"f", TokenGatedSem())
        assert len(signed.signatures) == len(signed.blocks)
        # Re-using the same token for another file fails (single-use).
        with pytest.raises(PermissionError):
            owner.sign_file(b"second upload", b"f2", TokenGatedSem())
        # A fresh token restores service.
        owner.credential = wallet.spend()
        owner.sign_file(b"second upload", b"f2", TokenGatedSem())
