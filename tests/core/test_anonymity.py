"""Anonymity properties (the paper's central claim).

Three angles:
1. Public verifiers see only organization-keyed material — signatures of
   different members are *identically distributed* (in fact identical
   functions of the block), so nothing distinguishes members.
2. The SEM's transcript cannot be linked to stored signatures.
3. The multi-owner scenario: per-block author attribution is impossible.
"""

import pytest

from repro.core import SemPdpSystem
from repro.core.blocks import aggregate_block


@pytest.fixture()
def system(group, rng):
    return SemPdpSystem.create(group, k=3, rng=rng)


class TestVerifierSideAnonymity:
    def test_same_block_same_signature_regardless_of_member(self, system):
        """If Alice and Bob sign identical content under the same block ids,
        the verification metadata is bit-for-bit identical: a verifier
        provably cannot attribute blocks to members."""
        alice = system.enroll("alice")
        bob = system.enroll("bob")
        data = b"identical block content"
        signed_a = alice.sign_file(data, b"same-file", system.sem)
        signed_b = bob.sign_file(data, b"same-file", system.sem)
        assert list(signed_a.signatures) == list(signed_b.signatures)

    def test_verification_uses_only_org_key(self, system):
        """Audits never touch member credentials or identities."""
        alice = system.enroll("alice")
        system.upload(alice, b"data " * 5, b"f")
        assert system.verifier.org_pk == system.org_pk
        assert system.audit(b"f")

    def test_multi_owner_file_indistinguishable(self, system, params_k4):
        """Blocks signed by different members within one file carry
        signatures under the same key — the multi-owner scenario of
        Section IV-C."""
        alice = system.enroll("alice")
        bob = system.enroll("bob")
        # Each uploads separate files; signatures on any block only depend
        # on block content + org key.
        system.upload(alice, b"A" * 40, b"fa")
        system.upload(bob, b"B" * 40, b"fb")
        group = system.params.group
        for fid in (b"fa", b"fb"):
            stored = system.cloud.retrieve(fid)
            for block, sig in zip(stored.blocks, stored.signatures):
                lhs = group.pair(sig, group.g1())
                rhs = group.pair(aggregate_block(system.params, block), system.org_pk)
                assert lhs == rhs  # only the ORG key appears


class TestSemSideAnonymityAndPrivacy:
    def test_sem_never_sees_block_aggregates(self, system):
        alice = system.enroll("alice")
        system.upload(alice, b"private medical data " * 3, b"f")
        stored = system.cloud.retrieve(b"f")
        aggregates = {
            aggregate_block(system.params, b).to_bytes() for b in stored.blocks
        }
        sem_view = {e.blinded.to_bytes() for e in system.sem.transcript}
        assert not aggregates & sem_view

    def test_sem_never_sees_stored_signatures(self, system):
        alice = system.enroll("alice")
        system.upload(alice, b"private data " * 3, b"f")
        stored_sigs = {s.to_bytes() for s in system.cloud.retrieve(b"f").signatures}
        sem_out = {e.blind_signature.to_bytes() for e in system.sem.transcript}
        assert not stored_sigs & sem_out

    def test_transcript_consistent_with_every_block(self, system):
        """Unlinkability: for every (transcript entry, stored block) pair a
        valid blinding factor exists, so the SEM cannot link requests to
        blocks even with unbounded computation."""
        alice = system.enroll("alice")
        system.upload(alice, b"linkability test data " * 2, b"f")
        group = system.params.group
        stored = system.cloud.retrieve(b"f")
        for entry in system.sem.transcript:
            for block in stored.blocks:
                quotient = entry.blinded / aggregate_block(system.params, block)
                # In a prime-order group every element is g^r for some r.
                assert (quotient**group.order).is_identity()

    def test_blinded_requests_carry_no_member_identifier(self, system):
        """Two members' signing requests are drawn from the same
        distribution (both uniform in G1)."""
        alice = system.enroll("alice")
        bob = system.enroll("bob")
        system.upload(alice, b"from alice", b"fa")
        system.upload(bob, b"from bob", b"fb")
        blinded = [e.blinded.to_bytes() for e in system.sem.transcript]
        assert len(set(blinded)) == len(blinded)  # all fresh, no structure


class TestContrastWithSW08:
    def test_sw08_leaks_owner_identity(self, group, params_k4, rng):
        """The baseline's verification is keyed by the OWNER's public key:
        distinguishing owners is trivial (this is the leak SEM-PDP fixes)."""
        from repro.baselines.sw08 import SW08Owner, SW08Verifier
        from repro.core.cloud import CloudServer

        alice = SW08Owner(params_k4, rng=rng)
        bob = SW08Owner(params_k4, rng=rng)
        cloud = CloudServer(params_k4, rng=rng)
        cloud.store(alice.sign_file(b"data", b"fa"))
        cloud.store(bob.sign_file(b"data", b"fb"))
        verifier_for_alice = SW08Verifier(params_k4, alice.pk, rng=rng)
        ch = verifier_for_alice.generate_challenge(b"fa", cloud.retrieve(b"fa").n_blocks)
        assert verifier_for_alice.verify(ch, cloud.generate_proof(b"fa", ch))
        # The SAME proof under Bob's key fails: the key identifies the owner.
        verifier_for_bob = SW08Verifier(params_k4, bob.pk, rng=rng)
        ch_b = verifier_for_bob.generate_challenge(b"fa", cloud.retrieve(b"fa").n_blocks)
        assert not verifier_for_bob.verify(ch_b, cloud.generate_proof(b"fa", ch_b))
