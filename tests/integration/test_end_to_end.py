"""Full-stack integration tests on mid-size (test-80) parameters, plus a
multi-actor scenario stitching every subsystem together."""

import random

import pytest

from repro.core import SemPdpSystem
from repro.core.params import setup


class TestMidSizeParameters:
    """test-80: |r| = 80, |q| = 160 — structurally identical to paper-160."""

    def test_full_protocol(self, test80_group):
        rng = random.Random(1)
        system = SemPdpSystem.create(test80_group, k=4, rng=rng)
        alice = system.enroll("alice")
        system.upload(alice, b"mid-size parameter run " * 10, b"f")
        assert system.audit(b"f")
        assert system.audit(b"f", sample_size=3)
        system.cloud.tamper_block(b"f", 1)
        assert not system.audit(b"f")

    def test_multi_sem_on_mid_size(self, test80_group):
        rng = random.Random(2)
        system = SemPdpSystem.create(test80_group, k=4, threshold=2, rng=rng)
        alice = system.enroll("alice")
        system.cluster.crash(0)
        system.upload(alice, b"threshold on test-80", b"f")
        assert system.audit(b"f")

    def test_serialization_on_mid_size(self, test80_group):
        from repro.core.serial import decode_signed_file, encode_signed_file

        rng = random.Random(3)
        system = SemPdpSystem.create(test80_group, k=4, rng=rng)
        alice = system.enroll("alice")
        system.upload(alice, b"serialize mid-size", b"f")
        stored = system.cloud.retrieve(b"f")
        from repro.core.owner import SignedFile

        signed = SignedFile(
            file_id=b"f", blocks=tuple(stored.blocks), signatures=tuple(stored.signatures)
        )
        round_tripped = decode_signed_file(
            encode_signed_file(signed, system.params), system.params
        )
        assert round_tripped.blocks == signed.blocks


class TestOrganizationScenario:
    """A week in the life of an organization, end to end."""

    def test_story(self, group):
        rng = random.Random(9)
        org = SemPdpSystem.create(group, k=6, threshold=2, verify_on_upload=True, rng=rng)

        # Monday: three members join and upload.
        members = {name: org.enroll(name) for name in ("ana", "ben", "cleo")}
        files = {}
        for i, (name, owner) in enumerate(members.items()):
            fid = b"doc-%d" % i
            org.upload(owner, f"{name}'s contribution ".encode() * 12, fid)
            files[name] = fid

        # Tuesday: an auditor checks everything in one batch.
        from repro.core.challenge import Challenge
        audits = []
        for fid in files.values():
            stored = org.cloud.retrieve(fid)
            ch = org.verifier.generate_challenge(fid, stored.n_blocks)
            audits.append((ch, org.cloud.generate_proof(fid, ch)))
        assert org.verifier.verify_batch(audits, rng)

        # Wednesday: a SEM crashes; service continues.
        org.cluster.crash(1)
        org.upload(members["ana"], b"midweek addendum " * 6, b"doc-3")
        assert org.audit(b"doc-3")

        # Thursday: ben leaves; his files stay valid, his credential dies.
        org.revoke("ben")
        assert org.audit(files["ben"])
        with pytest.raises(Exception):
            org.upload(members["ben"], b"no longer allowed", b"doc-4")

        # Friday: the cloud misplaces a block and is caught.
        org.cloud.drop_block(files["cleo"], 0)
        assert not org.audit(files["cleo"])

        # Anonymity held throughout: every stored signature verifies under
        # the single organization key and nothing else.
        from repro.core.blocks import aggregate_block

        g = org.params.group
        for fid in (b"doc-0", b"doc-1", b"doc-3"):
            stored = org.cloud.retrieve(fid)
            for block, sig in zip(stored.blocks, stored.signatures):
                assert g.pair(sig, g.g1()) == g.pair(
                    aggregate_block(org.params, block), org.org_pk
                )


class TestCrossParameterIsolation:
    def test_signatures_do_not_transfer_between_parameter_sets(self, group, test80_group):
        """A signature under one parameter universe is garbage in another."""
        rng = random.Random(4)
        params_a = setup(group, k=2, seed=b"universe-a")
        params_b = setup(group, k=2, seed=b"universe-b")
        from repro.core.cloud import CloudServer
        from repro.core.owner import DataOwner
        from repro.core.sem import SecurityMediator
        from repro.core.verifier import PublicVerifier

        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_a, sem.pk, rng=rng)
        signed = owner.sign_file(b"signed under universe a", b"f", sem)
        cloud_b = CloudServer(params_b, rng=rng)
        cloud_b.store(signed)  # cloud accepts blindly (no verify_on_upload)
        verifier_b = PublicVerifier(params_b, sem.pk, rng=rng)
        ch = verifier_b.generate_challenge(b"f", len(signed.blocks))
        assert not verifier_b.verify(ch, cloud_b.generate_proof(b"f", ch))
