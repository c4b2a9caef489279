"""Tests for the SemPdpSystem facade and dynamic group management."""

import random

import pytest

from repro.core import SemPdpSystem
from repro.core.sem import RevokedMemberError, UnknownMemberError
from repro.pairing import toy_group


@pytest.fixture()
def system(group, rng):
    return SemPdpSystem.create(group, k=4, rng=rng)


class TestFacade:
    def test_upload_and_audit(self, system):
        alice = system.enroll("alice")
        receipt = system.upload(alice, b"shared data " * 10, b"f1")
        assert receipt.n_blocks > 0
        assert system.audit(b"f1")
        assert system.audit(b"f1", sample_size=2)

    def test_audit_detects_corruption(self, system):
        alice = system.enroll("alice")
        system.upload(alice, b"shared data " * 10, b"f1")
        system.cloud.tamper_block(b"f1", 0)
        assert not system.audit(b"f1")

    def test_multiple_files_multiple_owners(self, system):
        alice = system.enroll("alice")
        bob = system.enroll("bob")
        system.upload(alice, b"alice data", b"fa")
        system.upload(bob, b"bob data", b"fb")
        assert system.audit(b"fa") and system.audit(b"fb")

    def test_encrypted_upload(self, system):
        alice = system.enroll("alice")
        receipt = system.upload(alice, b"secret", b"f", encrypt_key=bytes(32))
        assert receipt.encrypted and receipt.nonce is not None
        assert system.audit(b"f")

    def test_create_requires_exactly_one_sem_kind(self, system):
        with pytest.raises(ValueError):
            SemPdpSystem(
                params=system.params,
                manager=system.manager,
                cloud=system.cloud,
                verifier=system.verifier,
                sem=None,
                cluster=None,
            )

    def test_nonbatch_upload(self, system):
        alice = system.enroll("alice")
        system.upload(alice, b"data", b"f", batch=False)
        assert system.audit(b"f")

    def test_small_exponent_audit(self, system):
        alice = system.enroll("alice")
        system.upload(alice, b"data " * 20, b"f")
        assert system.audit(b"f", beta_bits=16)

    def test_verify_on_upload_deployment(self, group, rng):
        system = SemPdpSystem.create(group, k=2, verify_on_upload=True, rng=rng)
        alice = system.enroll("alice")
        system.upload(alice, b"checked on arrival", b"f")
        assert system.cloud.has_file(b"f")


class TestMultiSemFacade:
    def test_threshold_deployment(self, group, rng):
        system = SemPdpSystem.create(group, k=3, threshold=2, rng=rng)
        alice = system.enroll("alice")
        system.upload(alice, b"clustered " * 5, b"f")
        assert system.audit(b"f")

    def test_audit_unchanged_after_sem_failures(self, group, rng):
        """Challenge/Response/Verify are independent of the SEM count."""
        system = SemPdpSystem.create(group, k=3, threshold=2, rng=rng)
        alice = system.enroll("alice")
        system.upload(alice, b"data " * 5, b"f")
        system.cluster.crash(0)  # failures after upload don't affect audits
        assert system.audit(b"f")

    def test_upload_with_failures(self, group, rng):
        system = SemPdpSystem.create(group, k=3, threshold=2, rng=rng)
        alice = system.enroll("alice")
        system.cluster.crash(1)
        system.upload(alice, b"data", b"f")
        assert system.audit(b"f")

    def test_quarantine_spans_uploads(self):
        """One client signs every upload, so a byzantine SEM caught on the
        first upload is not contacted (nor its shares checked) again."""
        system = SemPdpSystem.create(toy_group(), k=4, threshold=2, rng=random.Random(3))
        system.cluster.corrupt(0)
        alice = system.enroll("alice")
        contacted = []
        for i in range(3):
            system.upload(alice, b"shared data " * 16, b"f%d" % i)
            contacted.append(len(system.cluster.sems[0].transcript))
        assert contacted == [contacted[0]] * 3 and contacted[0] > 0
        assert all(system.audit(b"f%d" % i) for i in range(3))


class TestDynamicGroups:
    def test_enroll_and_revoke(self, system):
        alice = system.enroll("alice")
        system.upload(alice, b"pre-revocation data", b"f1")
        system.revoke("alice")
        with pytest.raises(RevokedMemberError):
            system.upload(alice, b"post-revocation data", b"f2")

    def test_signatures_survive_revocation(self, system):
        """The paper's instant-revocation property: stored data stays
        auditable with NO re-signing after membership changes."""
        alice = system.enroll("alice")
        system.upload(alice, b"alice's contribution", b"f1")
        stored_before = list(system.cloud.retrieve(b"f1").signatures)
        system.revoke("alice")
        assert system.audit(b"f1")
        assert list(system.cloud.retrieve(b"f1").signatures) == stored_before

    def test_new_member_joins_later(self, system):
        system.enroll("alice")
        carol = system.enroll("carol")
        system.upload(carol, b"carol data", b"fc")
        assert system.audit(b"fc")

    def test_double_enroll_rejected(self, system):
        system.enroll("alice")
        with pytest.raises(ValueError):
            system.enroll("alice")

    def test_revoke_unknown_member(self, system):
        with pytest.raises(KeyError):
            system.revoke("nobody")

    def test_unenrolled_owner_rejected(self, system, params_k4, rng):
        from repro.core.owner import DataOwner

        stranger = DataOwner(system.params, system.org_pk, rng=rng)
        with pytest.raises(UnknownMemberError):
            system.upload(stranger, b"data", b"f")

    def test_manager_state(self, system):
        system.enroll("alice")
        system.enroll("bob")
        assert system.manager.member_count == 2
        assert system.manager.is_enrolled("alice")
        system.revoke("alice")
        assert system.manager.member_count == 1
        assert not system.manager.is_enrolled("alice")

    def test_revocation_propagates_to_cluster(self, group, rng):
        system = SemPdpSystem.create(group, k=2, threshold=2, rng=rng)
        alice = system.enroll("alice")
        system.revoke("alice")
        with pytest.raises(RevokedMemberError):
            system.upload(alice, b"data", b"f")
