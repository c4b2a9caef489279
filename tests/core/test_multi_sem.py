"""Tests for the multi-SEM deployment (Section V): failover, byzantine
tolerance, and equality with the single-SEM signatures."""

import pytest

from repro.core.blocks import aggregate_block
from repro.core.multi_sem import InsufficientSharesError, SEMCluster
from repro.core.owner import DataOwner
from repro.crypto.bls import bls_verify_element
from repro.service.failover import FailoverMultiSEMClient


@pytest.fixture()
def cluster(group, rng):
    return SEMCluster(group, t=3, rng=rng, require_membership=False)  # w = 5


class TestClusterSetup:
    def test_w_default_is_2t_minus_1(self, cluster):
        assert cluster.w == 5
        assert len(cluster.sems) == 5

    def test_explicit_w(self, group, rng):
        c = SEMCluster(group, t=2, w=4, rng=rng)
        assert c.w == 4

    def test_bad_threshold(self, group, rng):
        with pytest.raises(ValueError):
            SEMCluster(group, t=3, w=2, rng=rng)

    def test_sems_hold_share_keys(self, cluster, group):
        for sem, share_pk in zip(cluster.sems, cluster.key_shares.share_pks):
            assert sem.pk == share_pk

    def test_master_pk_not_any_share_pk(self, cluster):
        assert cluster.master_pk not in cluster.key_shares.share_pks


class TestSigning:
    def _sign(self, params, cluster, rng, batch=True, data=b"multi-sem data " * 5):
        client = FailoverMultiSEMClient.from_cluster(cluster, batch_verify=batch, rng=rng)
        owner = DataOwner(params, cluster.master_pk, rng=rng)
        return owner.sign_file(data, b"f", client)

    def test_signatures_verify_under_master_key(self, params_k4, cluster, rng):
        signed = self._sign(params_k4, cluster, rng)
        for block, sig in zip(signed.blocks, signed.signatures):
            assert bls_verify_element(
                params_k4.group, cluster.master_pk, aggregate_block(params_k4, block), sig
            )

    def test_identical_to_single_sem_signatures(self, params_k4, group, rng):
        """Section V: the final signature is the same in either mode."""
        from repro.core.sem import SecurityMediator
        from repro.crypto.shamir import recover_secret

        cluster = SEMCluster(group, t=2, rng=rng, require_membership=False)
        master_sk = recover_secret(cluster.key_shares.shares[:2], group.order)
        single = SecurityMediator(group, sk=master_sk, rng=rng, require_membership=False)
        data = b"same data either way"
        owner1 = DataOwner(params_k4, cluster.master_pk, rng=rng)
        multi_signed = owner1.sign_file(
            data, b"f", FailoverMultiSEMClient.from_cluster(cluster, rng=rng))
        owner2 = DataOwner(params_k4, single.pk, rng=rng)
        single_signed = owner2.sign_file(data, b"f", single)
        assert multi_signed.signatures == single_signed.signatures

    def test_per_share_verification_mode(self, params_k4, cluster, rng):
        signed = self._sign(params_k4, cluster, rng, batch=False)
        assert len(signed.signatures) == len(signed.blocks)

    def test_tolerates_t_minus_1_crashes(self, params_k4, cluster, rng):
        cluster.crash(0)
        cluster.crash(1)
        signed = self._sign(params_k4, cluster, rng)
        for block, sig in zip(signed.blocks, signed.signatures):
            assert bls_verify_element(
                params_k4.group, cluster.master_pk, aggregate_block(params_k4, block), sig
            )

    def test_tolerates_byzantine_sems(self, params_k4, cluster, rng):
        cluster.corrupt(0)
        cluster.corrupt(1)
        signed = self._sign(params_k4, cluster, rng)
        assert bls_verify_element(
            params_k4.group,
            cluster.master_pk,
            aggregate_block(params_k4, signed.blocks[0]),
            signed.signatures[0],
        )

    def test_mixed_crash_and_byzantine(self, params_k4, cluster, rng):
        cluster.crash(2)
        cluster.corrupt(4)
        signed = self._sign(params_k4, cluster, rng)
        assert len(signed.signatures) == len(signed.blocks)

    def test_too_many_failures_raise(self, params_k4, cluster, rng):
        for j in range(3):  # t = 3: only 2 healthy SEMs remain
            cluster.crash(j)
        with pytest.raises(InsufficientSharesError):
            self._sign(params_k4, cluster, rng)

    def test_byzantine_majority_detected_not_accepted(self, params_k4, cluster, rng):
        for j in range(3):
            cluster.corrupt(j)
        with pytest.raises(InsufficientSharesError):
            self._sign(params_k4, cluster, rng)

    def test_heal_restores_service(self, params_k4, cluster, rng):
        for j in range(3):
            cluster.crash(j)
        cluster.heal(0)
        signed = self._sign(params_k4, cluster, rng)
        assert signed.signatures


class TestMembershipPropagation:
    def test_member_added_to_all_sems(self, cluster, rng):
        from repro.core.group_mgmt import MemberCredential

        credential = MemberCredential.fresh(rng)
        cluster.add_member(credential)
        assert all(sem.serves(credential) for sem in cluster.sems)

    def test_member_removed_from_all_sems(self, cluster, rng):
        from repro.core.group_mgmt import MemberCredential

        credential = MemberCredential.fresh(rng)
        cluster.add_member(credential)
        cluster.remove_member(credential)
        assert not any(sem.serves(credential) for sem in cluster.sems)
