"""Operation-count accounting: measured Exp/Pair tallies versus the
closed-form expressions behind Table I."""

import pytest

from repro.core.accounting import CostTracker
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.obs.exporters import model_equivalent_exp


class TestSigningCounts:
    def test_basic_scheme_pairings(self, group, params_k4, rng):
        """Per-signature Eq. 4 verification costs 2 pairings per block."""
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        data = b"count my operations " * 5
        with CostTracker(group) as tracker:
            signed = owner.sign_file(data, b"f", sem, batch=False)
        n = len(signed.blocks)
        assert tracker.pairings == 2 * n

    def test_optimized_scheme_two_pairings_total(self, group, params_k4, rng):
        """Eq. 7 batch verification: 2 pairings regardless of n."""
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        with CostTracker(group) as tracker:
            owner.sign_file(b"count my operations " * 5, b"f", sem, batch=True)
        assert tracker.pairings == 2

    def test_basic_exp_counts_match_formula(self, group, params_k4, rng):
        """n(k+3) model-equivalent Exp_G1 (zero elements the aggregate
        skips count too); the full-cost ones are only the SEM's Eq. 3,
        because the owner aggregates, blinds and unblinds through tables."""
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        data = bytes(range(1, 250))
        with CostTracker(group) as tracker:
            signed = owner.sign_file(data, b"f", sem, batch=False)
        n = len(signed.blocks)
        # Bind: k u-exps + 1 blinding exp; Sign: 1; Unblind: 1 — per block.
        assert model_equivalent_exp(tracker.counter.snapshot()) == n * (params_k4.k + 3)
        assert tracker.exp_g1 == n

    def test_optimized_exp_counts_within_formula(self, group, params_k4, rng):
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        data = bytes(range(1, 250))
        with CostTracker(group) as tracker:
            signed = owner.sign_file(data, b"f", sem, batch=True)
        n = len(signed.blocks)
        # Bind + Sign + batch(2n) + recover(n): <= n(k+5).
        assert tracker.exp_g1 <= n * (params_k4.k + 5)
        assert tracker.pairings == 2

    def test_multi_sem_optimized_pairings(self, group, params_k4, rng):
        """Eq. 14 budget: t + 1 pairings for share verification plus the
        final Eq. 7 batch check (2 more)."""
        from repro.core.multi_sem import MultiSEMClient, SEMCluster

        t = 3
        cluster = SEMCluster(group, t=t, rng=rng, require_membership=False)
        client = MultiSEMClient(cluster, batch=True, rng=rng)
        owner = DataOwner(params_k4, cluster.master_pk, rng=rng)
        with CostTracker(group) as tracker:
            owner.sign_file(b"multi sem counting " * 4, b"f", client)
        # t per-SEM batch checks (2 pairings each, incremental validation)
        # + final Eq. 7 check (2): bounded by 2(t + 1).
        assert tracker.pairings <= 2 * (t + 1)


class TestVerificationCounts:
    def test_verification_two_pairings(self, group, params_k4, rng):
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        cloud = CloudServer(params_k4, rng=rng)
        verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
        cloud.store(owner.sign_file(b"data " * 30, b"f", sem))
        n = cloud.retrieve(b"f").n_blocks
        ch = verifier.generate_challenge(b"f", n)
        proof = cloud.generate_proof(b"f", ch)
        with CostTracker(group) as tracker:
            assert verifier.verify(ch, proof)
        assert tracker.pairings == 2
        # (c + k) exponentiations (zero alphas skipped).
        assert tracker.exp_g1 <= n + params_k4.k

    def test_response_exponentiations(self, group, params_k4, rng):
        """The cloud's Response: one exponentiation per challenged block."""
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        cloud = CloudServer(params_k4, rng=rng)
        verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
        cloud.store(owner.sign_file(b"data " * 30, b"f", sem))
        c = 4
        ch = verifier.generate_challenge(b"f", cloud.retrieve(b"f").n_blocks, sample_size=c)
        with CostTracker(group) as tracker:
            cloud.generate_proof(b"f", ch)
        assert tracker.exp_g1 == c


class TestCostTracker:
    def test_nesting_restores_previous_counter(self, group):
        outer = CostTracker(group)
        with outer:
            _ = group.g1() ** 2
            with CostTracker(group) as inner:
                _ = group.g1() ** 2
            _ = group.g1() ** 2
        assert inner.exp_g1 == 1
        assert outer.exp_g1 == 2  # inner ops not double-counted

    def test_elapsed_time_positive(self, group):
        with CostTracker(group) as t:
            _ = group.g1() ** 12345
        assert t.elapsed_seconds > 0

    def test_record_bytes(self, group):
        t = CostTracker(group)
        t.record_bytes("owner->sem", 100)
        t.record_bytes("owner->sem", 50)
        assert t.bytes_sent == {"owner->sem": 150}

    def test_summary_shape(self, group):
        with CostTracker(group) as t:
            pass
        summary = t.summary()
        assert {"exp_g1", "pairings", "elapsed_seconds", "bytes_sent"} <= set(summary)
