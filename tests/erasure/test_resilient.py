"""End-to-end tests for erasure-coded resilient storage."""

import pytest

from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.erasure import ResilientStore

PAYLOAD = b"erasure coded shared payload " * 8


@pytest.fixture()
def store(group, params_k4, rng):
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params_k4, sem.pk, rng=rng)
    cloud = CloudServer(params_k4, rng=rng)
    verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
    rs = ResilientStore(params_k4, owner, sem, cloud, verifier, parity=3, rng=rng)
    rs.store(PAYLOAD, b"f")
    return rs


class TestStoreAndAudit:
    def test_coded_blocks_count(self, store):
        stored = store.cloud.retrieve(b"f")
        assert stored.n_blocks == store._data_blocks[b"f"] + 3

    def test_clean_audit_passes(self, store):
        assert store.audit(b"f")

    def test_parity_blocks_audit_like_data_blocks(self, store, rng):
        """Verifiers cannot tell parity from data — same signatures, same
        equation (a nice anonymity-adjacent property of this integration)."""
        stored = store.cloud.retrieve(b"f")
        parity_start = store._data_blocks[b"f"]
        ch = store.verifier.generate_challenge(b"f", stored.n_blocks)
        assert store.verifier.verify(ch, store.cloud.generate_proof(b"f", ch))
        for position in range(parity_start, stored.n_blocks):
            ch = store._range_challenge(b"f", position, position + 1)
            assert store.verifier.verify(ch, store.cloud.generate_proof(b"f", ch))

    def test_retrieve_clean(self, store):
        assert store.retrieve(b"f") == PAYLOAD


class TestLocalization:
    def test_no_corruption_empty(self, store):
        assert store.locate_corruption(b"f") == []

    def test_locates_exact_positions(self, store):
        store.cloud.tamper_block(b"f", 1)
        store.cloud.tamper_block(b"f", 4)
        assert store.locate_corruption(b"f") == [1, 4]

    def test_sampled_audit_fails_then_localize(self, store):
        store.cloud.tamper_block(b"f", 0)
        assert not store.audit(b"f")  # cheap check trips
        assert store.locate_corruption(b"f") == [0]  # scrub pins it down


class TestBinarySplitSchedule:
    """`locate_corruption` is group testing, not a per-block scrub."""

    def _counting(self, store):
        counts = {"checks": 0, "challenged": 0}
        real = store.verifier.verify

        def verify(challenge, proof):
            counts["checks"] += 1
            counts["challenged"] += len(challenge)
            return real(challenge, proof)

        store.verifier.verify = verify
        return counts

    def test_clean_file_costs_one_aggregate_check(self, store):
        counts = self._counting(store)
        assert store.locate_corruption(b"f") == []
        assert counts["checks"] == 1  # one range check certifies the file

    def test_single_corruption_is_logarithmic(self, store):
        import math

        store.cloud.tamper_block(b"f", 4)
        n = store.cloud.retrieve(b"f").n_blocks
        counts = self._counting(store)
        assert store.locate_corruption(b"f") == [4]
        # Root + two children per level down one path: ~2·log2(n), and in
        # particular strictly fewer checks than the old n-challenge scrub.
        assert counts["checks"] <= 2 * math.ceil(math.log2(n)) + 1
        assert counts["checks"] < n

    def test_schedule_is_deterministic(self, group, params_k4):
        """Same seed → the exact same (range, size) visit sequence."""
        import random

        def run():
            rng = random.Random(0xC0FFEE)
            sem = SecurityMediator(group, rng=rng, require_membership=False)
            owner = DataOwner(params_k4, sem.pk, rng=rng)
            cloud = CloudServer(params_k4, rng=rng)
            verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
            rs = ResilientStore(params_k4, owner, sem, cloud, verifier,
                                parity=3, rng=rng)
            rs.store(PAYLOAD, b"f")
            cloud.tamper_block(b"f", 1)
            cloud.tamper_block(b"f", 6)
            visited = []
            real = verifier.verify

            def verify(challenge, proof):
                visited.append(challenge.indices)
                return real(challenge, proof)

            verifier.verify = verify
            assert rs.locate_corruption(b"f") == [1, 6]
            return visited

        assert run() == run()

    def test_localize_span_records_cost(self, group, params_k4, rng):
        from repro.obs import Observability

        obs = Observability.create()
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        cloud = CloudServer(params_k4, rng=rng)
        verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
        rs = ResilientStore(params_k4, owner, sem, cloud, verifier,
                            parity=3, rng=rng, obs=obs)
        rs.store(PAYLOAD, b"f")
        cloud.tamper_block(b"f", 2)
        rs.locate_corruption(b"f")
        (span,) = obs.tracer.find("repair.localize")
        assert span.attributes["corrupt"] == 1
        assert span.attributes["challenges"] >= 2
        assert span.attributes["blocks"] == cloud.retrieve(b"f").n_blocks


class TestRepair:
    def test_repair_within_parity_budget(self, store):
        for position in (0, 2, 5):
            store.cloud.tamper_block(b"f", position)
        report = store.repair(b"f")
        assert report.repaired
        assert report.corrupt_positions == (0, 2, 5)
        assert report.resigned_blocks == 3
        assert store.audit(b"f")
        assert store.retrieve(b"f") == PAYLOAD

    def test_repaired_blocks_have_valid_signatures(self, store):
        store.cloud.tamper_block(b"f", 1)
        store.repair(b"f")
        assert store.locate_corruption(b"f") == []

    def test_repair_beyond_budget_fails_gracefully(self, store):
        stored = store.cloud.retrieve(b"f")
        n = stored.n_blocks
        victims = list(range(4))  # parity = 3: one too many
        for position in victims:
            store.cloud.tamper_block(b"f", position)
        report = store.repair(b"f")
        assert not report.repaired
        assert len(report.corrupt_positions) == 4

    def test_repair_noop_when_clean(self, store):
        report = store.repair(b"f")
        assert report.repaired and report.resigned_blocks == 0

    def test_retrieve_through_corruption_without_repair(self, store):
        store.cloud.tamper_block(b"f", 2)
        assert store.retrieve(b"f") == PAYLOAD

    def test_signature_tampering_also_located_and_repaired(self, store):
        store.cloud.tamper_signature(b"f", 3)
        assert store.locate_corruption(b"f") == [3]
        report = store.repair(b"f")
        assert report.repaired
        assert store.audit(b"f")
