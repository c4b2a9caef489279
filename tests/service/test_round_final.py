"""A signing round's result is final: no driver checks it a second time.

A :class:`~repro.service.failover.SigningRound` combines its first t share
batches (Eq. 11–12) and checks the result once against the round key
(Eq. 7: 2 pairings for any t), so the three drivers of the round — :class:`FailoverMultiSEMClient`,
:class:`SEMServiceNode` and :class:`OwnerNode` — unblind the combined
result with no owner-side Eq. 7, and fail closed, before anything is
signed, when the round signs for a key other than the owner's.  A plain
:class:`SecurityMediator` is unchecked and still pays Eq. 7.
"""

import random

import pytest

from repro.core.accounting import CostTracker
from repro.core.blocks import aggregate_block, encode_data
from repro.core.multi_sem import SEMCluster
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.crypto import blind_bls
from repro.crypto.blind_bls import BlindSignatureError
from repro.crypto.bls import bls_verify_element
from repro.net import build_protocol_network
from repro.net.actors import OwnerNode
from repro.net.simulator import Simulator
from repro.obs.ledger import Ledger
from repro.service import BatchConfig, build_service_network
from repro.service.api import SignRequest, next_request_id
from repro.service.failover import FailoverMultiSEMClient
from repro.service.pipeline import SigningPipeline
from repro.service.simnodes import SEMServiceNode, add_sem_group

DATA = bytes(range(1, 200))


@pytest.fixture()
def owner_checks(monkeypatch):
    """Count every owner-side Eq. 7 and Eq. 4 while still running them."""
    calls = {"eq7": 0, "eq4": 0}

    def counting(name, check):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return wrapped

    for module in ("repro.core.owner", "repro.service.pipeline"):
        monkeypatch.setattr(f"{module}.batch_unblind_verify",
                            counting("eq7", blind_bls.batch_unblind_verify))
        monkeypatch.setattr(f"{module}.verify_blinded",
                            counting("eq4", blind_bls.verify_blinded))
    return calls


def _cluster(group, seed=1, t=2, w=3):
    return SEMCluster(group, t=t, w=w, rng=random.Random(seed), require_membership=False)


def _blocks(params, n=2, file_id=b"f"):
    return encode_data(DATA, params, file_id)[:n]


def _assert_signed(params, pk, blocks, signatures):
    assert len(signatures) == len(blocks)
    for block, sigma in zip(blocks, signatures):
        assert bls_verify_element(params.group, pk, aggregate_block(params, block), sigma)


class TestClaimedPathCounts:
    """Exact pairings on each driver's happy path, and no owner-side Eq. 7."""

    def test_cluster_sign_blocks_pays_only_eq14(self, params_k4, group, owner_checks):
        cluster = _cluster(group)
        client = FailoverMultiSEMClient.from_cluster(cluster, rng=random.Random(2))
        owner = DataOwner(params_k4, cluster.master_pk, rng=random.Random(3))
        blocks = _blocks(params_k4)
        with CostTracker(group) as tracker:
            signatures = owner.sign_blocks(client, blocks, rng=random.Random(4))
        assert tracker.pairings == 2  # t = 2 SEMs, one check of their combination
        assert owner_checks == {"eq7": 0, "eq4": 0}
        _assert_signed(params_k4, cluster.master_pk, blocks, signatures)

    def test_cluster_pipeline_pays_only_eq14(self, params_k4, group, owner_checks):
        cluster = _cluster(group)
        client = FailoverMultiSEMClient.from_cluster(cluster, rng=random.Random(2))
        pipeline = SigningPipeline(params_k4, client, cluster.master_pk,
                                   rng=random.Random(3))
        blocks = tuple(_blocks(params_k4))
        request = SignRequest(request_id=next_request_id(), owner="alice", blocks=blocks)
        with CostTracker(group) as tracker:
            (result,) = pipeline.sign_batch([request])
        assert result.ok
        assert tracker.pairings == 2
        assert owner_checks == {"eq7": 0, "eq4": 0}
        _assert_signed(params_k4, cluster.master_pk, blocks, result.signatures)

    @pytest.mark.parametrize("threshold, pairings", [(None, 2), (2, 2)])
    def test_service_node_flush(self, params_k4, group, owner_checks, threshold, pairings):
        sim, service, (client,) = build_service_network(
            params_k4, threshold=threshold, n_clients=1, rng=random.Random(5),
            batch_config=BatchConfig(max_batch=1, max_wait_s=0.01))
        with CostTracker(group) as tracker:
            sim.send(client.request_for_data(DATA, b"f"))
            sim.run()
        (request_id,) = client.completed
        assert tracker.pairings == pairings
        assert owner_checks == {"eq7": 0, "eq4": 0}
        _assert_signed(params_k4, service._pipeline.org_pk, encode_data(DATA, params_k4, b"f"),
                       client.responses[request_id].signatures)

    @pytest.mark.parametrize("threshold, pairings", [(None, 2), (2, 2)])
    def test_owner_node_upload(self, params_k4, group, owner_checks, threshold, pairings):
        sim, owner, verifier = build_protocol_network(params_k4, threshold=threshold,
                                                      rng=random.Random(6))
        with CostTracker(group) as tracker:
            for message in owner.start_upload(DATA, b"f"):
                sim.send(message)
            sim.run()
        assert owner.completed_uploads == [b"f"]
        assert tracker.pairings == pairings
        assert owner_checks == {"eq7": 0, "eq4": 0}
        stored = sim.nodes["cloud"].server.retrieve(b"f")
        _assert_signed(params_k4, verifier.verifier.org_pk, stored.blocks, stored.signatures)


class _Forger:
    """A transport that alters one blind signature of every reply."""

    def __init__(self, sem, index=0):
        self.sem = sem
        self.index = index

    def sign_blinded_batch(self, blinded, credential=None):
        signatures = self.sem.sign_blinded_batch(blinded, credential)
        signatures[self.index] = signatures[self.index] * self.sem.group.g1()
        return signatures


class TestUncheckedSigner:
    """A plain SecurityMediator's replies are checked by the owner."""

    def test_single_sem_still_pays_eq7(self, params_k4, group, owner_checks):
        sem = SecurityMediator(group, rng=random.Random(1), require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=random.Random(2))
        blocks = _blocks(params_k4)
        with CostTracker(group) as tracker:
            signatures = owner.sign_blocks(sem, blocks, rng=random.Random(3))
        assert tracker.pairings == 2
        assert owner_checks == {"eq7": 1, "eq4": 0}
        _assert_signed(params_k4, sem.pk, blocks, signatures)

    @pytest.mark.parametrize("batch", [True, False], ids=["eq7", "eq4"])
    def test_forged_reply_raises(self, params_k4, group, batch):
        sem = SecurityMediator(group, rng=random.Random(1), require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=random.Random(2))
        with pytest.raises(BlindSignatureError):
            owner.sign_blocks(_Forger(sem, index=1), _blocks(params_k4), rng=random.Random(3),
                              batch=batch)

    def test_pipeline_isolates_the_forged_item(self, params_k4, group, owner_checks):
        sem = SecurityMediator(group, rng=random.Random(1), require_membership=False)
        pipeline = SigningPipeline(params_k4, _Forger(sem, index=2), sem.pk,
                                   rng=random.Random(2))
        blocks = _blocks(params_k4, n=4)
        requests = [SignRequest(request_id=next_request_id(), owner="alice",
                                blocks=tuple(blocks[i:i + 2])) for i in (0, 2)]
        first, second = pipeline.sign_batch(requests)
        assert first.ok and not second.ok
        assert owner_checks["eq7"] == 1 and owner_checks["eq4"] == 4
        _assert_signed(params_k4, sem.pk, blocks[:2], first.signatures)


class TestKeyMismatchFailsClosed:
    """A round whose endpoints sign for another key raises before any
    signature is returned, on every driver."""

    def test_client_from_another_cluster(self, params_k4, group):
        cluster, other = _cluster(group, seed=1), _cluster(group, seed=2)
        client = FailoverMultiSEMClient.from_cluster(cluster, rng=random.Random(3))
        owner = DataOwner(params_k4, other.master_pk, rng=random.Random(4))
        with pytest.raises(BlindSignatureError):
            owner.sign_blocks(client, _blocks(params_k4), rng=random.Random(5))
        with pytest.raises(BlindSignatureError):
            SigningPipeline(params_k4, client, other.master_pk)
        assert all(not sem.transcript for sem in cluster.sems)  # nothing was signed

    def test_client_over_bare_endpoints_derives_its_key(self, params_k4, group):
        cluster, other = _cluster(group, seed=1), _cluster(group, seed=2)
        client = FailoverMultiSEMClient(group, cluster.endpoints(), cluster.t)
        assert client.verified_pk == cluster.master_pk
        owner = DataOwner(params_k4, other.master_pk, rng=random.Random(4))
        with pytest.raises(BlindSignatureError):
            owner.sign_blocks(client, _blocks(params_k4), rng=random.Random(5))
        assert all(not sem.transcript for sem in cluster.sems)

    @pytest.mark.parametrize("t, w", [(1, 1), (2, 3)])
    def test_service_node(self, params_k4, group, t, w):
        rng = random.Random(7)
        endpoints, _ = add_sem_group(Simulator(), group, [f"sem-{j}" for j in range(w)], t, rng)
        other_pk = group.g1() ** group.random_nonzero_scalar(rng)
        with pytest.raises(BlindSignatureError):
            SEMServiceNode("service", params_k4, endpoints, t, other_pk)

    @pytest.mark.parametrize("t, w", [(1, 1), (2, 3)])
    def test_owner_node(self, params_k4, group, t, w):
        rng = random.Random(8)
        endpoints, _ = add_sem_group(Simulator(), group, [f"sem-{j}" for j in range(w)], t, rng)
        other_pk = group.g1() ** group.random_nonzero_scalar(rng)
        with pytest.raises(BlindSignatureError):
            OwnerNode("owner", params_k4, other_pk, endpoints, threshold=t)


class TestByzantineOutvoted:
    """One byzantine SEM of w = 3 is outvoted, named, and quarantined."""

    def test_client(self, params_k4, group):
        cluster = _cluster(group)
        cluster.corrupt(0)
        client = FailoverMultiSEMClient.from_cluster(cluster, rng=random.Random(2))
        owner = DataOwner(params_k4, cluster.master_pk, rng=random.Random(3))
        blocks = _blocks(params_k4)
        _assert_signed(params_k4, cluster.master_pk, blocks,
                       owner.sign_blocks(client, blocks, rng=random.Random(4)))
        assert client.stats.invalid_endpoints == 1
        assert client.health.records[0].invalid_total == 1
        assert client.health.is_quarantined(0)
        assert not client.health.is_quarantined(1) and not client.health.is_quarantined(2)

    def test_service_node(self, params_k4, group):
        ledger = Ledger()
        sim, service, (client,) = build_service_network(
            params_k4, threshold=2, n_clients=1, rng=random.Random(9), ledger=ledger,
            batch_config=BatchConfig(max_batch=1, max_wait_s=0.01))
        sim.nodes["sem-0"].fail_mode = "byzantine"
        sim.send(client.request_for_data(DATA, b"f"))
        sim.run()
        (request_id,) = client.completed
        _assert_signed(params_k4, service._pipeline.org_pk, encode_data(DATA, params_k4, b"f"),
                       client.responses[request_id].signatures)
        named = {(e["kind"], e["body"]["endpoint"]) for e in ledger.entries
                 if e["kind"] in ("share_invalid", "quarantine")}
        assert named == {("share_invalid", "sem-0"), ("quarantine", "sem-0")}
        assert service.health.is_quarantined(0)
