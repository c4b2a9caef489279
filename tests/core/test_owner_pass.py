"""The owner-side signing pass (:meth:`DataOwner.sign_blocks`).

Every signing caller — ``sign_file``, the dynamic store, the resilient
store, the fleet, and the multi-owner builder — runs the same pass:
Blind (Eq. 2) → one SEM batch (Eq. 3) → Eq. 7 → Unblind (Eq. 5); the
batching service's pipeline and the simulator's owner node run its blind
and unblind steps.  Every owner aggregates, blinds and unblinds through
u/g/pk fixed-base tables, so the only scalar multiplications left are
the SEM's; the paper's plain algorithms are the reference they match.
"""

import random

import pytest

from repro.core import SemPdpSystem
from repro.core.blocks import Block, aggregate_block, make_block_id
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.shared_file import Contribution, SharedFileBuilder
from repro.core.verifier import PublicVerifier
from repro.crypto.blind_bls import POWERS_CHUNK, BlindSignatureError
from repro.crypto.bls import bls_verify, bls_verify_element
from repro.dynamic import DynamicFileError, DynamicStore, UpdateOp
from repro.dynamic.store import dyn_root_message
from repro.erasure import ResilientStore
from repro.erasure.fleet import build_demo_fleet
from repro.net import build_protocol_network
from repro.obs.exporters import model_equivalent_exp
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter
from repro.service.api import SignRequest, next_request_id
from repro.service.pipeline import SigningPipeline

PAYLOAD = b"one owner-side signing pass " * 12


def _sem(group, seed=1):
    return SecurityMediator(group, rng=random.Random(seed), require_membership=False)


def _owner(params, sem, seed=2):
    return DataOwner(params, sem.pk, rng=random.Random(seed))


def _blocks(params, n, file_id=b"f"):
    rng = random.Random(n)
    return [Block(block_id=make_block_id(file_id, i),
                  elements=tuple(rng.randrange(params.order) for _ in range(params.k)))
            for i in range(n)]


def _points(signatures):
    return [s.point for s in signatures]


def _reference(params, sem, blocks):
    """The paper's plain signatures σ = (H(id)·∏u^m)^y: no tables, no blinding."""
    return [(aggregate_block(params, block) ** sem._sk).point for block in blocks]


# -- every signer, at t = 1 -------------------------------------------------
# Each builds its signer (tables, keys) and returns (group, sign, messages
# the SEM signed): only ``sign`` runs under the counter.

def _sign_file(params, sem):
    owner = _owner(params, sem)
    return params.group, lambda: owner.sign_file(PAYLOAD, b"f", sem), sem.transcript


def _dynamic_store(params, sem):
    store = DynamicStore(params, sem, _owner(params, sem))

    def sign():
        store.create(b"d", [b"chunk-%d" % i for i in range(6)])
        store.update(b"d", [UpdateOp("modify", 1, b"edit"), UpdateOp("append", payload=b"tail")])
    return params.group, sign, sem.transcript


def _resilient_store(params, sem):
    store = ResilientStore(params, _owner(params, sem), sem, CloudServer(params),
                           PublicVerifier(params, sem.pk, rng=random.Random(3)),
                           parity=2, rng=random.Random(4))
    return params.group, lambda: store.store(PAYLOAD, b"r"), sem.transcript


def _fleet(params, sem):
    fleet = build_demo_fleet(servers=4, parity=2, spares=0, seed=5)
    return fleet.params.group, lambda: fleet.store(PAYLOAD, b"fleet"), fleet.sem.transcript


def _shared_file_builder(params, sem):
    builder = SharedFileBuilder(params, b"s", sem)
    contributions = [Contribution(_owner(params, sem, seed), payload)
                     for seed, payload in ((7, b"alice " * 20), (8, b"bob " * 30))]

    def sign():
        for contribution in contributions:
            builder.append(contribution)
        builder.build()
    return params.group, sign, sem.transcript


def _pipeline(params, sem):
    pipeline = SigningPipeline(params, sem, sem.pk, rng=random.Random(6))
    request = SignRequest(request_id=next_request_id(), owner="alice",
                          blocks=tuple(_blocks(params, 5)))
    return params.group, lambda: pipeline.sign_batch([request]), sem.transcript


def _uncounted(group, method):
    def run(*args):
        counter, group.counter = group.counter, None
        try:
            return method(*args)
        finally:
            group.counter = counter
    return run


def _owner_node(params, sem):
    sim, owner, _ = build_protocol_network(params, threshold=1, rng=random.Random(6))
    signed = []

    def sign():
        messages = owner.start_upload(PAYLOAD, b"n")
        # The round's Eq. 14 check and Lagrange step are the signing
        # round's cost, not the owner's: leave them out of the count.
        round_ = owner._pending.round
        round_.on_response = _uncounted(params.group, round_.on_response)
        for message in messages:
            sim.send(message)
        sim.run()
        assert owner.completed_uploads == [b"n"]
        signed.extend(sim.nodes["cloud"].server.retrieve(b"n").signatures)
    return params.group, sign, signed  # t = 1: one SEM, one message per signature


SIGNERS = {
    "sign_file": _sign_file,
    "dynamic_store": _dynamic_store,
    "resilient_store": _resilient_store,
    "fleet": _fleet,
    "shared_file_builder": _shared_file_builder,
    "pipeline": _pipeline,
    "owner_node": _owner_node,
}


class TestFixedBaseOwnerCost:
    def test_only_the_sem_exponentiates(self, params_k4):
        """Every signer aggregates, blinds and unblinds through its
        owner's tables, so each full-cost Exp is the SEM's Eq. 3."""
        exps, signed = {}, {}
        for name, make in SIGNERS.items():
            group, sign, messages = make(params_k4, _sem(params_k4.group))
            counter = OperationCounter()
            group.attach_counter(counter)
            try:
                sign()
            finally:
                group.detach_counter()
            exps[name], signed[name] = counter.exp_g1, len(messages)
        assert all(signed.values())
        assert exps == signed

    def test_model_exp_counts_blinding_and_unblinding(self, group, params_k4):
        sem = _sem(group)
        owner = _owner(params_k4, sem)
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            signed = owner.sign_file(PAYLOAD, b"f", sem)
        finally:
            group.detach_counter()
        n = len(signed.blocks)
        ops = counter.snapshot()
        # Aggregation's k, blinding's and unblinding's 1 each come from
        # tables; Eq. 7 is 2n MSM terms.
        assert ops["exp_g1"] == n
        assert ops["exp_g1_fixed_base"] + ops["exp_g1_skipped"] == n * (params_k4.k + 2)
        assert model_equivalent_exp(ops) == n * (params_k4.k + 5)
        assert ops["pairings"] == 2


class TestSameSignaturesWithAndWithoutTables:
    """Each table-backed signer stores exactly the paper's σ = M^y."""

    def test_sign_file(self, group, params_k4):
        sem = _sem(group)
        signed = _owner(params_k4, sem).sign_file(PAYLOAD, b"f", sem)
        assert _points(signed.signatures) == _reference(params_k4, sem, signed.blocks)

    def test_sign_file_per_signature_checks(self, group, params_k4):
        sem = _sem(group)
        signed = _owner(params_k4, sem).sign_file(PAYLOAD, b"f", sem, batch=False)
        assert _points(signed.signatures) == _reference(params_k4, sem, signed.blocks)

    def test_dynamic_store(self, group, params_k4):
        sem = _sem(group)
        store = DynamicStore(params_k4, sem, _owner(params_k4, sem))
        store.create(b"d", [b"chunk-%d" % i for i in range(6)])
        store.update(b"d", [UpdateOp("modify", 1, b"edit"),
                            UpdateOp("append", payload=b"tail")])
        state = store.file_state(b"d")
        serials = sorted(state.signatures)
        assert _points(state.signatures[s] for s in serials) == _reference(
            params_k4, sem, [state.blocks[s] for s in serials])
        root_msg = dyn_root_message(b"d", state.epoch, state.count, state.root)
        assert bls_verify(group, sem.pk, root_msg, state.root_signature)

    def test_resilient_store(self, group, params_k4):
        sem = _sem(group)
        cloud = CloudServer(params_k4)
        verifier = PublicVerifier(params_k4, sem.pk, rng=random.Random(3))
        store = ResilientStore(params_k4, _owner(params_k4, sem), sem, cloud,
                               verifier, parity=2, rng=random.Random(4))
        store.store(PAYLOAD, b"r")
        stored = cloud.retrieve(b"r")
        assert _points(stored.signatures) == _reference(params_k4, sem, stored.blocks)

    def test_fleet(self):
        fleet = build_demo_fleet(servers=4, parity=2, spares=0, seed=5)
        placement = fleet.store(PAYLOAD, b"fleet")
        for slot, name in enumerate(placement.servers):
            stored = fleet.handles[name].server.retrieve(placement.slice_id(slot))
            assert _points(stored.signatures) == _reference(
                fleet.params, fleet.sem, stored.blocks)

    def test_shared_file_builder(self, group, params_k4):
        sem = _sem(group)
        builder = SharedFileBuilder(params_k4, b"s", sem)
        for seed, payload in ((7, b"alice " * 20), (8, b"bob " * 30)):
            builder.append(Contribution(_owner(params_k4, sem, seed), payload))
        built = builder.build()
        assert _points(built.signatures) == _reference(params_k4, sem, built.blocks)


class TestChunkedPass:
    def test_pass_across_chunk_boundaries_equals_signing_each_block(self, group, params_k4):
        sem = _sem(group)
        owner = _owner(params_k4, sem)
        blocks = _blocks(params_k4, 70)
        assert len(blocks) > 2 * POWERS_CHUNK
        together = owner.sign_blocks(sem, blocks, rng=random.Random(9))
        alone = [owner.sign_blocks(sem, [b], rng=random.Random(9))[0] for b in blocks]
        assert _points(together) == _points(alone)
        for block, signature in zip(blocks, together):
            assert bls_verify_element(group, sem.pk,
                                      aggregate_block(params_k4, block), signature)

    def test_extra_messages_are_signed_after_the_blocks(self, group, params_k4):
        sem = _sem(group)
        owner = _owner(params_k4, sem)
        extra = group.hash_to_g1(b"root message")
        *block_sigs, extra_sig = owner.sign_blocks(
            sem, _blocks(params_k4, 3), rng=random.Random(9), extra=[extra])
        assert len(block_sigs) == 3
        assert bls_verify_element(group, sem.pk, extra, extra_sig)


class TestFailClosed:
    def test_use_fixed_base_false_raises_before_building_tables(self, group, params_k4,
                                                                 monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr("repro.core.owner.FixedBaseTable", no_tables)
        with pytest.raises(ValueError, match="use_fixed_base"):
            DataOwner(params_k4, _sem(group).pk, use_fixed_base=False)

    def test_mismatched_sem_pk_g1_raises_before_signing(self, group, params_k4):
        sem = _sem(group)
        owner = _owner(params_k4, sem)
        other = _sem(group, seed=99)
        with pytest.raises(ValueError):
            owner.sign_file(PAYLOAD, b"f", sem, sem_pk_g1=other.pk_g1)
        assert sem.transcript == []

    def test_matching_sem_pk_g1_signs_as_without_it(self, group, params_k4):
        sem = _sem(group)
        signed = [_owner(params_k4, sem).sign_file(PAYLOAD, b"f", sem, **kwargs)
                  for kwargs in ({}, {"sem_pk_g1": sem.pk_g1})]
        assert _points(signed[0].signatures) == _points(signed[1].signatures)

    def test_sem_pk_g1_is_the_one_key(self, group):
        sem = _sem(group)
        assert sem.pk_g1 is sem.pk
        assert sem.pk_g1 == group.g1() ** sem._sk
        with pytest.raises(AttributeError):
            sem.pk_g1 = group.g1()

    def test_short_reply_raises(self, group, params_k4):
        sem = _sem(group)

        class ShortSEM:
            def sign_blinded_batch(self, blinded, credential):
                return sem.sign_blinded_batch(blinded[:-1], credential)

        owner = _owner(params_k4, sem)
        with pytest.raises(BlindSignatureError):
            owner.sign_blocks(ShortSEM(), _blocks(params_k4, 4), rng=None)


class TestByzantineSEM:
    def test_sign_file(self, group, params_k4):
        sem = _sem(group)
        sem.fail_mode = "byzantine"
        owner = _owner(params_k4, sem)
        for batch in (True, False):
            with pytest.raises(ValueError):
                owner.sign_file(PAYLOAD, b"f", sem, batch=batch)
        assert owner.stats.blocks == 0

    def test_dynamic_store(self, group, params_k4):
        sem = _sem(group)
        store = DynamicStore(params_k4, sem, _owner(params_k4, sem))
        store.create(b"d", [b"chunk-%d" % i for i in range(4)])
        state = store.file_state(b"d")
        before = (state.epoch, list(state.slots), dict(state.signatures),
                  state.root_signature)
        sem.fail_mode = "byzantine"
        with pytest.raises(DynamicFileError):
            store.update(b"d", [UpdateOp("modify", 0, b"edit")])
        with pytest.raises(DynamicFileError):
            store.create(b"e", [b"x"])
        assert (state.epoch, state.slots, state.signatures,
                state.root_signature) == before
        with pytest.raises(DynamicFileError):
            store.file_state(b"e")

    def test_resilient_store(self, group, params_k4):
        sem = _sem(group)
        sem.fail_mode = "byzantine"
        cloud = CloudServer(params_k4)
        store = ResilientStore(params_k4, _owner(params_k4, sem), sem,
                               cloud, PublicVerifier(params_k4, sem.pk), parity=2)
        with pytest.raises(ValueError):
            store.store(PAYLOAD, b"r")
        assert not cloud.has_file(b"r")

    def test_fleet(self):
        fleet = build_demo_fleet(servers=4, parity=2, spares=0, seed=5)
        fleet.owner = DataOwner(fleet.params, fleet.owner.sem_pk, rng=random.Random(6))
        fleet.sem.fail_mode = "byzantine"
        with pytest.raises(ValueError):
            fleet.store(PAYLOAD, b"fleet")
        assert b"fleet" not in fleet.placements
        assert all(h.server.stored_files == 0 for h in fleet.handles.values())

    def test_shared_file_builder(self, group, params_k4):
        sem = _sem(group)
        builder = SharedFileBuilder(params_k4, b"s", sem)
        builder.append(Contribution(_owner(params_k4, sem), b"alice " * 10))
        n_blocks = builder.n_blocks
        sem.fail_mode = "byzantine"
        with pytest.raises(ValueError):
            builder.append(Contribution(_owner(params_k4, sem, 3), b"bob " * 10))
        assert builder.n_blocks == n_blocks


def _pooled_upload_ops(workers):
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    counter = OperationCounter()
    group.attach_counter(counter)
    with SemPdpSystem.create(group, k=4, rng=random.Random(11),
                             workers=workers) as system:
        owner = system.enroll("alice")
        before = counter.snapshot()
        system.upload(owner, PAYLOAD * 3, b"file-1")
        ops = counter.diff(before)
        signatures = _points(system.cloud.retrieve(b"file-1").signatures)
    group.detach_counter()
    return ops, signatures


def test_pooled_upload_raw_tallies_equal_at_any_worker_count():
    """Workers aggregate, blind and unblind through the same u/g/pk tables
    as the owner, so even the raw counter (not only the model-equivalent
    rows) is the same at 1, 2 and 3 workers."""
    runs = [_pooled_upload_ops(workers) for workers in (1, 2, 3)]
    (ops1, sigs1), (ops2, sigs2), (ops3, sigs3) = runs
    assert sigs1 == sigs2 == sigs3
    assert ops1 == ops2 == ops3
    assert ops1["exp_g1"] == len(sigs1)  # the SEM's Eq. 3 only
    assert ops1["exp_g1_fixed_base"] > 0
