"""The owner-side signing pass (:meth:`DataOwner.sign_blocks`).

Every signing caller — ``sign_file``, the dynamic store, the resilient
store, the fleet, and the multi-owner builder — runs the same pass:
Blind (Eq. 2) → one SEM batch (Eq. 3) → Eq. 7 → Unblind (Eq. 5).  A
table-enabled owner blinds and unblinds through g/pk fixed-base tables,
so the only scalar multiplications left are the SEM's.
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
from repro.crypto.bls import bls_verify_element
from repro.dynamic import DynamicFileError, DynamicStore, UpdateOp
from repro.erasure import ResilientStore
from repro.erasure.fleet import build_demo_fleet
from repro.obs.exporters import model_equivalent_exp
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter

PAYLOAD = b"one owner-side signing pass " * 12


def _sem(group, seed=1):
    return SecurityMediator(group, rng=random.Random(seed), require_membership=False)


def _owner(params, sem, tables, seed=2):
    return DataOwner(params, sem.pk, rng=random.Random(seed), use_fixed_base=tables)


def _blocks(params, n, file_id=b"f"):
    rng = random.Random(n)
    return [Block(block_id=make_block_id(file_id, i),
                  elements=tuple(rng.randrange(params.order) for _ in range(params.k)))
            for i in range(n)]


def _points(signatures):
    return [s.point for s in signatures]


class TestFixedBaseOwnerCost:
    def test_only_the_sem_exponentiates(self, group, params_k4):
        sem = _sem(group)
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            deltas = {}
            for tables in (True, False):
                owner = _owner(params_k4, sem, tables)
                before = counter.snapshot()
                signed = owner.sign_file(PAYLOAD, b"f", sem)
                deltas[tables] = counter.diff(before)
        finally:
            group.detach_counter()
        n = len(signed.blocks)
        # With tables the n plain Exps are all the SEM's (Eq. 3); blinding
        # and unblinding are 2n table lookups on top of aggregation's.
        assert deltas[True]["exp_g1"] == n
        assert deltas[True]["exp_g1_fixed_base"] > 2 * n
        assert (model_equivalent_exp(deltas[True])
                == model_equivalent_exp(deltas[False]))
        assert deltas[True]["pairings"] == deltas[False]["pairings"] == 2


class TestSameSignaturesWithAndWithoutTables:
    def test_sign_file(self, group, params_k4):
        sem = _sem(group)
        runs = [_owner(params_k4, sem, t).sign_file(PAYLOAD, b"f", sem).signatures
                for t in (True, False)]
        assert _points(runs[0]) == _points(runs[1])

    def test_sign_file_per_signature_checks(self, group, params_k4):
        sem = _sem(group)
        runs = [_owner(params_k4, sem, t).sign_file(PAYLOAD, b"f", sem, batch=False)
                for t in (True, False)]
        assert _points(runs[0].signatures) == _points(runs[1].signatures)

    def test_dynamic_store(self, group, params_k4):
        sem = _sem(group)
        states = []
        for tables in (True, False):
            store = DynamicStore(params_k4, sem, _owner(params_k4, sem, tables))
            store.create(b"d", [b"chunk-%d" % i for i in range(6)])
            store.update(b"d", [UpdateOp("modify", 1, b"edit"),
                                UpdateOp("append", payload=b"tail")])
            states.append(store.file_state(b"d"))
        with_tables, without = states
        assert with_tables.root_signature == without.root_signature
        assert with_tables.signatures == without.signatures

    def test_resilient_store(self, group, params_k4):
        sem = _sem(group)
        stored = []
        for tables in (True, False):
            cloud = CloudServer(params_k4)
            verifier = PublicVerifier(params_k4, sem.pk, rng=random.Random(3))
            store = ResilientStore(params_k4, _owner(params_k4, sem, tables), sem, cloud,
                                   verifier, parity=2, rng=random.Random(4))
            store.store(PAYLOAD, b"r")
            stored.append(cloud.retrieve(b"r").signatures)
        assert _points(stored[0]) == _points(stored[1])

    def test_fleet(self):
        stored = []
        for tables in (True, False):
            fleet = build_demo_fleet(servers=4, parity=2, spares=0, seed=5)
            fleet.owner = DataOwner(fleet.params, fleet.owner.sem_pk,
                                    rng=random.Random(6), use_fixed_base=tables)
            placement = fleet.store(PAYLOAD, b"fleet")
            stored.append([
                _points(fleet.handles[name].server.retrieve(
                    placement.slice_id(slot)).signatures)
                for slot, name in enumerate(placement.servers)])
        assert stored[0] == stored[1]

    def test_shared_file_builder(self, group, params_k4):
        sem = _sem(group)
        built = []
        for tables in (True, False):
            builder = SharedFileBuilder(params_k4, b"s", sem)
            for seed, payload in ((7, b"alice " * 20), (8, b"bob " * 30)):
                builder.append(Contribution(_owner(params_k4, sem, tables, seed), payload))
            built.append(builder.build().signatures)
        assert _points(built[0]) == _points(built[1])


class TestChunkedPass:
    def test_pass_across_chunk_boundaries_equals_signing_each_block(self, group, params_k4):
        sem = _sem(group)
        owner = _owner(params_k4, sem, True)
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
        owner = _owner(params_k4, sem, True)
        extra = group.hash_to_g1(b"root message")
        *block_sigs, extra_sig = owner.sign_blocks(
            sem, _blocks(params_k4, 3), rng=random.Random(9), extra=[extra])
        assert len(block_sigs) == 3
        assert bls_verify_element(group, sem.pk, extra, extra_sig)


class TestFailClosed:
    def test_mismatched_sem_pk_g1_raises_before_signing(self, group, params_k4):
        sem = _sem(group)
        owner = _owner(params_k4, sem, False)
        other = _sem(group, seed=99)
        with pytest.raises(ValueError):
            owner.sign_file(PAYLOAD, b"f", sem, sem_pk_g1=other.pk_g1)
        assert sem.transcript == []

    def test_matching_sem_pk_g1_signs_as_without_it(self, group, params_k4):
        sem = _sem(group)
        signed = [_owner(params_k4, sem, False).sign_file(PAYLOAD, b"f", sem, **kwargs)
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

        owner = _owner(params_k4, sem, True)
        with pytest.raises(BlindSignatureError):
            owner.sign_blocks(ShortSEM(), _blocks(params_k4, 4), rng=None)


@pytest.mark.parametrize("tables", [True, False])
class TestByzantineSEM:
    def test_sign_file(self, group, params_k4, tables):
        sem = _sem(group)
        sem.fail_mode = "byzantine"
        owner = _owner(params_k4, sem, tables)
        for batch in (True, False):
            with pytest.raises(ValueError):
                owner.sign_file(PAYLOAD, b"f", sem, batch=batch)
        assert owner.stats.blocks == 0

    def test_dynamic_store(self, group, params_k4, tables):
        sem = _sem(group)
        store = DynamicStore(params_k4, sem, _owner(params_k4, sem, tables))
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

    def test_resilient_store(self, group, params_k4, tables):
        sem = _sem(group)
        sem.fail_mode = "byzantine"
        cloud = CloudServer(params_k4)
        store = ResilientStore(params_k4, _owner(params_k4, sem, tables), sem, cloud,
                               PublicVerifier(params_k4, sem.pk), parity=2)
        with pytest.raises(ValueError):
            store.store(PAYLOAD, b"r")
        assert not cloud.has_file(b"r")

    def test_fleet(self, tables):
        fleet = build_demo_fleet(servers=4, parity=2, spares=0, seed=5)
        fleet.owner = DataOwner(fleet.params, fleet.owner.sem_pk,
                                rng=random.Random(6), use_fixed_base=tables)
        fleet.sem.fail_mode = "byzantine"
        with pytest.raises(ValueError):
            fleet.store(PAYLOAD, b"fleet")
        assert b"fleet" not in fleet.placements
        assert all(h.server.stored_files == 0 for h in fleet.handles.values())

    def test_shared_file_builder(self, group, params_k4, tables):
        sem = _sem(group)
        builder = SharedFileBuilder(params_k4, b"s", sem)
        builder.append(Contribution(_owner(params_k4, sem, tables), b"alice " * 10))
        n_blocks = builder.n_blocks
        sem.fail_mode = "byzantine"
        with pytest.raises(ValueError):
            builder.append(Contribution(_owner(params_k4, sem, tables, 3), b"bob " * 10))
        assert builder.n_blocks == n_blocks


def _pooled_upload_ops(workers, cache_dir):
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    counter = OperationCounter()
    group.attach_counter(counter)
    with SemPdpSystem.create(group, k=4, rng=random.Random(11), workers=workers,
                             table_cache_dir=cache_dir) as system:
        owner = system.enroll("alice")
        before = counter.snapshot()
        system.upload(owner, PAYLOAD * 3, b"file-1")
        ops = counter.diff(before)
        signatures = _points(system.cloud.retrieve(b"file-1").signatures)
    group.detach_counter()
    return ops, signatures


def test_pooled_upload_raw_tallies_equal_at_any_worker_count(tmp_path):
    """Workers blind and unblind through the same g/pk tables as the
    owner, so even the raw counter (not only the model-equivalent rows)
    is the same at 1, 2 and 3 workers."""
    runs = [_pooled_upload_ops(workers, tmp_path) for workers in (1, 2, 3)]
    (ops1, sigs1), (ops2, sigs2), (ops3, sigs3) = runs
    assert sigs1 == sigs2 == sigs3
    assert ops1 == ops2 == ops3
    assert ops1["exp_g1_fixed_base"] > 0
