"""End-to-end dynamic PDP on DynamicStore / DynamicAuditor.

Create, audit, mutate and attack one dynamic file: every honest state
audits, and every divergence from the SEM-signed (epoch, root, count)
fails.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest

from repro.core.challenge import Challenge
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.dynamic import DynamicAuditor, DynamicStore, RankTree, UpdateOp, dyn_block_id
from repro.dynamic.persist import decode_dynamic_file, encode_dynamic_file

FID = b"doc/beta"
N = 8


@pytest.fixture()
def tier(params_k4, rng):
    sem = SecurityMediator(params_k4.group, rng=rng, require_membership=False)
    owner = DataOwner(params_k4, sem.pk, rng=rng)
    store = DynamicStore(params_k4, sem, owner)
    auditor = DynamicAuditor(params_k4, sem.pk, rng=rng)
    auditor.pin_receipt(store.create(FID, [b"page-%02d" % i for i in range(N)]))
    return store, auditor


def audit(store, auditor, sample=None):
    challenge = auditor.generate_challenge(FID, sample_size=sample)
    return auditor.verify(FID, challenge, store.generate_proof(FID, challenge))


def audit_positions(store, auditor, *positions):
    challenge = Challenge(indices=positions, block_ids=tuple(b"" for _ in positions),
                          betas=tuple(range(3, 3 + len(positions))))
    return auditor.verify(FID, challenge, store.generate_proof(FID, challenge))


def commit(store, auditor, *ops):
    receipt = store.update(FID, list(ops))
    auditor.pin_receipt(receipt)
    return receipt


def stored_elements(store, position):
    state = store.file_state(FID)
    serial, _ = state.slots[position]
    return state.blocks[serial].elements


class TestCreateAndAudit:
    def test_initial_audit(self, tier):
        store, auditor = tier
        assert audit(store, auditor)

    def test_sampled_audit(self, tier):
        store, auditor = tier
        for _ in range(3):
            challenge = auditor.generate_challenge(FID, sample_size=4)
            assert len(set(challenge.indices)) == 4
            assert auditor.verify(FID, challenge, store.generate_proof(FID, challenge))

    def test_block_ids_carry_serial_and_version(self, tier):
        store, auditor = tier
        state = store.file_state(FID)
        assert state.slots == [(i, 0) for i in range(N)]
        for serial, version in state.slots:
            block_id = state.blocks[serial].block_id
            assert block_id == dyn_block_id(FID, serial, version)
            assert struct.unpack(">QQ", block_id[len(FID) + 1:]) == (serial, version)
        commit(store, auditor, UpdateOp("modify", 3, b"v1"))
        assert state.slots[3] == (3, 1)
        assert state.blocks[3].block_id == dyn_block_id(FID, 3, 1)


class TestMutations:
    def test_update_then_audit(self, tier):
        store, auditor = tier
        commit(store, auditor, UpdateOp("modify", 2, b"edited"))
        assert stored_elements(store, 2) == store.elements_from_bytes(b"edited")
        assert audit_positions(store, auditor, 2)
        assert audit(store, auditor)

    def test_insert_then_audit(self, tier):
        store, auditor = tier
        receipt = commit(store, auditor, UpdateOp("insert", 0, b"preface"))
        assert receipt.count == N + 1
        assert store.file_state(FID).slots[0] == (N, 0)   # a fresh serial
        assert stored_elements(store, 0) == store.elements_from_bytes(b"preface")
        assert audit(store, auditor)

    def test_append(self, tier):
        store, auditor = tier
        receipt = commit(store, auditor, UpdateOp("append", payload=b"tail"))
        assert receipt.count == N + 1
        assert stored_elements(store, N) == store.elements_from_bytes(b"tail")
        assert audit_positions(store, auditor, N)

    def test_delete_then_audit(self, tier):
        store, auditor = tier
        state = store.file_state(FID)
        serial, _ = state.slots[3]
        receipt = commit(store, auditor, UpdateOp("delete", 3))
        assert receipt.count == N - 1
        assert receipt.signed_blocks == 0
        assert serial not in state.blocks and serial not in state.signatures
        assert all(s != serial for s, _ in state.slots)
        assert audit(store, auditor)

    def test_epoch_monotone(self, tier):
        store, auditor = tier
        epochs = [store.file_state(FID).epoch]
        for i in range(4):
            receipt = commit(store, auditor, UpdateOp("modify", i, b"round-%d" % i))
            assert receipt.epoch_before == epochs[-1]
            epochs.append(receipt.epoch_after)
        assert epochs == [0, 1, 2, 3, 4]
        assert audit(store, auditor)

    def test_only_touched_block_resigned(self, tier):
        store, auditor = tier
        state = store.file_state(FID)
        before = {s: sig.to_bytes() for s, sig in state.signatures.items()}
        issued = len(store.sem.transcript)
        receipt = commit(store, auditor, UpdateOp("modify", 5, b"touched"))
        assert receipt.signed_blocks == 1
        assert len(store.sem.transcript) - issued == 2   # the block + the root
        after = {s: sig.to_bytes() for s, sig in state.signatures.items()}
        assert [s for s in before if before[s] != after[s]] == [5]

    def test_interleaved_mutations(self, tier):
        store, auditor = tier
        mirror = [b"page-%02d" % i for i in range(N)]
        batches = [
            [UpdateOp("modify", 1, b"a"), UpdateOp("insert", 4, b"b")],
            [UpdateOp("delete", 0), UpdateOp("append", payload=b"c")],
            [UpdateOp("insert", 0, b"d"), UpdateOp("delete", 6),
             UpdateOp("modify", 3, b"e")],
        ]
        for batch in batches:
            for op in batch:
                if op.op == "modify":
                    mirror[op.position] = op.payload
                elif op.op == "insert":
                    mirror.insert(op.position, op.payload)
                elif op.op == "delete":
                    del mirror[op.position]
                else:
                    mirror.append(op.payload)
            commit(store, auditor, *batch)
            assert store.file_state(FID).count == len(mirror)
            for position, payload in enumerate(mirror):
                assert stored_elements(store, position) == store.elements_from_bytes(payload)
            assert audit(store, auditor)


class TestAttacks:
    def test_tampered_block_detected(self, tier):
        store, auditor = tier
        store.tamper_block(FID, 6)
        assert not audit_positions(store, auditor, 6)
        assert not audit(store, auditor)

    def test_wrong_position_path_rejected(self, tier):
        store, auditor = tier
        challenge = Challenge(indices=(2, 5), block_ids=(b"", b""), betas=(3, 8))
        proof = store.generate_proof(FID, challenge)
        assert auditor.verify(FID, challenge, proof)
        swapped = dataclasses.replace(proof, paths=(proof.paths[1], proof.paths[0]))
        assert not auditor.verify(FID, challenge, swapped)

    def test_whole_file_rollback_detected_by_epoch(self, tier, params_k4):
        """The whole pre-update state, with its own valid root signature,
        is internally consistent: only the pinned epoch rejects it."""
        store, auditor = tier
        old_pin = auditor.pinned(FID)
        snapshot = encode_dynamic_file(store.file_state(FID), params_k4)
        commit(store, auditor, UpdateOp("modify", 0, b"new"))
        commit(store, auditor, UpdateOp("modify", 1, b"newer"))
        store.adopt(decode_dynamic_file(snapshot, params_k4))
        challenge = auditor.generate_challenge(FID, sample_size=4)
        proof = store.generate_proof(FID, challenge)
        assert proof.epoch < auditor.pinned(FID)[0]
        assert not auditor.verify(FID, challenge, proof)
        auditor.pin(FID, *old_pin)
        assert auditor.verify(FID, challenge, proof)

    def test_divergent_mutation_rejected_by_cloud(self, tier):
        """A mutation the cloud applies on its own has no SEM-signed root:
        it fails against the auditor's pin, and also when the auditor is
        pinned to the cloud's own claimed (epoch, root, count)."""
        store, auditor = tier
        state = store.file_state(FID)
        del state.slots[3]
        state.tree = RankTree([dyn_block_id(FID, s, v) for s, v in state.slots])
        assert not audit_positions(store, auditor, 0, 3, 6)
        auditor.pin(FID, state.epoch, state.root, state.count)
        assert not audit(store, auditor)
