"""DynamicStore + DynamicAuditor: verified updates, adversarial replays."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.blocks import aggregate_block
from repro.core.challenge import Challenge
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.dynamic import (
    DynamicAuditor,
    DynamicFileError,
    DynamicStore,
    UpdateOp,
    dyn_root_message,
)
from repro.dynamic.persist import decode_dynamic_file, encode_dynamic_file

FID = b"doc/alpha"


@pytest.fixture()
def tier(params_k4, rng):
    sem = SecurityMediator(params_k4.group, rng=rng, require_membership=False)
    owner = DataOwner(params_k4, sem.pk, rng=rng)
    store = DynamicStore(params_k4, sem, owner)
    auditor = DynamicAuditor(params_k4, sem.pk, rng=rng)
    receipt = store.create(FID, [b"block-%02d" % i for i in range(8)])
    auditor.pin_receipt(receipt)
    return store, auditor


def fresh_proof_passes(store, auditor, sample=4):
    challenge = auditor.generate_challenge(FID, sample_size=sample)
    proof = store.generate_proof(FID, challenge)
    return auditor.verify(FID, challenge, proof)


class TestLifecycle:
    def test_create_then_audit(self, tier):
        store, auditor = tier
        assert fresh_proof_passes(store, auditor)

    def test_update_ops_and_versions(self, tier):
        store, auditor = tier
        state = store.file_state(FID)
        serial_before, version_before = state.slots[2]
        receipt = store.update(FID, [
            UpdateOp("modify", 2, b"edited"),
            UpdateOp("insert", 0, b"preface"),
            UpdateOp("append", payload=b"tail"),
            UpdateOp("delete", 5),
        ])
        auditor.pin_receipt(receipt)
        assert receipt.epoch_after == 1
        assert receipt.count == 9            # 8 + insert + append - delete
        assert receipt.signed_blocks == 3    # deletes sign nothing
        # Modify bumps the version, keeps the serial (insert shifted it to 3).
        assert state.slots[3] == (serial_before, version_before + 1)
        assert fresh_proof_passes(store, auditor)

    def test_batch_of_k_signs_exactly_k(self, tier):
        store, _ = tier
        for k in (1, 3, 5):
            ops = [UpdateOp("modify", i, b"edit-%d" % i) for i in range(k)]
            assert store.update(FID, ops).signed_blocks == k

    def test_empty_batch_rejected(self, tier):
        store, _ = tier
        with pytest.raises(DynamicFileError):
            store.update(FID, [])

    def test_out_of_range_ops_rejected(self, tier):
        store, _ = tier
        with pytest.raises(DynamicFileError):
            store.update(FID, [UpdateOp("modify", 8, b"x")])
        with pytest.raises(DynamicFileError):
            store.update(FID, [UpdateOp("delete", 99)])

    def test_oversized_payload_rejected(self, tier, params_k4):
        store, _ = tier
        too_big = b"z" * (params_k4.block_bytes() + 1)
        with pytest.raises(DynamicFileError):
            store.update(FID, [UpdateOp("modify", 0, too_big)])


class TestAdversarial:
    def test_stale_root_replay_fails(self, tier):
        """A proof captured before an update cannot satisfy an auditor
        whose pin has advanced — epoch, root, and count all moved."""
        store, auditor = tier
        challenge = auditor.generate_challenge(FID, sample_size=4)
        stale = store.generate_proof(FID, challenge)
        receipt = store.update(FID, [UpdateOp("modify", 0, b"new")])
        auditor.pin_receipt(receipt)
        assert auditor.verify(FID, challenge, stale) is False

    def test_stale_pin_rejects_fresh_state(self, tier):
        """The dual direction: a cloud that applied an update the TPA
        never sanctioned fails against the old pin."""
        store, auditor = tier
        store.update(FID, [UpdateOp("modify", 0, b"unsanctioned")])
        assert fresh_proof_passes(store, auditor) is False

    def test_index_shift_fails_rank_check(self, tier):
        """Answer position p with the (valid!) block, signature, and path
        of position p+1: Eq. 6 holds over what was sent, but the rank
        path derives p+1, not p."""
        store, auditor = tier
        challenge = Challenge(indices=(2,), block_ids=(b"",), betas=(7,))
        shifted = Challenge(indices=(3,), block_ids=(b"",), betas=(7,))
        proof = store.generate_proof(FID, shifted)
        assert auditor.verify(FID, challenge, proof) is False

    def test_delete_then_replay_neighbor(self, tier):
        """Delete block i; the cloud replays the old proof in which the
        dead block's neighbor stood at the challenged rank."""
        store, auditor = tier
        challenge = auditor.generate_challenge(FID, sample_size=3)
        ghost = store.generate_proof(FID, challenge)
        receipt = store.update(FID, [UpdateOp("delete", 2)])
        auditor.pin_receipt(receipt)
        assert auditor.verify(FID, challenge, ghost) is False
        # An honest proof over the shifted file passes immediately.
        fresh = auditor.generate_challenge(FID, sample_size=3)
        assert auditor.verify(FID, fresh, store.generate_proof(FID, fresh))

    def test_tampered_block_fails_eq6(self, tier):
        """Rank paths authenticate position, Eq. 6 catches content."""
        store, auditor = tier
        store.tamper_block(FID, 1)
        challenge = Challenge(indices=(1,), block_ids=(b"",), betas=(5,))
        proof = store.generate_proof(FID, challenge)
        assert auditor.verify(FID, challenge, proof) is False

    def test_foreign_block_id_rejected(self, tier):
        store, auditor = tier
        challenge = auditor.generate_challenge(FID, sample_size=2)
        proof = store.generate_proof(FID, challenge)
        forged = type(proof)(
            file_id=proof.file_id, epoch=proof.epoch, count=proof.count,
            root=proof.root, root_signature=proof.root_signature,
            block_ids=(b"other#" + proof.block_ids[0],) + proof.block_ids[1:],
            paths=proof.paths, response=proof.response,
        )
        assert auditor.verify(FID, challenge, forged) is False

    def test_stale_version_rollback_fails(self, tier):
        """Serve a block's pre-update version with its once-valid
        signature at the same position: Eq. 6 still holds over what was
        sent, but the old identifier is not under the signed root."""
        store, auditor = tier
        state = store.file_state(FID)
        serial, _ = state.slots[2]
        stale = state.blocks[serial], state.signatures[serial]
        auditor.pin_receipt(store.update(FID, [UpdateOp("modify", 2, b"new")]))
        state.blocks[serial], state.signatures[serial] = stale
        challenge = Challenge(indices=(2,), block_ids=(b"",), betas=(3,))
        proof = store.generate_proof(FID, challenge)
        assert auditor.verify(FID, challenge, proof) is False

    def test_forged_root_signature_fails(self, tier, params_k4, rng):
        store, auditor = tier
        challenge = auditor.generate_challenge(FID, sample_size=2)
        proof = store.generate_proof(FID, challenge)
        forged = dataclasses.replace(
            proof, root_signature=params_k4.group.random_g1(rng))
        assert auditor.verify(FID, challenge, forged) is False

    def test_sem_transcript_holds_no_unblinded_aggregate(self, tier):
        """Updates route every signature (blocks and root) through the
        blind protocol: nothing the SEM saw is a block aggregate or the
        hashed root message."""
        store, _ = tier
        store.update(FID, [UpdateOp("modify", 0, b"secret new content")])
        state = store.file_state(FID)
        group = store.params.group
        unblinded = {
            aggregate_block(store.params, state.blocks[serial]).to_bytes()
            for serial, _ in state.slots
        }
        unblinded.add(group.hash_to_g1(
            dyn_root_message(FID, state.epoch, state.count, state.root)).to_bytes())
        seen = {entry.blinded.to_bytes() for entry in store.sem.transcript}
        assert seen
        assert not unblinded & seen


class TestPersist:
    def test_round_trip_preserves_proofs(self, tier, params_k4):
        store, auditor = tier
        store.update(FID, [UpdateOp("append", payload=b"persisted")])
        state = store.file_state(FID)
        blob = encode_dynamic_file(state, params_k4)
        revived = decode_dynamic_file(blob, params_k4)
        assert revived.epoch == state.epoch
        assert revived.root == state.root
        assert revived.count == state.count

    def test_adopted_state_keeps_updating(self, tier, params_k4):
        store, auditor = tier
        blob = encode_dynamic_file(store.file_state(FID), params_k4)
        sibling = DynamicStore(params_k4, store.sem, store.owner)
        sibling.adopt(decode_dynamic_file(blob, params_k4))
        receipt = sibling.update(FID, [UpdateOp("modify", 4, b"resumed")])
        auditor.pin_receipt(receipt)
        challenge = auditor.generate_challenge(FID, sample_size=4)
        assert auditor.verify(FID, challenge,
                              sibling.generate_proof(FID, challenge))
