"""Update lifecycles on the hash-chained ledger, replayed offline.

Every batch is fenced by ``dyn_update_begin`` / ``dyn_update_commit``;
``verify_ledger`` replays each file's rank tree from the recorded ops,
so a forged root transition is caught without any crypto context, and a
batch left open by a mid-batch crash is surfaced as resumable — the
exact state the store's idempotent retry clears.
"""

from __future__ import annotations

import pytest

from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp
from repro.dynamic.rank_tree import RankTree
from repro.obs.ledger import Ledger, verify_ledger

FID = b"doc/ledgered"


def make_tier(params, rng, ledger, sem_wrap=None):
    sem = SecurityMediator(params.group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    front = sem if sem_wrap is None else sem_wrap(sem)
    return DynamicStore(params, front, owner, ledger=ledger)


class TestLifecycle:
    def test_create_and_updates_replay_clean(self, params_k4, rng, tmp_path):
        path = tmp_path / "led.jsonl"
        store = make_tier(params_k4, rng, Ledger(path))
        store.create(FID, [b"b%d" % i for i in range(4)])
        store.update(FID, [UpdateOp("modify", 1, b"v2")])
        store.update(FID, [UpdateOp("insert", 0, b"head"),
                           UpdateOp("delete", 4)])
        report = verify_ledger(path)
        assert report.ok, report.errors
        assert report.updates_checked == 5      # create + 2 × (begin, commit)
        assert report.open_updates == []

    def test_forged_root_transition_is_flagged(self, tmp_path):
        """Hand-forge a commit whose root-after does not follow from its
        begin's recorded ops — structural replay alone must catch it."""
        path = tmp_path / "led.jsonl"
        ledger = Ledger(path)
        leaves = [b"a", b"b", b"c"]
        tree = RankTree(list(leaves))
        ledger.append("dyn_create", {
            "file": FID.hex(), "epoch": 0, "count": 3,
            "root": tree.root.hex(),
            "leaves": [leaf.hex() for leaf in leaves],
        })
        ledger.append("dyn_update_begin", {
            "file": FID.hex(), "batch": "forged#e1",
            "epoch_before": 0, "root_before": tree.root.hex(),
            "ops": [{"op": "modify", "position": 1, "leaf": b"evil".hex()}],
        })
        ledger.append("dyn_update_commit", {
            "file": FID.hex(), "batch": "forged#e1", "epoch_after": 1,
            "root_after": tree.root.hex(),   # state did NOT move: forged
            "count": 3, "signed_blocks": 1,
        })
        report = verify_ledger(path)
        assert not report.ok
        assert any("forged root transition" in e for e in report.errors)

    def test_forged_initial_root_is_flagged(self, tmp_path):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(path)
        ledger.append("dyn_create", {
            "file": FID.hex(), "epoch": 0, "count": 2,
            "root": RankTree([b"x", b"y"]).root.hex(),
            "leaves": [b"x".hex(), b"z".hex()],   # not what the root hashes
        })
        report = verify_ledger(path)
        assert not report.ok
        assert any("forged initial root" in e for e in report.errors)

    def test_spliced_update_without_create_is_flagged(self, tmp_path):
        path = tmp_path / "led.jsonl"
        ledger = Ledger(path)
        ledger.append("dyn_update_begin", {
            "file": FID.hex(), "batch": "x#e1", "epoch_before": 0,
            "root_before": RankTree([b"a"]).root.hex(), "ops": [],
        })
        report = verify_ledger(path)
        assert not report.ok
        assert any("spliced update record" in e for e in report.errors)

    @pytest.mark.parametrize("recorded_ok", [True, False])
    def test_dyn_audit_verdict_rechecked_offline(self, params_k4, rng, tmp_path,
                                                 recorded_ok):
        """Eq. 6 replays over the recorded rank-authenticated ids: the
        honest verdict rechecks clean, a flipped one is a forged verdict."""
        store = make_tier(params_k4, rng, None)
        auditor = DynamicAuditor(params_k4, store.owner.sem_pk, rng=rng)
        auditor.pin_receipt(store.create(FID, [b"b%d" % i for i in range(4)]))
        challenge = auditor.generate_challenge(FID, sample_size=2)
        proof = store.generate_proof(FID, challenge)
        assert auditor.verify(FID, challenge, proof)
        path = tmp_path / "led.jsonl"
        ledger = Ledger(path)
        ledger.ensure_genesis({"param_set": "toy-64", "k": params_k4.k,
                               "setup_seed": params_k4.seed.hex()})
        ledger.append("verifier_key", {
            "verifier": "tpa", "pk": store.owner.sem_pk.to_bytes().hex()})
        ledger.append("dyn_audit", {
            "verifier": "tpa", "file": FID.hex(),
            "indices": list(challenge.indices),
            "betas": list(challenge.betas),
            "block_ids": [b.hex() for b in proof.block_ids],
            "sigma": proof.response.sigma.to_bytes().hex(),
            "alphas": list(proof.response.alphas),
            "ok": recorded_ok,
        })
        report = verify_ledger(path)
        assert report.audits_rechecked == 1
        assert report.ok is recorded_ok
        assert any("forged verdict" in e for e in report.errors) is not recorded_ok


class _CrashySEM:
    """Raises on the next signing round, then recovers — the mid-batch
    crash window between the begin and commit fences."""

    def __init__(self, sem):
        self.sem = sem
        self.crash_next = False

    def sign_blinded_batch(self, blinded, credential=None):
        if self.crash_next:
            self.crash_next = False
            raise ConnectionError("sem crashed mid-update-batch")
        return self.sem.sign_blinded_batch(blinded, credential)


class TestTornTail:
    def test_crash_mid_batch_then_idempotent_resume(self, params_k4, rng,
                                                    tmp_path):
        path = tmp_path / "led.jsonl"
        store = make_tier(params_k4, rng, Ledger(path), sem_wrap=_CrashySEM)
        store.create(FID, [b"b%d" % i for i in range(4)])
        root_before = store.file_state(FID).root

        store.sem.crash_next = True
        with pytest.raises(ConnectionError):
            store.update(FID, [UpdateOp("modify", 2, b"lost")])
        # The committed state never moved: the batch died after its
        # begin fence but before any signature landed.
        assert store.file_state(FID).epoch == 0
        assert store.file_state(FID).root == root_before
        report = verify_ledger(path)
        assert report.ok, report.errors        # torn mid-batch is not tamper
        assert len(report.open_updates) == 1

        # Resume: the retry writes a second begin with the same
        # root-before (superseding the open one) and commits.
        receipt = store.update(FID, [UpdateOp("modify", 2, b"recovered")])
        assert receipt.epoch_before == 0 and receipt.epoch_after == 1
        report = verify_ledger(path)
        assert report.ok, report.errors
        assert report.open_updates == []
        assert report.updates_checked == 4     # create + begin + begin + commit
