"""Erasure-coded multi-cloud fleet: stripe, audit, quarantine, repair.

Every test drives a small seeded RS(4,2) fleet (four active servers, one
coded slot each, two tolerated losses, one warm spare) built by
:func:`~repro.erasure.fleet.build_demo_fleet` — the same constructor the
CLI, the bench suite, and the scenario drill share.  The batch-first
round tests use the benchmark's RS(5,3) shape instead: five servers, two
files, ten slices per round.
"""

import dataclasses

import pytest

from repro.erasure.fleet import ServerUnavailable, SliceVerdict, build_demo_fleet
from repro.erasure.placement import slice_file_id
from repro.obs.ledger import Ledger, audit_record, verify_ledger
from repro.ec import jacobian
from repro.pairing.interface import OperationCounter
from tests.ec.test_msm_property import _binary_straus, spy_msm_kernels

PAYLOAD = b"fleet payload shared across coded slots " * 6
FILE = b"fleet-file"


def _fleet(ledger=None, servers=4, parity=2, spares=1, seed=11, files=1):
    fleet = build_demo_fleet(servers=servers, parity=parity, spares=spares,
                             seed=seed, ledger=ledger)
    for i in range(files):
        fleet.store(PAYLOAD, FILE if files == 1 else FILE + b"-%d" % i)
    return fleet


class TestStore:
    def test_one_slice_per_active_server(self):
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        assert placement.servers == fleet.active_names
        assert placement.width == 4 and placement.data_shards == 2
        for slot, name in enumerate(placement.servers):
            assert fleet.handles[name].has_file(placement.slice_id(slot))

    def test_slice_ids_derive_from_file_and_slot_only(self):
        """Signatures survive re-homing because the slice identity does
        not mention the server that happens to hold it."""
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        for slot in range(placement.width):
            assert placement.slice_id(slot) == slice_file_id(FILE, slot)

    def test_retrieve_round_trips(self):
        assert _fleet().retrieve(FILE) == PAYLOAD

    def test_retrieve_survives_parity_losses(self):
        fleet = _fleet()
        fleet.set_online("cloud-s0", False)
        fleet.set_online("cloud-s2", False)
        assert fleet.reconstructible(FILE)
        assert fleet.retrieve(FILE) == PAYLOAD

    def test_retrieve_fails_closed_beyond_parity(self):
        fleet = _fleet()
        for name in ("cloud-s0", "cloud-s1", "cloud-s2"):
            fleet.set_online(name, False)
        assert not fleet.reconstructible(FILE)
        with pytest.raises(ValueError, match="unrecoverable"):
            fleet.retrieve(FILE)

    def test_offline_handle_raises(self):
        fleet = _fleet()
        fleet.set_online("cloud-s1", False)
        with pytest.raises(ServerUnavailable):
            fleet.handles["cloud-s1"].retrieve(b"x")


class TestAudit:
    def test_clean_round_aggregates_ok(self):
        fleet = _fleet(files=2)
        report = fleet.audit_round()
        assert report.checks == 4 * 2  # every (server, file) slice
        assert report.failures == 0 and report.timeouts == 0
        assert report.aggregate_ok is True
        assert report.passed

    def test_dead_server_times_out_and_quarantines(self):
        fleet = _fleet()
        fleet.set_online("cloud-s2", False)
        report = fleet.audit_round()
        assert report.timeouts == 1 and not report.passed
        assert fleet.scoreboard.quarantined_names() == ["cloud-s2"]
        follow_up = fleet.audit_round()
        assert follow_up.skipped_servers == ("cloud-s2",)

    def test_tampered_slice_fails_eq6_and_quarantines(self):
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        fleet.handles["cloud-s3"].server.tamper_block(placement.slice_id(3), 0)
        report = fleet.audit_round()
        assert report.failures == 1
        (bad,) = [v for v in report.verdicts if v.status == "invalid"]
        assert bad.server == "cloud-s3" and bad.slot == 3
        assert fleet.scoreboard.quarantined_names() == ["cloud-s3"]


class TestRepair:
    def test_lost_server_rehomes_to_spare(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        fleet.set_online("cloud-s1", False)
        fleet.audit_round()
        report = fleet.repair()
        assert report.repaired and not report.unrecoverable
        (task,) = report.completed
        assert task.source == "cloud-s1" and task.target == "cloud-s4"
        assert "cloud-s4" in fleet.placements.get(FILE).servers
        assert report.reaudits_passed == 1
        assert fleet.retrieve(FILE) == PAYLOAD
        verification = verify_ledger(ledger.path)
        assert verification.ok, verification.errors
        assert verification.counts["repair_begin"] == 1
        assert verification.counts["repair_complete"] == 1
        assert verification.counts["cloud_quarantine"] == 1
        assert verification.open_repairs == []

    def test_repair_targets_recovered_server_in_place(self):
        fleet = _fleet()
        placement = fleet.placements.get(FILE)
        fleet.handles["cloud-s0"].server.tamper_block(placement.slice_id(0), 1)
        fleet.audit_round()  # invalid proof quarantines cloud-s0
        report = fleet.repair()
        (task,) = report.completed
        assert task.source == "cloud-s0" and task.target == "cloud-s0"
        assert fleet.placements.get(FILE).servers == fleet.active_names
        follow = fleet.audit_round()  # window not lapsed: still skipped
        assert follow.skipped_servers == ("cloud-s0",) and follow.passed
        fleet.scoreboard.record_success_name("cloud-s0")
        after = fleet.audit_round()
        assert after.skipped_servers == () and after.passed

    def test_beyond_parity_is_unrecoverable_not_wrong(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        for name in ("cloud-s0", "cloud-s1", "cloud-s2"):
            fleet.set_online(name, False)
        fleet.audit_round()
        report = fleet.repair()
        assert not report.repaired and not report.completed
        assert len(report.unrecoverable) == 3
        verification = verify_ledger(ledger.path)
        assert verification.ok, verification.errors
        assert verification.counts["repair_failed"] == 3
        assert verification.open_repairs == []

    def test_one_spare_absorbs_one_slot_per_file(self):
        """Two dead servers, one spare: the second task must fail at
        execution time (the spare already took the first slot), not
        silently double-place."""
        fleet = _fleet(files=1)
        fleet.set_online("cloud-s0", False)
        fleet.set_online("cloud-s1", False)
        fleet.audit_round()
        report = fleet.repair()
        assert len(report.completed) == 1 and len(report.unrecoverable) == 1
        servers = fleet.placements.get(FILE).servers
        assert len(set(servers)) == len(servers)  # never doubled up


class TestRepairKernels:
    """The re-audit of a rebuilt 5-block slice stays below
    ``PIPPENGER_THRESHOLD``: it runs the w-NAF Straus kernel and records
    what the binary Straus kernel it replaced recorded."""

    @staticmethod
    def _lose_one_server(path):
        ledger = Ledger(path=path)
        fleet = _fleet(ledger=ledger)
        fleet.set_online("cloud-s1", False)
        fleet.audit_round()
        return fleet, ledger

    def test_five_block_reaudit_runs_straus(self, tmp_path, monkeypatch):
        fleet, _ = self._lose_one_server(tmp_path / "fleet.jsonl")
        assert fleet.placements.get(FILE).stripes == 5
        calls = spy_msm_kernels(monkeypatch)
        report = fleet.repair()
        assert report.reaudits_passed == 1
        assert ("_straus", 5) in calls  # the re-audit's ProofGen σ
        assert {name for name, _ in calls} == {"_straus"}

    def test_same_ledger_as_binary_straus(self, tmp_path, monkeypatch):
        heads = []
        for kernel in (jacobian._straus, _binary_straus):
            monkeypatch.setattr(jacobian, "_straus", kernel)
            path = tmp_path / ("%s.jsonl" % kernel.__name__)
            fleet, ledger = self._lose_one_server(path)
            assert fleet.repair().reaudits_passed == 1
            heads.append((ledger.head()["hash"], path.read_bytes()))
        assert heads[0] == heads[1]


class TestCrashResume:
    def test_resume_finishes_open_repair_idempotently(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        fleet.set_online("cloud-s3", False)
        fleet.audit_round()

        real = ledger.append

        def power_cut(kind, body):
            if kind == "repair_slice":
                raise RuntimeError("power cut mid-repair")
            return real(kind, body)

        ledger.append = power_cut
        with pytest.raises(RuntimeError, match="power cut"):
            fleet.repair()
        ledger.append = real

        # The chain now ends with a repair_begin and no completion: the
        # verifier tolerates it but surfaces the open repair.
        mid = verify_ledger(ledger.path)
        assert mid.ok, mid.errors
        assert len(mid.open_repairs) == 1

        resumed = fleet.resume_repairs()
        assert resumed.repaired
        (task,) = resumed.completed
        assert task.source == "cloud-s3" and task.target == "cloud-s4"
        assert fleet.retrieve(FILE) == PAYLOAD

        done = verify_ledger(ledger.path)
        assert done.ok, done.errors
        # The crashed attempt stays open forever (its completion was never
        # written); the resumed attempt begins and completes cleanly.
        assert done.counts["repair_begin"] == 2
        assert done.counts["repair_complete"] == 1
        assert done.open_repairs == mid.open_repairs

    def test_resume_with_clean_ledger_is_a_noop(self, tmp_path):
        ledger = Ledger(path=tmp_path / "fleet.jsonl")
        fleet = _fleet(ledger=ledger)
        fleet.set_online("cloud-s2", False)
        fleet.audit_round()
        fleet.repair()
        report = fleet.resume_repairs()
        assert report.tasks == [] and report.slices_rebuilt == 0


class TestDeterminism:
    def test_same_seed_same_ledger_head(self, tmp_path):
        def run(path):
            ledger = Ledger(path=path)
            fleet = _fleet(ledger=ledger)
            fleet.set_online("cloud-s1", False)
            fleet.audit_round()
            fleet.repair()
            return ledger.head()["hash"]

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


# -- batch-first audit rounds ------------------------------------------------

def _rs53(ledger=None, seed=3):
    """RS(5,3) with one spare and two files: ten slices per round."""
    fleet = build_demo_fleet(servers=5, parity=2, spares=1, seed=seed,
                             ledger=ledger)
    for i in range(2):
        fleet.store(PAYLOAD, FILE + b"-%d" % i)
    return fleet


def _counted(fleet) -> OperationCounter:
    counter = OperationCounter()
    fleet.group.attach_counter(counter)
    return counter


def _tamper(fleet, name: str, file_index: int = 0) -> tuple[bytes, int]:
    """Corrupt block 0 of one slice on ``name`` deterministically."""
    file_id = FILE + b"-%d" % file_index
    placement = fleet.placements.get(file_id)
    slot = placement.slot_of(name)
    server = fleet.handles[name].server
    element = server.retrieve(placement.slice_id(slot)).blocks[0].elements[0]
    server.tamper_block(placement.slice_id(slot), 0,
                        new_value=(element + 1) % fleet.params.order)
    return file_id, slot


def _forge_proofs(fleet, forge) -> None:
    """Route every proof through ``forge(name, slice_id, proof)``."""
    for name, handle in fleet.handles.items():
        honest = handle.server.generate_proof

        def generate(slice_id, challenge, name=name, honest=honest):
            return forge(name, slice_id, honest(slice_id, challenge))

        handle.server.generate_proof = generate


def _invalid(report) -> list[tuple[str, bytes, int]]:
    return [(v.server, v.file_id, v.slot) for v in report.verdicts
            if v.status == "invalid"]


def _reference_round(fleet) -> list[SliceVerdict]:
    """The slice-by-slice round: plain Eq. 6 per slice, in contact order,
    each verdict recorded and each server's outcome scored at once."""
    scoreboard = fleet.scoreboard
    scoreboard.begin_round()
    healthy, _ = scoreboard.contact_order()
    verdicts = []
    for index in healthy:
        name = scoreboard.name_of(index)
        outcome = None
        for file_id, slot in fleet.placements.slots_on(name):
            placement = fleet.placements.get(file_id)
            slice_id = placement.slice_id(slot)
            challenge = fleet.verifier.generate_challenge(slice_id, placement.stripes)
            try:
                proof = fleet.handles[name].generate_proof(slice_id, challenge)
            except ServerUnavailable:
                verdicts.append(SliceVerdict(name, file_id, slot, "timeout"))
                outcome = "timeout"
                break
            ok = fleet.verifier.verify(challenge, proof)
            fleet.ledger.append(*audit_record(fleet.verifier_name, slice_id,
                                              challenge, proof, ok))
            verdicts.append(SliceVerdict(name, file_id, slot, "ok" if ok else "invalid"))
            if outcome != "invalid":
                outcome = "ok" if ok else "invalid"
        if outcome is not None:
            {"ok": scoreboard.record_success, "invalid": scoreboard.record_invalid,
             "timeout": scoreboard.record_timeout}[outcome](index)
    return verdicts


class TestBatchFirstRound:
    def test_clean_round_costs_one_batch(self):
        fleet = _rs53()
        counter = _counted(fleet)
        report = fleet.audit_round()
        assert report.checks == 10 and report.passed
        assert report.aggregate_ok is True
        assert counter.pairings == 2
        challenged = sum(fleet.placements.get(v.file_id).stripes
                         for v in report.verdicts)
        assert counter.hash_to_g1 == challenged

    def test_one_tampered_slice_is_named_alone(self):
        fleet = _rs53()
        bad = _tamper(fleet, "cloud-s2")
        counter = _counted(fleet)
        report = fleet.audit_round()
        assert _invalid(report) == [("cloud-s2", *bad)]
        assert sum(v.status == "ok" for v in report.verdicts) == 9
        assert report.aggregate_ok is False
        assert fleet.scoreboard.quarantined_names() == ["cloud-s2"]
        # The slice-by-slice round paid 22: 2 per slice plus the batch.
        assert counter.pairings <= 22

    def test_two_tampered_slices_on_two_servers(self):
        fleet = _rs53()
        first = _tamper(fleet, "cloud-s0", file_index=1)
        second = _tamper(fleet, "cloud-s3", file_index=0)
        report = fleet.audit_round()
        assert sorted(_invalid(report)) == sorted([("cloud-s0", *first),
                                                  ("cloud-s3", *second)])
        assert fleet.scoreboard.quarantined_names() == ["cloud-s0", "cloud-s3"]

    def test_failing_round_matches_slice_by_slice_reference(self):
        ledgers, verdicts, quarantined = [], [], []
        for run in ("batched", "reference"):
            ledger = Ledger()
            fleet = _rs53(ledger=ledger)
            fleet.set_online("cloud-s1", False)
            _tamper(fleet, "cloud-s4", file_index=1)
            setup = len(ledger.entries)
            if run == "batched":
                got = fleet.audit_round().verdicts
            else:
                got = _reference_round(fleet)
            verdicts.append(got)
            quarantined.append(fleet.scoreboard.quarantined_names())
            ledgers.append([(e["kind"], e["body"]) for e in ledger.entries[setup:]])
        assert verdicts[0] == verdicts[1]
        assert [v.status for v in verdicts[0]].count("timeout") == 1
        assert [v.status for v in verdicts[0]].count("invalid") == 1
        assert quarantined[0] == quarantined[1] == ["cloud-s1", "cloud-s4"]
        assert ledgers[0] == ledgers[1]
        assert [kind for kind, _ in ledgers[0]].count("cloud_quarantine") == 2

    def test_timeout_only_round_still_aggregates_ok(self):
        fleet = _rs53()
        fleet.set_online("cloud-s1", False)
        report = fleet.audit_round()
        assert report.timeouts == 1 and report.failures == 0
        assert report.aggregate_ok is True

    def test_nothing_answered_has_no_aggregate(self):
        fleet = _rs53()
        for name in fleet.active_names:
            fleet.set_online(name, False)
        report = fleet.audit_round()
        assert report.aggregate_ok is None


class TestAdversarialRounds:
    """Forged proofs built from real ones, not hand-made bad objects."""

    def test_round_batch_rejects_delta_collusion(self):
        """σ_a·X on one server and σ_b·X⁻¹ on another leave the product
        of the σs unchanged; the random weights must still reject, and
        the split must name both slices."""
        fleet = _rs53()
        group = fleet.group
        delta = group.g1() ** 987654321
        colluders = {"cloud-s1": delta, "cloud-s3": delta.inverse()}
        target = fleet.placements.get(FILE + b"-0")

        def forge(name, slice_id, proof):
            if name in colluders and slice_id == target.slice_id(target.slot_of(name)):
                return dataclasses.replace(proof, sigma=proof.sigma * colluders[name])
            return proof

        _forge_proofs(fleet, forge)
        report = fleet.audit_round()
        assert report.aggregate_ok is False
        assert sorted(_invalid(report)) == [
            ("cloud-s1", FILE + b"-0", target.slot_of("cloud-s1")),
            ("cloud-s3", FILE + b"-0", target.slot_of("cloud-s3")),
        ]

    def test_round_names_a_shifted_alpha_alone(self):
        fleet = _rs53()
        target = fleet.placements.get(FILE + b"-1")
        slot = target.slot_of("cloud-s2")

        def forge(name, slice_id, proof):
            if slice_id == target.slice_id(slot):
                alphas = list(proof.alphas)
                alphas[1] += 1
                return dataclasses.replace(proof, alphas=tuple(alphas))
            return proof

        _forge_proofs(fleet, forge)
        report = fleet.audit_round()
        assert report.aggregate_ok is False
        assert _invalid(report) == [("cloud-s2", FILE + b"-1", slot)]
