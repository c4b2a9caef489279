"""Tamper-evident ledger: chain integrity, crash semantics, Eq. 6 recheck.

The property tests drive a 1000-entry chain through the full tamper
catalogue — single-bit flips at seeded-random byte positions, entry
deletion, adjacent-entry reorder, suffix truncation — and require
``verify_ledger`` (anchored by the out-of-band head digest, the
documented trust root) to detect every one.  Semantic forgery is
exercised against real Type A crypto: an audit entry whose recorded
verdict contradicts its own recorded proof fails the offline Eq. 6
re-evaluation even though its hash chain is immaculate.
"""

import json
import random

import pytest

from repro.obs.ledger import (
    DEFAULT_EPOCH_LEN,
    GENESIS_PREV,
    Ledger,
    LedgerError,
    entry_hash,
    ledger_head,
    read_ledger,
    verify_ledger,
)

CHAIN_LEN = 1000


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A 1000-entry file-backed chain and its head hash (built once)."""
    path = tmp_path_factory.mktemp("ledger") / "chain.jsonl"
    ledger = Ledger(path, epoch_len=64)
    ledger.ensure_genesis({"scenario": "property", "seed": 1})
    i = 0
    while ledger.head()["entries"] < CHAIN_LEN:
        ledger.append("round", {"round": i, "ok": i % 7 != 3})
        i += 1
    return path, ledger.head()["hash"]


def _mutate(path, tmp_path, transform, name="mutated.jsonl"):
    copy = tmp_path / name
    copy.write_bytes(transform(path.read_bytes()))
    return copy


class TestChainProperties:
    def test_pristine_chain_verifies(self, chain):
        path, head = chain
        report = verify_ledger(path, expect_head=head)
        assert report.ok
        assert report.entries == CHAIN_LEN
        assert report.head == head
        assert report.counts["checkpoint"] == CHAIN_LEN // 64

    def test_any_single_bit_flip_is_detected(self, chain, tmp_path):
        path, head = chain
        data = path.read_bytes()
        rng = random.Random(1311)
        for trial in range(32):
            index = rng.randrange(len(data))
            mutated = bytearray(data)
            mutated[index] ^= 1 << rng.randrange(8)
            copy = _mutate(path, tmp_path, lambda _: bytes(mutated),
                           name=f"flip{trial}.jsonl")
            report = verify_ledger(copy, expect_head=head)
            assert not report.ok, (
                f"bit flip at byte {index} survived verification"
            )

    def test_entry_deletion_is_detected(self, chain, tmp_path):
        path, head = chain
        lines = path.read_bytes().splitlines(keepends=True)
        rng = random.Random(1693)
        for trial in range(8):
            victim = rng.randrange(len(lines) - 1)
            copy = _mutate(
                path, tmp_path,
                lambda _: b"".join(lines[:victim] + lines[victim + 1:]),
                name=f"del{trial}.jsonl")
            report = verify_ledger(copy, expect_head=head)
            assert not report.ok
            assert any("deleted, inserted, or reordered" in e or "head hash" in e
                       or "link broken" in e for e in report.errors)

    def test_entry_reorder_is_detected(self, chain, tmp_path):
        path, head = chain
        lines = path.read_bytes().splitlines(keepends=True)
        rng = random.Random(1759)
        for trial in range(8):
            at = rng.randrange(1, len(lines) - 1)
            swapped = list(lines)
            swapped[at], swapped[at - 1] = swapped[at - 1], swapped[at]
            copy = _mutate(path, tmp_path, lambda _: b"".join(swapped),
                           name=f"swap{trial}.jsonl")
            report = verify_ledger(copy, expect_head=head)
            assert not report.ok

    def test_suffix_truncation_needs_the_head_anchor(self, chain, tmp_path):
        """Dropping whole trailing lines leaves a self-consistent chain —
        only the out-of-band head digest can tell."""
        path, head = chain
        lines = path.read_bytes().splitlines(keepends=True)
        copy = _mutate(path, tmp_path, lambda _: b"".join(lines[:-5]),
                       name="trunc.jsonl")
        assert verify_ledger(copy).ok  # internally consistent!
        report = verify_ledger(copy, expect_head=head)
        assert not report.ok
        assert any("truncated or wholly replaced" in e for e in report.errors)

    def test_forged_hash_tail_still_breaks_at_the_head(self, chain, tmp_path):
        """Re-sealing every hash after an edit yields a valid-looking chain
        whose head no longer matches the pinned digest."""
        path, head = chain
        entries, _ = read_ledger(path)
        entries[500]["body"]["ok"] = not entries[500]["body"]["ok"]
        prev = entries[499]["hash"]
        for entry in entries[500:]:
            entry["prev"] = prev
            entry["hash"] = entry_hash(entry)
            prev = entry["hash"]
        for entry in entries:  # re-pin checkpoints to the forged chain
            if entry["kind"] == "checkpoint":
                entry["body"]["head"] = entries[entry["seq"] - 1]["hash"]
                entry["hash"] = entry_hash(entry)
        # (checkpoint re-sealing above invalidates later prevs again; a real
        # forger must iterate — one pass is enough to show the principle
        # when the edit sits after the last checkpoint.)
        forged = tmp_path / "forged.jsonl"
        forged.write_text("".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in entries))
        report = verify_ledger(forged, expect_head=head, recheck=False)
        assert not report.ok


class TestCrashSemantics:
    def test_torn_tail_is_tolerated_and_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        ledger = Ledger(path, epoch_len=8)
        ledger.ensure_genesis({"run": 1})
        for i in range(5):
            ledger.append("round", {"round": i})
        with open(path, "a") as fh:
            fh.write('{"seq": 6, "kind": "round", "bo')  # crash mid-append
        entries, torn = read_ledger(path)
        assert torn and len(entries) == 6
        assert verify_ledger(path).ok  # torn tail is not tamper
        reopened = Ledger(path, epoch_len=8)
        assert reopened.torn_tail
        reopened.append("round", {"round": 6})
        entries, torn = read_ledger(path)
        assert not torn
        assert entries[-1]["kind"] == "round"
        assert verify_ledger(path).ok

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ledger = Ledger(path)
        ledger.ensure_genesis({"run": 1})
        ledger.append("round", {"round": 0})
        ledger.append("round", {"round": 1})
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # torn *before* the tail: unusable
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="line 2"):
            read_ledger(path)
        assert not verify_ledger(path).ok

    def test_resume_continues_the_chain(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        first = Ledger(path, epoch_len=4)
        first.ensure_genesis({"run": 1})
        first.append("round", {"round": 0})
        head_before = first.head()
        second = Ledger(path, epoch_len=4)
        assert second.head() == head_before
        second.append("round", {"round": 1})
        assert verify_ledger(path).ok

    def test_resume_adopts_the_genesis_epoch_len(self, tmp_path):
        path = tmp_path / "epoch.jsonl"
        Ledger(path, epoch_len=4).ensure_genesis({"run": 1})
        resumed = Ledger(path)  # default epoch_len, corrected by genesis
        assert resumed.epoch_len == 4

    def test_resume_rejects_a_tampered_file(self, tmp_path):
        path = tmp_path / "tampered.jsonl"
        ledger = Ledger(path)
        ledger.ensure_genesis({"run": 1})
        ledger.append("round", {"round": 0})
        data = path.read_text().replace('"round":0', '"round":9')
        path.write_text(data)
        with pytest.raises(LedgerError):
            Ledger(path)


class TestChainMechanics:
    def test_checkpoints_land_on_epoch_boundaries(self, tmp_path):
        ledger = Ledger(epoch_len=4)
        for i in range(10):
            ledger.append("round", {"round": i})
        kinds = [e["kind"] for e in ledger.entries]
        for seq, kind in enumerate(kinds):
            assert (kind == "checkpoint") == (seq % 4 == 0 and seq > 0)

    def test_genesis_prev_and_epoch_len_floor(self):
        ledger = Ledger()
        entry = ledger.append("round", {"round": 0})
        assert entry["prev"] == GENESIS_PREV
        with pytest.raises(LedgerError):
            Ledger(epoch_len=1)

    def test_ensure_genesis_is_idempotent_until_meta_changes(self):
        ledger = Ledger()
        assert ledger.ensure_genesis({"scenario": "a", "seed": 1})
        assert not ledger.ensure_genesis({"scenario": "a", "seed": 1})
        assert ledger.ensure_genesis({"scenario": "a", "seed": 2})
        assert sum(1 for e in ledger.entries if e["kind"] == "genesis") == 2

    def test_ledger_head_matches_live_head(self, tmp_path):
        path = tmp_path / "head.jsonl"
        ledger = Ledger(path, epoch_len=4)
        ledger.ensure_genesis({"run": 1})
        for i in range(6):
            ledger.append("round", {"round": i})
        assert ledger_head(path) == ledger.head()
        assert ledger_head(path)["epoch"] == ledger.head()["entries"] // 4

    def test_in_memory_mode_never_touches_disk(self):
        ledger = Ledger()
        ledger.append("round", {"round": 0})
        assert ledger.path is None
        assert len(ledger.entries) == 1
        assert ledger.counts == {"round": 1}

    def test_epoch_len_default(self):
        assert Ledger().epoch_len == DEFAULT_EPOCH_LEN


class TestOfflineRecheck:
    @pytest.fixture(scope="class")
    def audit_material(self):
        """One real signed block + a passing (challenge, proof) pair."""
        from repro.core.cloud import CloudServer
        from repro.core.owner import DataOwner
        from repro.core.params import setup
        from repro.core.sem import SecurityMediator
        from repro.core.verifier import PublicVerifier
        from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

        group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
        params = setup(group, 2, seed=b"ledger-recheck")
        rng = random.Random(5)
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params, sem.pk, rng=rng)
        signed = owner.sign_file(b"x" * 40, b"fid", sem, batch=True)
        cloud = CloudServer(params, org_pk=sem.pk)
        cloud.store(signed)
        verifier = PublicVerifier(params, sem.pk, rng=random.Random(7))
        challenge = verifier.generate_challenge(b"fid", len(signed.blocks))
        proof = cloud.generate_proof(b"fid", challenge)
        assert verifier.verify(challenge, proof)
        return params, sem, challenge, proof

    def _write_audited_chain(self, tmp_path, audit_material, ok, name):
        params, sem, challenge, proof = audit_material
        path = tmp_path / name
        ledger = Ledger(path)
        ledger.ensure_genesis({
            "param_set": "toy-64", "k": 2,
            "setup_seed": params.seed.hex(),
        })
        ledger.append("verifier_key", {"verifier": "tpa",
                                       "pk": sem.pk.to_bytes().hex()})
        ledger.append("audit", {
            "verifier": "tpa",
            "file": b"fid".hex(),
            "indices": [int(i) for i in challenge.indices],
            "betas": [int(b) for b in challenge.betas],
            "sigma": proof.sigma.to_bytes().hex(),
            "alphas": [int(a) for a in proof.alphas],
            "ok": ok,
        })
        return path

    def test_honest_verdict_rechecks_clean(self, tmp_path, audit_material):
        path = self._write_audited_chain(tmp_path, audit_material, True,
                                         "honest.jsonl")
        report = verify_ledger(path)
        assert report.ok
        assert report.audits_rechecked == 1
        assert report.audit_mismatches == 0

    def test_forged_verdict_fails_eq6_recheck(self, tmp_path, audit_material):
        """A consistently re-chained lie: hashes all valid, verdict false."""
        path = self._write_audited_chain(tmp_path, audit_material, False,
                                         "forged.jsonl")
        report = verify_ledger(path)
        assert not report.ok
        assert report.audit_mismatches == 1
        assert any("forged verdict" in e for e in report.errors)
        # The chain itself is immaculate — only the recheck catches it.
        assert verify_ledger(path, recheck=False).ok

    def test_recheck_skipped_without_key_material(self, tmp_path):
        path = tmp_path / "nokey.jsonl"
        ledger = Ledger(path)
        ledger.ensure_genesis({"scenario": "x", "seed": 0})  # no crypto pins
        ledger.append("audit", {"verifier": "tpa", "ok": True})
        report = verify_ledger(path)
        assert report.ok
        assert report.audits_rechecked == 0


class TestRepairLifecycle:
    """Fleet repair records must form a begin → slice* → complete chain."""

    def _ledger(self, tmp_path, name="repairs.jsonl"):
        path = tmp_path / name
        ledger = Ledger(path)
        ledger.ensure_genesis({"scenario": "repairs", "seed": 0})
        return path, ledger

    @staticmethod
    def _begin(ledger, repair="abcd.1", stripes=3):
        ledger.append("repair_begin", {
            "repair": repair, "file": "aa", "slot": 1,
            "from": "cloud-s1", "to": "cloud-s4", "stripes": stripes,
        })

    def test_clean_lifecycle_verifies(self, tmp_path):
        path, ledger = self._ledger(tmp_path)
        self._begin(ledger)
        ledger.append("repair_slice", {"repair": "abcd.1", "stripes": 3,
                                       "digest": "00"})
        ledger.append("repair_complete", {"repair": "abcd.1",
                                          "server": "cloud-s4", "slices": 3,
                                          "audit_ok": True})
        report = verify_ledger(path)
        assert report.ok, report.errors
        assert report.repairs_checked == 3
        assert report.open_repairs == []

    def test_spliced_slice_without_begin_rejected(self, tmp_path):
        path, ledger = self._ledger(tmp_path)
        ledger.append("repair_slice", {"repair": "feed.1", "stripes": 3,
                                       "digest": "00"})
        report = verify_ledger(path)
        assert not report.ok
        assert any("spliced repair record" in e for e in report.errors)

    def test_complete_after_close_rejected(self, tmp_path):
        path, ledger = self._ledger(tmp_path)
        self._begin(ledger)
        ledger.append("repair_complete", {"repair": "abcd.1",
                                          "server": "cloud-s4", "slices": 3,
                                          "audit_ok": True})
        ledger.append("repair_complete", {"repair": "abcd.1",
                                          "server": "cloud-s4", "slices": 3,
                                          "audit_ok": True})
        report = verify_ledger(path)
        assert not report.ok
        assert any("never begun (or already closed)" in e for e in report.errors)

    def test_begin_twice_rejected(self, tmp_path):
        path, ledger = self._ledger(tmp_path)
        self._begin(ledger)
        self._begin(ledger)
        report = verify_ledger(path)
        assert not report.ok
        assert any("begun twice" in e for e in report.errors)

    def test_stripe_count_mismatch_rejected(self, tmp_path):
        path, ledger = self._ledger(tmp_path)
        self._begin(ledger, stripes=3)
        ledger.append("repair_slice", {"repair": "abcd.1", "stripes": 2,
                                       "digest": "00"})
        ledger.append("repair_complete", {"repair": "abcd.1",
                                          "server": "cloud-s4", "slices": 5,
                                          "audit_ok": True})
        report = verify_ledger(path)
        assert not report.ok
        assert sum("repair abcd.1" in e for e in report.errors) == 2

    def test_open_repair_at_tail_tolerated_but_surfaced(self, tmp_path):
        path, ledger = self._ledger(tmp_path)
        self._begin(ledger, repair="feed.2")
        report = verify_ledger(path)
        assert report.ok, report.errors
        assert report.open_repairs == ["feed.2"]

    def test_failed_repair_closes_the_record(self, tmp_path):
        path, ledger = self._ledger(tmp_path)
        self._begin(ledger)
        ledger.append("repair_failed", {"repair": "abcd.1",
                                        "reason": "fewer than data_shards"})
        report = verify_ledger(path)
        assert report.ok, report.errors
        assert report.open_repairs == []


class TestMalformedRecords:
    """Lines that parse as JSON but are not ledger records fail closed:
    every reader raises :class:`LedgerError` (or reports a FAIL verdict
    naming the line) instead of crashing on the record's shape."""

    NOT_RECORDS = ["[]", "7", '{"seq":0}']
    NON_OBJECT_BODIES = ["metering", "repair_begin", "dyn_create", "checkpoint"]

    @staticmethod
    def _chain(tmp_path):
        path = tmp_path / "chain.jsonl"
        ledger = Ledger(path)
        ledger.ensure_genesis({"scenario": "shapes", "seed": 0})
        ledger.append("round", {"round": 0})
        return path, ledger

    @staticmethod
    def _append_sealed(path, kind, body):
        """Seal one entry by hand, bypassing ``Ledger.append``'s dict body."""
        head = ledger_head(path)
        entry = {"seq": head["entries"], "t": 0.0, "kind": kind,
                 "body": body, "prev": head["hash"]}
        entry["hash"] = entry_hash(entry)
        with open(path, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")

    @staticmethod
    def _cli(capsys, *argv):
        from repro.cli import main

        code = main(["ledger", *argv])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        return code, out + err

    @pytest.mark.parametrize("line", NOT_RECORDS)
    @pytest.mark.parametrize("where", ["middle", "tail"])
    def test_non_record_line_fails_every_reader(self, tmp_path, capsys, line, where):
        path, ledger = self._chain(tmp_path)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        if where == "middle":
            ledger.append("round", {"round": 1})
        with pytest.raises(LedgerError, match="line 3"):
            read_ledger(path)
        with pytest.raises(LedgerError, match="line 3"):
            Ledger(path)
        with pytest.raises(LedgerError, match="line 3"):
            ledger_head(path)
        report = verify_ledger(path)
        assert not report.ok
        assert any("line 3" in e for e in report.errors)
        code, out = self._cli(capsys, "verify", str(path))
        assert code == 1 and "FAIL" in out and "line 3" in out
        for command in ("show", "head"):
            code, out = self._cli(capsys, command, str(path))
            assert code == 2 and "line 3" in out

    @pytest.mark.parametrize("kind", NON_OBJECT_BODIES)
    @pytest.mark.parametrize("body", [[], 7, "text", None])
    def test_sealed_entry_with_non_object_body_is_rejected(self, tmp_path, capsys,
                                                           kind, body):
        path, _ = self._chain(tmp_path)
        self._append_sealed(path, kind, body)
        with pytest.raises(LedgerError, match="malformed ledger record at line 3"):
            Ledger(path)
        with pytest.raises(LedgerError, match="line 3"):
            ledger_head(path)
        report = verify_ledger(path)
        assert not report.ok
        assert any("line 3" in e for e in report.errors)
        code, out = self._cli(capsys, "verify", str(path))
        assert code == 1 and "line 3" in out
        for command in ("show", "head"):
            assert self._cli(capsys, command, str(path))[0] == 2

    @pytest.mark.parametrize("field,value", [
        ("seq", "0"), ("seq", True), ("t", "now"), ("kind", 1),
        ("prev", None), ("hash", 5),
    ])
    def test_mistyped_envelope_field_is_rejected(self, tmp_path, field, value):
        path, _ = self._chain(tmp_path)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry[field] = value
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="line 2"):
            read_ledger(path)
        assert not verify_ledger(path).ok

    def test_unparseable_create_leaves_fail_with_the_entry_label(self, tmp_path,
                                                                 capsys):
        path, ledger = self._chain(tmp_path)
        ledger.append("dyn_create", {"file": "aa", "epoch": 0, "count": 1,
                                     "root": "00", "leaves": [5]})
        assert ledger_head(path) == ledger.head()
        report = verify_ledger(path)
        assert not report.ok
        assert any(e.startswith("entry 2:") and "unparseable create leaves" in e
                   for e in report.errors)
        code, out = self._cli(capsys, "verify", str(path))
        assert code == 1 and "entry 2:" in out

    @pytest.mark.parametrize("kind,body", [
        ("metering", {"epoch": 1, "scope": "s", "delta": [1], "total": {}}),
        ("metering_close", {"totals": [1]}),
        ("dyn_update_commit", {"file": "aa", "batch": "b1"}),
    ])
    def test_raising_checker_is_a_fail_on_the_entry(self, tmp_path, kind, body):
        """A checker that raises on a mistyped field yields a FAIL verdict
        labelled with that entry, never an uncaught exception."""
        from repro.dynamic.rank_tree import RankTree

        path, ledger = self._chain(tmp_path)
        if kind == "dyn_update_commit":
            root = RankTree([b"leaf"]).root.hex()
            ledger.append("dyn_create", {"file": "aa", "epoch": 0, "count": 1,
                                         "root": root, "leaves": [b"leaf".hex()]})
            ledger.append("dyn_update_begin", {"file": "aa", "batch": "b1",
                                               "root_before": root, "ops": 5})
        entry = ledger.append(kind, body)
        report = verify_ledger(path)
        assert len(report.errors) == 1
        assert report.errors[0].startswith(f"entry {entry['seq']}: malformed {kind} record:")
