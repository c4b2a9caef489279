"""Crash-recoverable signing: journal semantics and the kill/restart drill.

The headline invariant: a service instance killed mid-round and rebuilt
over the same journal loses **zero** requests and signs **zero** requests
twice — accepted-but-unfinished work replays idempotently, and completed
work is answered from the journal's cached response without re-signing.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.blocks import aggregate_block, encode_data
from repro.net.channel import Channel
from repro.service import (
    BatchConfig,
    FailoverConfig,
    JournalError,
    SigningJournal,
    build_service_network,
)
from repro.service.api import ResponseStatus, SignRequest, SignResponse


def make_blocks_request(params, request_id=1, tag=b"j"):
    data = bytes((i + tag[0]) % 251 for i in range(40))
    blocks = tuple(encode_data(data, params, b"file-" + tag))
    return SignRequest(request_id=request_id, owner="alice", blocks=blocks)


class TestJournalUnit:
    def test_accept_complete_round_trip(self, tmp_path, params_k4, group):
        path = tmp_path / "sign.journal"
        journal = SigningJournal(path, group=group)
        request = make_blocks_request(params_k4, request_id=41)
        journal.record_accepted(request)
        assert journal.is_pending(41)
        sig = group.hash_to_g1(b"sig")
        journal.record_terminal(
            SignResponse(request_id=41, status=ResponseStatus.OK, signatures=(sig,))
        )
        reloaded = SigningJournal(path, group=group)
        assert reloaded.pending() == []
        cached = reloaded.completed_response(41)
        assert cached.ok
        assert cached.signatures == (sig,)

    def test_pending_survives_reload_with_payload_intact(self, tmp_path, params_k4, group):
        path = tmp_path / "sign.journal"
        journal = SigningJournal(path, group=group)
        request = make_blocks_request(params_k4, request_id=42)
        journal.record_accepted(request)
        (recovered,) = SigningJournal(path, group=group).pending()
        assert recovered == request  # byte-for-byte, frozen-dataclass equality

    def test_blinded_requests_round_trip(self, tmp_path, group):
        path = tmp_path / "sign.journal"
        journal = SigningJournal(path, group=group)
        blinded = (group.hash_to_g1(b"m0"), group.hash_to_g1(b"m1"))
        journal.record_accepted(
            SignRequest(request_id=43, owner="bob", blinded=blinded)
        )
        (recovered,) = SigningJournal(path, group=group).pending()
        assert recovered.blinded == blinded

    def test_terminal_without_accept_is_ignored(self, tmp_path, group):
        journal = SigningJournal(tmp_path / "j", group=group)
        journal.record_terminal(
            SignResponse(request_id=9, status=ResponseStatus.REJECTED, error="no")
        )
        assert journal.summary()["completed"] == 0

    def test_double_records_are_idempotent(self, tmp_path, params_k4, group):
        path = tmp_path / "j"
        journal = SigningJournal(path, group=group)
        request = make_blocks_request(params_k4, request_id=44)
        journal.record_accepted(request)
        journal.record_accepted(request)
        response = SignResponse(request_id=44, status=ResponseStatus.FAILED, error="x")
        journal.record_terminal(response)
        journal.record_terminal(response)
        lines = path.read_text().splitlines()
        assert len(lines) == 2

    def test_torn_tail_is_tolerated(self, tmp_path, params_k4, group):
        path = tmp_path / "j"
        journal = SigningJournal(path, group=group)
        journal.record_accepted(make_blocks_request(params_k4, request_id=45))
        with open(path, "a") as fh:
            fh.write('{"rec": "done", "id": 45, "stat')  # crash mid-append
        reloaded = SigningJournal(path, group=group)
        assert reloaded.torn_lines == 1
        assert [r.request_id for r in reloaded.pending()] == [45]

    def test_mid_file_corruption_raises(self, tmp_path, params_k4, group):
        path = tmp_path / "j"
        journal = SigningJournal(path, group=group)
        journal.record_accepted(make_blocks_request(params_k4, request_id=46))
        original = path.read_text()
        path.write_text("not json\n" + original)
        with pytest.raises(JournalError, match="line 1"):
            SigningJournal(path, group=group)

    def test_unknown_record_kind_raises(self, tmp_path, group):
        path = tmp_path / "j"
        path.write_text(json.dumps({"rec": "mystery", "id": 1}) + "\n")
        with pytest.raises(JournalError, match="mystery"):
            SigningJournal(path, group=group)


def build_network(params, journal, seed=51):
    return build_service_network(
        params,
        threshold=2,
        n_clients=2,
        rng=random.Random(seed),
        batch_config=BatchConfig(max_batch=8, max_wait_s=0.02),
        failover_config=FailoverConfig(timeout_s=0.2, max_attempts=2),
        client_service_channel=Channel(latency_s=0.005),
        service_sem_channel=Channel(latency_s=0.005),
        journal=journal,
    )


class TestKillRestart:
    def test_zero_lost_zero_duplicate_signatures(self, tmp_path, params_k4, group):
        """Kill the service mid-round; a replacement instance over the same
        journal finishes every request exactly once."""
        path = tmp_path / "sign.journal"
        journal = SigningJournal(path, group=group)
        sim, service, clients = build_network(params_k4, journal)
        payloads = {}
        for i, client in enumerate(clients):
            data = bytes([i + 1]) * 40
            file_id = b"kr-%d" % i
            message = client.request_for_data(data, file_id)
            payloads[message.payload.request_id] = (data, file_id)
            sim.send(message)
        # Run just past admission (requests journaled) but kill before any
        # reply: accepted > 0, completed == 0.
        sim.run(until=0.012)
        assert journal.summary()["accepted"] == 2
        assert journal.summary()["completed"] == 0
        del sim, service, clients  # the crash: all in-memory state gone

        # Restart: a fresh instance over the reloaded journal.
        reloaded = SigningJournal(path, group=group)
        sim2, service2, clients2 = build_network(params_k4, reloaded, seed=52)
        assert service2.recover() == 2
        sim2.run()
        assert reloaded.summary()["pending"] == 0
        assert reloaded.replayed == 2
        # Zero lost: every journaled request has exactly one OK response.
        group_ = params_k4.group
        org_pk = service2._pipeline.org_pk
        responded = [
            request_id
            for client in clients2
            for request_id in client.completed
        ]
        assert sorted(responded) == sorted(payloads)
        # Zero duplicates: one batch signed the two replayed requests once.
        assert service2.metrics.summary()["batches"] == 1
        for client in clients2:
            for request_id in client.completed:
                data, file_id = payloads[request_id]
                response = client.responses[request_id]
                for block, signature in zip(
                    encode_data(data, params_k4, file_id), response.signatures
                ):
                    assert group_.pair(signature, group_.g2()) == group_.pair(
                        aggregate_block(params_k4, block), org_pk
                    )

    def test_resubmitting_a_completed_id_returns_cached_response(
        self, tmp_path, params_k4, group
    ):
        path = tmp_path / "sign.journal"
        journal = SigningJournal(path, group=group)
        sim, service, clients = build_network(params_k4, journal)
        message = clients[0].request_for_data(b"z" * 40, b"dup")
        request = message.payload
        sim.send(message)
        sim.run()
        assert clients[0].completed == [request.request_id]
        batches_before = service.metrics.summary()["batches"]
        # The duplicate (e.g. a client retry after a lost reply) is answered
        # from the journal without a new signing round.
        cached = service.service.submit(request)
        assert cached is not None and cached.ok
        assert cached.signatures == clients[0].responses[request.request_id].signatures
        sim.run()
        assert service.metrics.summary()["batches"] == batches_before

    @pytest.mark.parametrize("finished", [True, False], ids=["done", "pending"])
    def test_reused_id_is_served_only_for_the_journaled_request(
        self, tmp_path, params_k4, group, finished
    ):
        """Ids restart with every client process: after a restart, the
        honest resubmission of a journaled request gets its cached reply,
        while the same id carrying other data is rejected, never served."""
        path = tmp_path / "sign.journal"
        journal = SigningJournal(path, group=group)
        sim, service, clients = build_network(params_k4, journal)
        message = clients[0].request_for_data(b"q" * 40, b"reuse")
        original = message.payload
        if finished:
            sim.send(message)
            sim.run()
        else:
            journal.record_accepted(original)
        reloaded = SigningJournal(path, group=group)
        sim2, service2, clients2 = build_network(params_k4, reloaded, seed=54)
        assert service2.recover() == (0 if finished else 1)
        other_data = make_blocks_request(params_k4, request_id=original.request_id)
        conflicting = SignRequest(request_id=original.request_id,
                                  owner=original.owner, blocks=other_data.blocks)
        for impostor in (conflicting,
                         SignRequest(request_id=original.request_id,
                                     owner="mallory", blocks=original.blocks)):
            rejected = service2.service.submit(impostor)
            assert rejected.status is ResponseStatus.REJECTED
            assert rejected.signatures is None
            assert "journaled for a different request" in rejected.error
        assert service2.metrics.rejected == 2
        honest = service2.service.submit(original)
        if finished:
            assert honest.ok
            assert honest.signatures == reloaded.completed_response(
                original.request_id).signatures
        else:
            assert honest is None  # already re-queued by recover()
            sim2.run()
            assert reloaded.completed_response(original.request_id).ok
        assert reloaded.summary()["accepted"] == 1

    def test_restart_after_partial_completion(self, tmp_path, params_k4, group):
        """Kill after some requests completed: only the unfinished replay."""
        path = tmp_path / "sign.journal"
        journal = SigningJournal(path, group=group)
        sim, service, clients = build_network(params_k4, journal)
        first = clients[0].request_for_data(b"a" * 40, b"p0")
        sim.send(first)
        sim.run()  # first request completes cleanly
        assert journal.summary() == {
            "accepted": 1, "completed": 1, "pending": 0,
            "replayed": 0, "torn_lines": 0,
        }
        second = clients[1].request_for_data(b"b" * 40, b"p1")
        sim.send(second)
        sim.run(until=sim.now + 0.012)  # admitted, not yet signed
        assert journal.summary()["pending"] == 1

        reloaded = SigningJournal(path, group=group)
        sim2, service2, clients2 = build_network(params_k4, reloaded, seed=53)
        assert service2.recover() == 1  # only the in-flight request replays
        sim2.run()
        assert reloaded.summary()["pending"] == 0
        completed = [i for c in clients2 for i in c.completed]
        assert completed == [second.payload.request_id]
