"""Tests for the periodic audit service."""

import pytest

from repro.core.verifier import PublicVerifier
from repro.net import build_protocol_network
from repro.net.audit_service import AuditServiceNode


@pytest.fixture()
def deployment(params_k4, rng):
    sim, owner, verifier = build_protocol_network(params_k4, rng=rng)
    for message in owner.start_upload(b"scheduled audit data " * 5, b"f"):
        sim.send(message)
    sim.run()
    n = sim.nodes["cloud"].server.retrieve(b"f").n_blocks
    auditor = AuditServiceNode(
        "auditor",
        PublicVerifier(params_k4, verifier.verifier.org_pk, rng=rng),
        period_s=10.0,
    )
    sim.add_node(auditor)
    auditor.watch(b"f", n)
    return sim, auditor


class TestAuditService:
    def test_periodic_audits_accumulate(self, deployment):
        sim, auditor = deployment
        auditor.start()
        sim.run(until=45.0)
        history = auditor.history(b"f")
        assert len(history) == 4  # ticks at t = 10, 20, 30, 40
        assert all(r.passed for r in history)
        assert auditor.pass_rate(b"f") == 1.0
        assert auditor.alerts == []

    def test_detects_corruption_within_one_period(self, deployment):
        sim, auditor = deployment
        auditor.start()
        sim.run(until=15.0)  # one clean audit
        sim.nodes["cloud"].server.tamper_block(b"f", 0)
        sim.run(until=45.0)
        assert auditor.alerts and auditor.alerts[0][0] == b"f"
        # Alert raised at the first audit after corruption (t = 20).
        assert auditor.alerts[0][1] == pytest.approx(20.0, abs=1.0)

    def test_alert_threshold(self, deployment):
        sim, auditor = deployment
        auditor.alert_threshold = 3
        auditor.start()
        sim.nodes["cloud"].server.tamper_block(b"f", 0)
        sim.run(until=25.0)  # 2 failing audits: below threshold
        assert auditor.alerts == []
        sim.run(until=35.0)  # third failure
        assert len(auditor.alerts) == 1

    def test_stop_halts_schedule(self, deployment):
        sim, auditor = deployment
        auditor.start()
        sim.run(until=15.0)
        auditor.stop()
        sim.run(until=100.0)
        assert len(auditor.history(b"f")) == 1

    def test_requires_simulator(self, params_k4, rng):
        auditor = AuditServiceNode(
            "a", PublicVerifier(params_k4, params_k4.group.g1(), rng=rng)
        )
        with pytest.raises(RuntimeError):
            auditor.start()

    def test_unwatched_proof_ignored(self, deployment, rng):
        sim, auditor = deployment
        # Proofs for files the auditor never registered are dropped.
        from repro.net.message import Message

        verifier = auditor.verifier
        ch = verifier.generate_challenge(b"f", 2)
        sim.send(
            Message(
                sender="cloud",
                recipient="auditor",
                msg_type="proof",
                payload=(b"other-file", ch, None),
            )
        )
        sim.run()
        assert b"other-file" not in auditor.watched

    def test_pass_rate_empty(self, deployment):
        _, auditor = deployment
        assert auditor.pass_rate(b"f") == 0.0

    def test_sampled_schedule(self, params_k4, rng):
        sim, owner, verifier = build_protocol_network(params_k4, rng=rng)
        for message in owner.start_upload(b"sampled schedule " * 6, b"f"):
            sim.send(message)
        sim.run()
        n = sim.nodes["cloud"].server.retrieve(b"f").n_blocks
        auditor = AuditServiceNode(
            "auditor",
            PublicVerifier(params_k4, verifier.verifier.org_pk, rng=rng),
            period_s=5.0,
            sample_size=2,
        )
        sim.add_node(auditor)
        auditor.watch(b"f", n)
        auditor.start()
        sim.run(until=21.0)
        assert len(auditor.history(b"f")) == 4
        assert auditor.pass_rate(b"f") == 1.0
