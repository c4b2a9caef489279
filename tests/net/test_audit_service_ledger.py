"""The periodic auditor as the scenario compiler builds it: a horizon that
stops its ticks, and a flight-recorder ledger that holds every challenge
and verdict so ``ledger verify`` can recheck them offline."""

from repro.core.verifier import PublicVerifier
from repro.net import build_protocol_network
from repro.net.audit_service import AuditServiceNode
from repro.obs.ledger import Ledger, verify_ledger


def _deployment(params, rng, **auditor_options):
    sim, owner, verifier = build_protocol_network(params, rng=rng)
    for message in owner.start_upload(b"horizon and ledger " * 5, b"f"):
        sim.send(message)
    sim.run()
    org_pk = verifier.verifier.org_pk
    auditor = AuditServiceNode(
        "auditor", PublicVerifier(params, org_pk, rng=rng), period_s=10.0,
        **auditor_options,
    )
    sim.add_node(auditor)
    auditor.watch(b"f", sim.nodes["cloud"].server.retrieve(b"f").n_blocks)
    return sim, auditor, org_pk


class TestHorizon:
    def test_no_tick_after_horizon(self, params_k4, rng):
        sim, auditor, _ = _deployment(params_k4, rng, horizon_s=25.0)
        auditor.start()
        sim.run()  # drains: the tick past the horizon schedules no other
        assert [r.time for r in auditor.history(b"f")] == [10.0, 20.0]
        assert auditor.audits_passed == 2
        assert auditor.audits_failed == 0


class TestLedger:
    def test_ticks_append_records_that_recheck_clean(self, params_k4, rng, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        sim, auditor, org_pk = _deployment(params_k4, rng, ledger=ledger)
        ledger.clock = lambda: sim.now
        ledger.ensure_genesis({"param_set": "toy-64", "k": params_k4.k,
                               "setup_seed": params_k4.seed.hex()})
        ledger.pin_verifier("auditor", org_pk)
        auditor.start()
        sim.run(until=25.0)  # two passing audits
        sim.nodes["cloud"].server.tamper_block(b"f", 0)
        sim.run(until=35.0)  # one failing audit
        assert (auditor.audits_passed, auditor.audits_failed) == (2, 1)
        assert ledger.counts["challenge"] == 3
        assert ledger.counts["audit"] == 3
        report = verify_ledger(path)
        assert report.ok, report.errors
        assert report.audits_rechecked == 3
        assert report.audit_mismatches == 0
