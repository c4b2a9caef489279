"""Fleet durability drills: the storage pipeline under the scenario engine.

A ``topology.fleet`` scenario runs no compiled node graph — the
erasure-coded :class:`~repro.erasure.fleet.FleetStore` is driven directly
on the simulator timer wheel, with chaos ``crash`` faults toggling whole
cloud servers.  These tests pin the two verdicts the corpus documents
claim: losing up to ``parity`` servers is survivable and self-healing
(within the durability envelope, bit-identical on a double run, repairs
offline-verifiable), and losing ``parity + 1`` fails closed with the
quarantine pager going off.
"""

from __future__ import annotations

import copy

import pytest

from repro.scenarios import ScenarioError, ScenarioRunner, run_scenario, scenario_from_dict

SURVIVABLE_DOC = {
    "name": "drill-one-loss",
    "topology": {
        "fleet": {
            "servers": 4, "parity": 2, "spares": 1, "files": 1,
            "file_size": 256, "audit_period_s": 0.1,
            "quarantine_threshold": 1, "quarantine_rounds": 3,
        },
    },
    "settings": {
        "duration_s": 0.6, "seed": 17, "param_set": "toy-64", "k": 4,
        "faults": [{"kind": "crash", "node": "fleet-s1", "at": 0.15}],
        "envelope": {
            "max_unrecoverable_files": 0,
            "min_repaired_slices": 1,
            "max_post_repair_audit_failures": 0,
            "max_repair_duration_s": 0.2,
            "max_virtual_duration_s": 1.0,
        },
    },
}

OVERLOSS_DOC = {
    "name": "drill-overloss",
    "topology": {"fleet": dict(SURVIVABLE_DOC["topology"]["fleet"])},
    "settings": {
        "duration_s": 0.6, "seed": 17, "param_set": "toy-64", "k": 4,
        "faults": [
            {"kind": "crash", "node": "fleet-s0", "at": 0.15},
            {"kind": "crash", "node": "fleet-s1", "at": 0.15},
            {"kind": "crash", "node": "fleet-s2", "at": 0.15},
        ],
        "envelope": {"max_unrecoverable_files": 0,
                     "max_virtual_duration_s": 1.0},
    },
}

QUARANTINE_SLO = {
    "objectives": [{
        "name": "quarantine-burn", "signal": "quarantine", "target": 0.90,
        "windows": [{"long_s": 0.3, "short_s": 0.1, "burn_rate": 2.0,
                     "severity": "page"}],
    }],
    "expected_alerts": [],
}


class TestSurvivableLoss:
    def test_repairs_within_the_durability_envelope(self):
        result = run_scenario(scenario_from_dict(SURVIVABLE_DOC))
        assert result.passed, [v.check for v in result.violations]
        fleet = result.fleet
        assert fleet["unrecoverable_files"] == 0
        assert fleet["repaired_slices"] >= 1
        assert fleet["post_repair_audit_failures"] == 0
        assert fleet["quarantine_trips"] == 1
        assert 0.0 < fleet["repair_duration_s"] <= 0.2

    def test_double_run_is_bit_identical(self):
        first = run_scenario(scenario_from_dict(SURVIVABLE_DOC))
        second = run_scenario(scenario_from_dict(SURVIVABLE_DOC))
        assert first.digest() == second.digest()
        assert first.deterministic_view()["fleet"] == \
            second.deterministic_view()["fleet"]

    def test_repairs_are_offline_verifiable(self, tmp_path):
        from repro.obs.ledger import Ledger, verify_ledger

        ledger = Ledger(path=tmp_path / "drill.jsonl")
        runner = ScenarioRunner(scenario_from_dict(SURVIVABLE_DOC),
                                ledger=ledger)
        result = runner.run()
        assert result.passed
        report = verify_ledger(ledger.path)
        assert report.ok, report.errors
        assert report.counts["repair_begin"] >= 1
        assert report.counts["repair_complete"] == report.counts["repair_begin"]
        assert report.counts["cloud_quarantine"] == 1
        assert report.audits_rechecked > 0 and report.audit_mismatches == 0
        assert report.open_repairs == []
        assert result.ledger["hash"] == report.head


class TestOverloss:
    def test_fails_closed_on_durability(self):
        result = run_scenario(scenario_from_dict(OVERLOSS_DOC))
        assert not result.passed
        assert [v.check for v in result.violations] == \
            ["max_unrecoverable_files"]
        assert result.fleet["unrecoverable_files"] == 1

    def test_quarantine_pager_fires_and_is_expected(self):
        doc = copy.deepcopy(OVERLOSS_DOC)
        doc["name"] = "drill-overloss-page"
        doc["slos"] = copy.deepcopy(QUARANTINE_SLO)
        doc["slos"]["expected_alerts"] = ["quarantine-burn:page"]
        result = run_scenario(scenario_from_dict(doc))
        assert "quarantine-burn:page" in (result.fired_alerts or [])
        # The only violation is durability — the page was declared, so no
        # unexpected/missing-alert violations pile on.
        assert [v.check for v in result.violations] == \
            ["max_unrecoverable_files"]

    def test_survivable_run_stays_quiet_on_the_same_slo(self):
        doc = copy.deepcopy(SURVIVABLE_DOC)
        doc["name"] = "drill-one-loss-slo"
        doc["slos"] = copy.deepcopy(QUARANTINE_SLO)
        result = run_scenario(scenario_from_dict(doc))
        assert result.passed, [v.check for v in result.violations]
        assert result.fired_alerts == []


class TestFleetSchema:
    def test_unknown_fleet_key_rejected(self):
        doc = copy.deepcopy(SURVIVABLE_DOC)
        doc["topology"]["fleet"]["stripe_width"] = 9
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_dict(doc)

    def test_parity_must_leave_a_data_shard(self):
        doc = copy.deepcopy(SURVIVABLE_DOC)
        doc["topology"]["fleet"]["parity"] = 4
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_fleet_names_join_the_fault_namespace(self):
        scenario = scenario_from_dict(SURVIVABLE_DOC)
        assert "fleet-s1" in scenario.node_names()
        doc = copy.deepcopy(SURVIVABLE_DOC)
        doc["settings"]["faults"] = [
            {"kind": "crash", "node": "no-such-server", "at": 0.1}]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_latency_objective_is_rejected_at_its_path(self):
        # A fleet drill records no request latencies: a latency objective
        # would validate and then never burn, so it fails closed instead.
        doc = copy.deepcopy(SURVIVABLE_DOC)
        doc["slos"] = copy.deepcopy(QUARANTINE_SLO)
        doc["slos"]["objectives"].append({
            "name": "slow-checks", "signal": "latency", "target": 0.9,
            "threshold_s": 0.5,
        })
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "slos.objectives[1]"
        assert "latency" in str(err.value)
