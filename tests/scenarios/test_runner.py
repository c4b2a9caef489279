"""End-to-end runs through the scenario runner: verdicts, envelopes, faults.

Small documents (single-digit request budgets, toy-64 params) so the
whole module stays in tier-1 time, while still exercising the full
pipeline: compile -> drive -> collect -> envelope -> report.
"""

from __future__ import annotations

import pytest

from repro.obs import Observability, prometheus_text
from repro.obs.slo import (
    SLI_BAD,
    SLI_DROPPED,
    SLI_EXP,
    SLI_FINISHED,
    SLI_INVALID,
    SLI_LATENCY,
    SLI_MESSAGES,
    SLI_PAIR,
    SLI_REQUESTS,
)
from repro.scenarios import (
    EnvelopeSpec,
    ScenarioError,
    ScenarioRunner,
    VERDICT_SCHEMA,
    check_envelope,
    run_scenario,
    scenario_from_dict,
)
from repro.service import SigningJournal


def two_groups(doc: dict) -> dict:
    doc["topology"]["sem_groups"].append({"name": "other", "w": 1, "t": 1})
    return doc


class TestHappyPath:
    def test_batch_cohort_completes_budget(self, doc):
        result = run_scenario(scenario_from_dict(doc))
        assert result.issued == result.completed == 6
        assert result.failed == 0
        assert result.passed
        assert result.latency_p99_s > 0
        assert result.ops.get("exp_g1", 0) > 0

    def test_upload_and_audit_pipeline(self, doc):
        doc["topology"]["clouds"] = [{"name": "cloud"}]
        doc["topology"]["verifiers"] = [
            {"name": "tpa", "audits": "cloud", "period_s": 0.1}]
        doc["workload"]["cohorts"][0]["upload_to"] = ["cloud"]
        result = run_scenario(scenario_from_dict(doc))
        assert result.completed == 6
        assert result.clouds["cloud"]["files_stored"] == 6
        tpa = result.verifiers["tpa"]
        assert tpa["audits_passed"] > 0 and tpa["audits_failed"] == 0

    def test_global_budget_caps_cohorts(self, doc):
        doc["settings"]["max_requests"] = 4     # below the 3x2 batch demand
        result = run_scenario(scenario_from_dict(doc))
        assert result.issued == result.completed == 4


class TestEnvelope:
    def test_violation_fails_run(self, doc):
        doc["settings"]["envelope"] = {"min_completed": 999}
        result = run_scenario(scenario_from_dict(doc))
        assert not result.passed
        assert any(v.check == "min_completed" for v in result.violations)
        rendered = result.violations[0].render()
        assert "999" in rendered and "6" in rendered

    def test_check_envelope_direct(self, doc):
        result = run_scenario(scenario_from_dict(doc))
        assert check_envelope(result, EnvelopeSpec()) == []
        violations = check_envelope(result, EnvelopeSpec(
            max_p99_latency_s=1e-9, max_failed=0, min_completed=1))
        assert [v.check for v in violations] == ["max_p99_latency_s"]

    def test_op_cost_envelope_uses_model_units(self, doc):
        result = run_scenario(scenario_from_dict(doc))
        model = result.model_ops()
        assert model["exp"] > 0
        # A bound right at the observed cost passes; epsilon below fails.
        per_req = model["exp"] / result.issued
        assert check_envelope(result, EnvelopeSpec(
            max_exp_per_request=per_req)) == []
        violations = check_envelope(result, EnvelopeSpec(
            max_exp_per_request=per_req * 0.99))
        assert [v.check for v in violations] == ["max_exp_per_request"]

    def test_report_document(self, doc):
        doc["settings"]["envelope"] = {"min_completed": 6, "max_failed": 0}
        result = run_scenario(scenario_from_dict(doc))
        report = result.to_report()
        assert report["schema"] == VERDICT_SCHEMA
        assert report["scenario"] == "test-base"
        assert report["verdict"] == "pass"
        assert report["checks"] == ["max_failed", "min_completed"]
        assert report["digest"] == result.digest()


class TestFaultAxis:
    def test_crash_failover_still_completes(self, doc):
        doc["topology"]["sem_groups"][0].update(w=3, t=2)
        doc["settings"]["failover"] = {"timeout_s": 0.02}
        doc["settings"]["faults"] = [
            {"kind": "crash", "node": "sem-org-0", "at": 0.0, "until": 0.4}]
        result = run_scenario(scenario_from_dict(doc))
        assert result.completed == 6 and result.failed == 0
        assert sum(result.fault_counts.values()) > 0

    def test_partition_drops_are_counted(self, doc):
        doc["workload"]["cohorts"][0]["arrival"] = {
            "kind": "poisson", "rate_rps": 40.0}
        doc["settings"]["max_requests"] = 12
        doc["settings"]["duration_s"] = 1.0
        doc["settings"]["faults"] = [
            {"kind": "partition", "links": [["c-writers", "svc-org"]],
             "at": 0.2, "until": 0.6}]
        result = run_scenario(scenario_from_dict(doc))
        assert result.dropped_messages > 0
        assert result.lost > 0
        assert 0.0 < result.drop_rate < 1.0

    def test_initial_crash_within_tolerance(self, doc):
        doc["topology"]["sem_groups"][0].update(
            w=3, t=2, initial_crashed=1)
        doc["settings"]["failover"] = {"timeout_s": 0.02}
        result = run_scenario(scenario_from_dict(doc))
        assert result.completed == 6


class TestJournal:
    def test_pending_requests_replay_then_reruns_hit_the_cache(
            self, doc, tmp_path, group):
        path = tmp_path / "sign.journal"

        def run(**kwargs):
            journal = SigningJournal(path, group=group)
            runner = ScenarioRunner(scenario_from_dict(doc), journal=journal,
                                    **kwargs)
            return runner, runner.run(), journal

        # Cut short after admission: every request is journaled, none signed.
        _, cut, journal = run(max_events=4)
        assert cut.completed == 0 and journal.summary()["pending"] == 4
        runner, resumed, journal = run()
        assert runner.replayed == 4
        assert resumed.completed == 6 and resumed.failed == 0
        assert journal.summary()["pending"] == 0
        runner, rerun, _ = run()
        assert runner.replayed == 0 and rerun.completed == 6
        assert rerun.services["org"]["signatures_produced"] == 0

    def test_refused_unless_exactly_one_group(self, doc, tmp_path):
        runner = ScenarioRunner(scenario_from_dict(two_groups(doc)),
                                journal=SigningJournal(tmp_path / "j"))
        with pytest.raises(ScenarioError, match="exactly one SEM group"):
            runner.run()


class TestObsBindings:
    def exposition(self, doc) -> str:
        obs = Observability.create()
        run_scenario(scenario_from_dict(doc), obs=obs)
        return prometheus_text(obs.registry)

    def test_single_group_exports_sim_service_health_and_chaos(self, doc):
        doc["topology"]["sem_groups"][0].update(w=3, t=2)
        doc["settings"]["faults"] = [
            {"kind": "byzantine", "node": "sem-org-1", "at": 0.0}]
        text = self.exposition(doc)
        for series in ("sim_channel_bytes", "service_signatures_produced",
                       "failover_health_quarantined", "chaos_injected"):
            assert series in text

    def test_service_gauges_need_a_single_group(self, doc):
        text = self.exposition(two_groups(doc))
        assert "sim_channel_bytes" in text
        assert "service_signatures_produced" not in text
        assert "failover_health_" not in text

    def test_slo_store_samples_only_the_declared_series(self, doc):
        # The engine samples what its objectives read — the eight SLI
        # counters and the latency histogram — not the whole registry,
        # while the SLIs stay mirrored into the exposition.
        doc["slos"] = {
            "objectives": [
                {"name": "availability", "signal": "availability",
                 "target": 0.95},
                {"name": "latency-p90", "signal": "latency", "target": 0.9,
                 "threshold_s": 1.0},
            ],
            "expected_alerts": [],
        }
        obs = Observability.create()
        runner = ScenarioRunner(scenario_from_dict(doc), obs=obs)
        runner.run()
        store = runner.slo.store
        assert sorted(store.series) == sorted([
            SLI_REQUESTS, SLI_FINISHED, SLI_BAD, SLI_MESSAGES, SLI_DROPPED,
            SLI_EXP, SLI_PAIR, SLI_INVALID,
        ])
        assert list(store.histograms) == [SLI_LATENCY]
        assert store.samples_taken > 2
        text = prometheus_text(obs.registry)
        for name in list(store.series) + [SLI_LATENCY]:
            assert name in text


class TestClosedLoop:
    def test_closed_cohort_respects_concurrency(self, doc):
        doc["workload"]["cohorts"][0]["arrival"] = {
            "kind": "closed", "concurrency": 2, "think_time_s": 0.01}
        doc["workload"]["cohorts"][0]["members"] = 5
        doc["settings"]["max_requests"] = 8
        result = run_scenario(scenario_from_dict(doc))
        assert result.issued == result.completed == 8
