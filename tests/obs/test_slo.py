"""Burn-rate SLO engine: rules, alert state machine, offline report check.

The engine is driven end-to-end through a scripted SLI: a controllable
bad/finished accumulator bound via the same ``bind_sli_sources`` path
production uses, sampled into the time-series store at fixed virtual
ticks.  The alert timeline the engine produces is
then fed to :func:`check_slo_report`, the offline verifier — the same
honest-run/forged-run duality the ledger tests use.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    SLI_BAD,
    SLI_FINISHED,
    SLI_LATENCY,
    SLI_REQUESTS,
    AlertEngine,
    BurnRateRule,
    BurnRateWindow,
    LatencyTap,
    SLOObjective,
    bind_sli_sources,
    check_slo_report,
    compile_rules,
    default_windows,
    error_budget_report,
)
from repro.obs.timeseries import TimeSeriesStore


def _availability_objective(target=0.9, burn=2.0):
    return SLOObjective(
        name="avail", signal="availability", target=target,
        windows=(BurnRateWindow(long_s=1.0, short_s=0.5, burn_rate=burn),),
    )


class _ScriptedRun:
    """A store + engine fed by a controllable availability SLI."""

    def __init__(self, objective=None, for_intervals=1):
        self.state = {"bad": 0.0, "finished": 0.0}
        sources = bind_sli_sources(MetricsRegistry(), {
            SLI_BAD: lambda: self.state["bad"],
            SLI_FINISHED: lambda: self.state["finished"],
        })
        self.objective = objective or _availability_objective()
        self.store = TimeSeriesStore(sources)
        self.engine = AlertEngine(
            compile_rules([self.objective], 4.0), self.store,
            for_intervals=for_intervals,
        )
        self.now = 0.0
        self.store.sample(0.0)
        self.engine.evaluate(0.0)

    def tick(self, dt=0.25, finished=4.0, bad=0.0):
        self.now += dt
        self.state["finished"] += finished
        self.state["bad"] += bad
        self.store.sample(self.now)
        self.engine.evaluate(self.now)


class TestWindowsAndRules:
    def test_default_windows_scale_with_duration(self):
        fast, slow = default_windows(100.0)
        assert (fast.long_s, fast.short_s) == (5.0, 1.0)
        assert (slow.long_s, slow.short_s) == (25.0, 5.0)
        assert fast.burn_rate > slow.burn_rate
        assert (fast.severity, slow.severity) == ("page", "ticket")

    def test_compile_rules_is_deterministically_ordered(self):
        objectives = [
            SLOObjective(name="zeta", signal="availability"),
            SLOObjective(name="alpha", signal="drop_rate"),
        ]
        keys = [r.key for r in compile_rules(objectives, 10.0)]
        assert keys == ["alpha:page", "alpha:ticket", "zeta:page", "zeta:ticket"]

    def test_op_budget_idle_window_burns_nothing(self):
        spend = {"exp": 0.0, "requests": 0.0}
        store = TimeSeriesStore(bind_sli_sources(MetricsRegistry(), {
            "sli_exp_total": lambda: spend["exp"],
            SLI_REQUESTS: lambda: spend["requests"],
        }))
        objective = SLOObjective(name="cost", signal="op_budget", target=0.99,
                                 op="exp", budget_per_request=100.0)
        rule = BurnRateRule(objective, BurnRateWindow(1.0, 0.5, 4.0))
        store.sample(0.0)
        spend["exp"] += 500.0  # background spend, zero requests
        store.sample(1.0)
        assert rule.burn_rates(store, 1.0) == (0.0, 0.0)
        spend["requests"] += 5.0
        spend["exp"] += 1000.0
        store.sample(2.0)
        long_burn, _ = rule.burn_rates(store, 2.0)
        assert long_burn == pytest.approx(2.0)  # 200 exp/request vs 100 budget


class TestAlertStateMachine:
    def test_sustained_breach_fires_then_resolves(self):
        run = _ScriptedRun()
        for _ in range(4):          # healthy t=0.25..1.0
            run.tick()
        for _ in range(4):          # 50% failures t=1.25..2.0
            run.tick(bad=2.0)
        for _ in range(8):          # healthy again, windows flush
            run.tick()
        states = [e["state"] for e in run.engine.timeline]
        assert states == ["pending", "firing", "resolved"]
        assert run.engine.fired() == ["avail:page"]
        # The firing event precedes the resolve in virtual time.
        ts = [e["t"] for e in run.engine.timeline]
        assert ts == sorted(ts)

    def test_sustained_breach_emits_no_duplicate_transitions(self):
        run = _ScriptedRun()
        for _ in range(12):
            run.tick(bad=2.0)
        firing = [e for e in run.engine.timeline if e["state"] == "firing"]
        assert len(firing) == 1

    def test_lapsed_pending_never_fires(self):
        # for_intervals=3 keeps the rule pending across evaluations; a
        # one-tick blip lapses silently (no firing, no resolved event).
        run = _ScriptedRun(for_intervals=3)
        run.tick(bad=3.0)
        for _ in range(10):
            run.tick()
        states = [e["state"] for e in run.engine.timeline]
        assert "firing" not in states
        assert "resolved" not in states
        assert run.engine.fired() == []

    def test_panel_reports_firing_and_worst_burn(self):
        run = _ScriptedRun()
        for _ in range(6):
            run.tick(bad=2.0)
        panel = run.engine.panel()
        assert panel["firing"] == ["avail:page"]
        assert panel["burn"]["avail"] >= 2.0

    def test_timeline_round_trips_as_jsonl(self, tmp_path):
        run = _ScriptedRun()
        for _ in range(6):
            run.tick(bad=2.0)
        out = tmp_path / "alerts.jsonl"
        run.engine.write_timeline(out)
        import json
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines == run.engine.timeline


class TestErrorBudget:
    def test_blown_budget_goes_negative(self):
        run = _ScriptedRun(objective=_availability_objective(target=0.99))
        for _ in range(8):
            run.tick(bad=2.0)  # 50% bad against a 1% budget
        rows = error_budget_report([run.objective], run.store, 4.0, run.now)
        (row,) = rows
        assert row["objective"] == "avail"
        assert row["bad_ratio"] == pytest.approx(0.5)
        assert row["budget_spent"] == pytest.approx(50.0)
        assert row["budget_remaining"] == pytest.approx(-49.0)


def _honest_report():
    run = _ScriptedRun()
    for _ in range(4):
        run.tick()
    for _ in range(4):
        run.tick(bad=2.0)
    for _ in range(8):
        run.tick()
    return {
        "alerts": run.engine.timeline,
        "fired": run.engine.fired(),
        "expected_alerts": ["avail:page"],
        "error_budgets": error_budget_report(
            [run.objective], run.store, 4.0, run.now
        ),
    }


class TestCheckSloReport:
    def test_honest_report_is_clean(self):
        assert check_slo_report(_honest_report()) == []

    def test_emptied_fired_list_is_caught(self):
        report = _honest_report()
        report["fired"] = []
        problems = check_slo_report(report)
        assert any("does not match the timeline" in p for p in problems)

    def test_illegal_transition_is_caught(self):
        report = _honest_report()
        # Forge a resolve for an alert that never went pending.
        forged = dict(report["alerts"][0], alert="ghost:page",
                      objective="ghost", state="resolved")
        report["alerts"] = report["alerts"] + [forged]
        problems = check_slo_report(report)
        assert any("ghost:page" in p and "start -> resolved" in p
                   for p in problems)

    def test_burn_rate_below_threshold_firing_is_caught(self):
        report = _honest_report()
        doctored = dict(report["alerts"][1])  # the firing event
        doctored["burn_long"] = 0.0
        report["alerts"] = [report["alerts"][0], doctored,
                            report["alerts"][2]]
        problems = check_slo_report(report)
        assert any("below threshold" in p for p in problems)

    def test_budget_arithmetic_forgery_is_caught(self):
        report = _honest_report()
        report["error_budgets"][0]["budget_remaining"] += 0.5
        problems = check_slo_report(report)
        assert any("budget_remaining" in p for p in problems)

    def test_expected_alerts_exactness_cuts_both_ways(self):
        report = _honest_report()
        report["expected_alerts"] = []
        problems = check_slo_report(report)
        assert any("was not expected" in p for p in problems)
        report = _honest_report()
        report["expected_alerts"] = ["avail:page", "drops:page"]
        problems = check_slo_report(report)
        assert any("'drops:page' never fired" in p for p in problems)

    def test_objective_name_covers_any_severity(self):
        report = _honest_report()
        report["expected_alerts"] = ["avail"]
        assert check_slo_report(report) == []


class TestLatencyTap:
    def test_absorbs_each_completion_exactly_once(self):
        registry = MetricsRegistry()
        tap = LatencyTap(registry)
        latencies = []
        tap.add_source(latencies)
        latencies.extend([0.01, 0.5])
        registry.collect()
        child = registry._metrics[SLI_LATENCY]._children[()]
        assert child.count == 2
        registry.collect()  # no new entries: nothing double-absorbed
        assert child.count == 2
        latencies.append(2.0)
        registry.collect()
        assert child.count == 3
        assert child.total == pytest.approx(2.51)
