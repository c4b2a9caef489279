"""The serve-sim flag shim: legacy flags become one scenario document.

``scenario_from_legacy_args`` must map every flag onto its scenario
field — a ``--chaos`` plan onto ``settings.faults`` under the scenario
naming contract — so the flag path runs through the one scenario
compiler with the historical operation counts, and ``warn_if_mixed``
must detect non-default flags next to ``--scenario`` — once per process,
listing the offenders.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

import repro.scenarios.legacy as legacy_mod
from repro.cli import build_parser, main
from repro.scenarios import (
    ScenarioError,
    ScenarioRunner,
    scenario_from_legacy_args,
    warn_if_mixed,
)

PLANS = Path(__file__).resolve().parents[1] / "chaos" / "plans"


def legacy_args(**overrides) -> argparse.Namespace:
    """The serve-sim parser's own defaults, with ``overrides`` applied."""
    args = build_parser().parse_args(["serve-sim"])
    vars(args).update(overrides)
    return args


DEFAULTS = vars(legacy_args())


class TestScenarioSynthesis:
    def test_defaults_map_to_single_sem(self):
        scenario = scenario_from_legacy_args(legacy_args())
        assert scenario.name == "serve-sim-legacy"
        assert scenario.settings.faults == ()
        assert scenario.settings.fault_seed is None
        (group,) = scenario.topology.sem_groups
        assert group.name == "main" and (group.w, group.t) == (1, 1)
        (cohort,) = scenario.workload.cohorts
        assert cohort.name == "clients" and cohort.members == 2
        assert cohort.arrival.kind == "batch"
        assert cohort.arrival.requests_per_member == 2
        assert scenario.settings.max_requests == 4

    def test_threshold_expands_to_paper_deployment(self):
        # The paper deploys w = 2t - 1 (tolerates t - 1 unavailable).
        scenario = scenario_from_legacy_args(legacy_args(threshold=3))
        (group,) = scenario.topology.sem_groups
        assert (group.w, group.t) == (5, 3)

    def test_flags_land_in_settings(self):
        scenario = scenario_from_legacy_args(legacy_args(
            seed=9, k=6, max_batch=8, max_wait=0.05, timeout=0.2,
            latency=0.01, drop_rate=0.02, file_bytes=128,
            round_deadline=2.5))
        s = scenario.settings
        assert s.seed == 9 and s.k == 6
        assert s.batch.max_batch == 8 and s.batch.max_wait_s == 0.05
        assert s.failover.timeout_s == 0.2
        assert s.failover.round_deadline_s == 2.5
        link = scenario.topology.default_link
        assert link.latency_s == 0.01 and link.drop_rate == 0.02
        (cohort,) = scenario.workload.cohorts
        assert cohort.file_sizes.bytes == 128

    def test_crash_maps_to_initial_crashed(self):
        scenario = scenario_from_legacy_args(legacy_args(threshold=2, crash=1))
        assert scenario.topology.sem_groups[0].initial_crashed == 1

    def test_illegal_crash_rejected_by_schema(self):
        # Crashing 2 of w=3 leaves fewer than t=2 live mediators.
        with pytest.raises(ScenarioError):
            scenario_from_legacy_args(legacy_args(threshold=2, crash=2))


class TestChaosPlan:
    def test_plan_lands_in_settings_under_scenario_names(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"name": "mapped", "seed": 4, "faults": [
            {"kind": "crash", "node": "sem-2", "at": 0.1},
            {"kind": "partition", "links": [["service", "sem-0"],
                                            ["client-1", "*"]]},
        ]}))
        scenario = scenario_from_legacy_args(
            legacy_args(threshold=2, chaos=str(plan)))
        crash, partition = scenario.settings.faults
        assert crash.node == "sem-main-2" and crash.at == 0.1
        assert partition.links == (("svc-main", "sem-main-0"),
                                   ("c-clients", "*"))
        assert scenario.settings.fault_seed == 4
        assert scenario.settings.fault_plan_name == "mapped"

    def test_chaos_seed_overrides_the_plan_seed(self):
        scenario = scenario_from_legacy_args(legacy_args(
            threshold=2, chaos=str(PLANS / "byzantine_quarantine.json"),
            chaos_seed=99))
        assert scenario.settings.fault_seed == 99

    def test_unknown_node_rejected_by_schema(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [
            {"kind": "crash", "node": "sem-3", "at": 0.0}]}))
        with pytest.raises(ScenarioError, match="sem-main-3"):
            scenario_from_legacy_args(legacy_args(threshold=2, chaos=str(plan)))
        # w = 3 SEMs are sem-0..sem-2: the CLI refuses the plan up front.
        assert main(["serve-sim", "--threshold", "2",
                     "--chaos", str(plan)]) == 2


class TestParity:
    """The flag path through the one compiler reproduces the operation
    counts, fault counts and quarantine trips of the historical wiring."""

    MODEL_EXP = ("exp_g1", "exp_g1_fixed_base", "exp_g1_msm",
                 "exp_g1_skipped")

    @pytest.mark.parametrize("flags, counts, exp, pairs, hashes, faults, trips", [
        (dict(threshold=2, clients=2, requests=2, round_deadline=3.0,
              chaos=str(PLANS / "byzantine_quarantine.json")),
         (4, 4, 0), (136, 64, 24, 8), 8, 12, {"byzantine": 1}, (1, 1)),
        (dict(threshold=2, crash=1, clients=2, requests=1, seed=5),
         (2, 2, 0), (52, 32, 12, 4), 6, 6, {}, (0, 0)),
        (dict(clients=2, requests=1),
         (2, 2, 0), (25, 32, 12, 4), 4, 6, {}, (0, 0)),
    ], ids=["ci-chaos", "threshold-crash", "single-sem"])
    def test_flag_runs_match_the_pinned_counts(self, flags, counts, exp, pairs,
                                               hashes, faults, trips):
        result = ScenarioRunner(
            scenario_from_legacy_args(legacy_args(**flags))).run()
        assert (result.issued, result.completed, result.failed) == counts
        assert tuple(result.ops.get(k, 0) for k in self.MODEL_EXP) == exp
        assert result.ops["pairings"] == pairs
        assert result.ops["hash_to_g1"] == hashes
        assert result.fault_counts == faults
        service = result.services["main"]
        assert (service["quarantine_trips"],
                service["invalid_share_batches"]) == trips


class TestMixingWarning:
    @pytest.fixture(autouse=True)
    def reset_warning_latch(self):
        legacy_mod._warned_mixed = False
        yield
        legacy_mod._warned_mixed = False

    def test_default_flags_are_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warn_if_mixed(legacy_args(), DEFAULTS) == []

    def test_overridden_flags_are_detected(self):
        with pytest.warns(DeprecationWarning, match="--clients.*--seed"):
            overridden = warn_if_mixed(legacy_args(clients=5, seed=3), DEFAULTS)
        assert sorted(overridden) == ["clients", "seed"]

    def test_warns_once_per_process(self):
        import warnings

        with pytest.warns(DeprecationWarning):
            warn_if_mixed(legacy_args(clients=5), DEFAULTS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Still *detects*, but no second warning.
            assert warn_if_mixed(legacy_args(clients=5), DEFAULTS) == ["clients"]
