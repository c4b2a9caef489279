"""The schema-driven reader: document keys are the dataclass fields.

Named regressions for documents the hand-written per-spec parsers used to
misread: a key is optional exactly when its field has a default, a bool
is never a number, non-finite numbers are rejected, and malformed fault
entries fail with their document path instead of a bare exception.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioError, parse_scenario, scenario_from_dict
from repro.scenarios.schema import ArrivalSpec, EnvelopeSpec


def err(doc) -> ScenarioError:
    with pytest.raises(ScenarioError) as exc_info:
        scenario_from_dict(doc)
    return exc_info.value


class TestOmittedKeys:
    def test_empty_fleet_needs_servers(self, doc):
        # FleetSpec.servers / parity have no default: {} used to load as a
        # 3-server, parity-1 fleet.
        doc["topology"]["fleet"] = {}
        e = err(doc)
        assert (e.path, e.problem) == ("topology.fleet.servers", "missing required key")

    def test_cohort_without_arrival_uses_the_documented_default(self, doc):
        del doc["workload"]["cohorts"][0]["arrival"]
        (cohort,) = scenario_from_dict(doc).workload.cohorts
        assert cohort.arrival == ArrivalSpec(kind="poisson", rate_rps=10.0)

    def test_missing_required_key_names_its_path(self, doc):
        del doc["workload"]["cohorts"][0]["members"]
        e = err(doc)
        assert (e.path, e.problem) == ("workload.cohorts[0].members",
                                       "missing required key")

    def test_top_level_required_key(self, doc):
        del doc["topology"]
        assert err(doc).path == "topology"

    def test_omitted_defaults_match_the_dataclass(self, doc):
        scenario = scenario_from_dict(doc)
        assert scenario.settings.envelope == EnvelopeSpec()
        assert scenario.topology.clouds == () and scenario.slos is None


class TestValueTypes:
    def test_bool_latency_is_not_a_number(self, doc):
        # `latency_s: true` used to load as a 1 s link.
        doc["topology"]["default_link"] = {"latency_s": True}
        e = err(doc)
        assert e.path == "topology.default_link.latency_s"
        assert "finite number" in e.problem

    def test_infinite_duration_rejected(self):
        text = """
name: inf-duration
workload:
  cohorts:
    - {name: w, members: 1, target: org, arrival: {kind: batch}}
topology:
  sem_groups: [{name: org}]
settings:
  duration_s: .inf
"""
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(text)
        assert exc_info.value.path == "settings.duration_s"

    def test_nan_rejected(self, doc):
        doc["settings"]["duration_s"] = float("nan")
        assert err(doc).path == "settings.duration_s"

    def test_null_is_only_for_optional_fields(self, doc):
        doc["settings"]["fault_seed"] = None
        assert scenario_from_dict(doc).settings.fault_seed is None
        doc["settings"]["duration_s"] = None
        assert err(doc).path == "settings.duration_s"

    def test_numeric_string_float_still_accepted(self, doc):
        # PyYAML reads `1e-3` as a string.
        doc["topology"]["default_link"] = {"latency_s": "1e-3"}
        assert scenario_from_dict(doc).topology.default_link.latency_s == 0.001

    def test_integral_float_is_an_int(self, doc):
        doc["settings"]["k"] = 4.0
        assert scenario_from_dict(doc).settings.k == 4
        doc["settings"]["k"] = 4.5
        assert err(doc).path == "settings.k"

    def test_bool_is_not_an_int(self, doc):
        doc["settings"]["seed"] = True
        assert err(doc).path == "settings.seed"

    def test_string_field_rejects_numbers(self, doc):
        doc["workload"]["cohorts"][0]["target"] = 7
        assert err(doc).path == "workload.cohorts[0].target"

    def test_bool_field_needs_a_bool(self, doc):
        doc["topology"]["fleet"] = {"servers": 3, "parity": 1, "auto_repair": "no"}
        assert err(doc).path == "topology.fleet.auto_repair"

    def test_tuple_field_needs_a_list(self, doc):
        doc["settings"]["metrics"] = "latency"
        assert err(doc).path == "settings.metrics"

    def test_list_elements_name_their_index(self, doc):
        doc["settings"]["metrics"] = ["latency", 3]
        assert err(doc).path == "settings.metrics[1]"

    def test_unknown_key_lists_the_field_names(self, doc):
        doc["topology"]["default_link"] = {"latency": 0.1}
        e = err(doc)
        assert e.path == "topology.default_link"
        assert e.problem == ("unknown keys ['latency'] (known: "
                             "['bandwidth_bps', 'drop_rate', 'latency_s'])")

    def test_non_mapping_spec(self, doc):
        doc["settings"]["envelope"] = [1]
        e = err(doc)
        assert (e.path, e.problem) == ("settings.envelope", "expected a mapping, got list")


class TestFlatLinks:
    def test_link_reads_flat_params(self, doc):
        doc["workload"]["cohorts"][0]["name"] = "w"
        doc["topology"]["links"] = [
            {"src": "w", "dst": "org", "latency_s": 0.2, "drop_rate": 0.1}]
        (link,) = scenario_from_dict(doc).topology.links
        assert (link.src, link.dst) == ("w", "org")
        assert (link.params.latency_s, link.params.drop_rate) == (0.2, 0.1)

    def test_link_param_errors_use_the_flat_path(self, doc):
        doc["topology"]["links"] = [{"src": "writers", "dst": "org",
                                     "latency_s": False}]
        assert err(doc).path == "topology.links[0].latency_s"

    def test_link_needs_src(self, doc):
        doc["topology"]["links"] = [{"dst": "org"}]
        assert err(doc).path == "topology.links[0].src"

    def test_link_rejects_nested_params(self, doc):
        doc["topology"]["links"] = [{"src": "writers", "dst": "org", "params": {}}]
        assert "params" in err(doc).problem


class TestFaultEntries:
    @pytest.mark.parametrize("entry, problem", [
        ({"kind": "partition", "links": [["c-writers"]]}, "links"),
        ({"kind": "partition", "links": "ab"}, "links"),
        ({"kind": "crash", "node": "svc-org", "at": "soon"}, "at"),
        ({"kind": "partition", "links": [["c-writers", "svc-org"]],
          "bidirectional": "false"}, "bidirectional"),
        ({"kind": "crash", "node": "svc-org", "at": True}, "at"),
        ({"kind": "slow", "links": [["c-writers", "svc-org"]],
          "delay_s": float("nan")}, "delay_s"),
    ], ids=["short-pair", "string-links", "at-soon", "string-bool",
            "bool-at", "nan-delay"])
    def test_malformed_fault_names_its_entry(self, doc, entry, problem):
        doc["settings"]["faults"] = [{"kind": "crash", "node": "svc-org"}, entry]
        e = err(doc)
        assert e.path == "settings.faults[1]"
        assert e.problem.startswith(problem)

    def test_faults_need_a_list(self, doc):
        doc["settings"]["faults"] = {"kind": "crash"}
        assert err(doc).path == "settings.faults"
