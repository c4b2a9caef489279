"""The committed scenario corpus: every document validates, names are
unique, and the flagship scenarios keep the properties their comments
advertise.  (CI's scenario-smoke job *runs* the corpus; here we keep
tier-1 fast and check the documents themselves.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios import discover_scenarios, load_scenario, run_scenario

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS_DIR = REPO_ROOT / "scenarios"
CORPUS = discover_scenarios(CORPUS_DIR)


def test_corpus_is_substantial():
    assert len(CORPUS) >= 8


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_document_validates(path):
    scenario = load_scenario(path)
    assert scenario.description, f"{path.name} needs a description"
    assert scenario.settings.envelope.checks, \
        f"{path.name} needs at least one acceptance check"


def test_scenario_names_are_unique():
    names = [load_scenario(p).name for p in CORPUS]
    assert len(names) == len(set(names))


def test_million_user_scenario_scale():
    scenario = load_scenario(CORPUS_DIR / "million_user_diurnal.yaml")
    assert scenario.workload.total_members >= 1_000_000
    (cohort,) = scenario.workload.cohorts
    assert cohort.arrival.kind == "diurnal"
    # Cost scales with the budget, not the population: the document stays
    # CI-runnable because the request cap is small.
    assert scenario.total_requests_budget <= 500


def test_paper_table1_runs_inside_its_envelope():
    # The flagship paper-faithful document actually executes and passes —
    # one full run is cheap (single SEM, 8 requests, toy-64 params).
    result = run_scenario(load_scenario(CORPUS_DIR / "paper_table1.yaml"))
    assert result.passed, [v.render() for v in result.violations]
    assert result.completed == 8


def test_every_document_has_a_pinned_replay_digest():
    # CI replays each document against replay_digests.json; a document
    # added without a pin, or a pin left for a deleted one, fails here.
    pinned = json.loads((Path(__file__).parent / "replay_digests.json").read_text())
    assert sorted(pinned) == sorted(p.stem for p in CORPUS)
    result = run_scenario(load_scenario(CORPUS_DIR / "paper_table1.yaml"))
    assert result.digest() == pinned["paper_table1"]
