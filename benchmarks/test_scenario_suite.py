"""Scenario-engine suite — compile + drive + collect, per workload shape.

Each phase is one end-to-end :class:`ScenarioRunner` run of an inline
scenario document (open-loop Poisson with cloud/TPA audit traffic, an
MMPP burst crowd, a crash-failover fault window).  The engine derives
every RNG stream from the scenario seed, so per-phase op counts and the
result digest are bit-identical across repeats and machines; wall time
is the only noisy axis, and the committed ``BENCH_scenario.json``
trajectory pins both next to the crypto suites.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import record_suite_run
from repro.obs.bench import _SCENARIO_SUITE_DOCS, run_suite
from repro.scenarios import run_scenario, scenario_from_dict

REPEATS = 2


@pytest.mark.benchmark(group="scenario")
def test_scenario_suite(benchmark):
    run = {}

    def sweep():
        run["doc"] = run_suite("scenario", repeats=REPEATS)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    doc = run["doc"]
    phases = doc["phases"]

    lines = [f"{'shape':>16}  {'wall_s':>8}  {'done':>5}  {'p99_ms':>7}"]
    for phase in phases:
        scalars = phase["scalars"]
        lines.append(
            f"{phase['name']:>16}  {phase['wall_s']:>8.3f}"
            f"  {int(scalars['completed']):>5}"
            f"  {scalars['latency_p99_s'] * 1e3:>7.2f}"
        )
    record_report("Scenario engine: per-shape end-to-end cost", lines)
    record_suite_run("scenario", phases, doc["config"])

    # Correctness of what we timed: every shape completed its full
    # request budget, and the engine is deterministic — a second run of
    # the same document reproduces the digest bit-for-bit.
    for phase in phases:
        assert phase["scalars"]["completed"] == phase["scalars"]["issued"]
    doc0 = _SCENARIO_SUITE_DOCS["open.poisson"]
    first = run_scenario(scenario_from_dict(doc0))
    second = run_scenario(scenario_from_dict(doc0))
    assert first.digest() == second.digest()
