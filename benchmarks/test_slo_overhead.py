"""SLO-engine overhead — the ≤5% gate behind always-on burn-rate alerting.

The harness (virtual-time sampler, multi-window burn-rate evaluation,
per-scope metering) must be cheap enough to leave on: it copies counter
integers at sampler ticks and divides them at evaluation, but it never
touches the curve, so its group-operation footprint is *exactly* zero
and its wall-clock overhead on the open-loop scenario must stay within
5%.  Wall time is the only noisy axis — the gate takes the best of a few
suite attempts so a scheduler hiccup on a shared runner cannot flake it,
while a real regression (per-event sampling, quadratic window scans)
still trips every attempt.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import record_suite_run
from repro.obs.bench import run_suite
from repro.scenarios import run_scenario, scenario_from_dict

REPEATS = 3
#: The acceptance gate: SLO-harness-on wall time within 5% of harness-off.
MAX_OVERHEAD_X = 1.05
#: Suite attempts before the wall gate is declared failed (noise armour).
ATTEMPTS = 3


@pytest.mark.benchmark(group="slo")
def test_slo_overhead(benchmark):
    runs = []

    def sweep():
        runs.append(run_suite("slo", repeats=REPEATS))
        scalars = runs[-1]["phases"][1]["scalars"]
        while scalars["overhead_x"] > MAX_OVERHEAD_X and len(runs) < ATTEMPTS:
            runs.append(run_suite("slo", repeats=REPEATS))
            scalars = runs[-1]["phases"][1]["scalars"]

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    doc = min(runs, key=lambda r: r["phases"][1]["scalars"]["overhead_x"])
    phases = doc["phases"]
    scalars = phases[1]["scalars"]

    lines = [f"{'phase':>10}  {'wall_s':>8}  {'Exp':>6}  {'Pair':>5}"]
    for phase in phases:
        lines.append(
            f"{phase['name']:>10}  {phase['wall_s']:>8.3f}"
            f"  {phase['exp']:>6}  {phase['pair']:>5}"
        )
    lines.append(
        f"overhead {scalars['overhead_x']:.3f}x"
        f"  dExp {int(scalars['delta_exp'])}"
        f"  dPair {int(scalars['delta_pair'])}"
        f"  alert transitions {int(scalars['alert_transitions'])}"
        f"  metering records {int(scalars['metering_records'])}"
    )
    record_report("SLO engine: sampling + alerting + metering overhead", lines)
    record_suite_run("slo", phases, doc["config"])

    # The gates. Group operations must be bit-identical with the harness
    # on — sampling and alerting read counters, they never add crypto
    # work — and wall overhead must clear the bar on at least one attempt.
    assert scalars["delta_exp"] == 0
    assert scalars["delta_pair"] == 0
    assert scalars["metering_records"] > 0
    assert scalars["overhead_x"] <= MAX_OVERHEAD_X, (
        f"SLO harness overhead {scalars['overhead_x']:.3f}x exceeds "
        f"{MAX_OVERHEAD_X}x on every attempt"
    )


def test_slo_plane_deterministic():
    """A double run reproduces the whole SLO plane bit-for-bit."""
    from repro.obs.bench import _SCENARIO_SUITE_DOCS, _SLO_SUITE_BLOCK

    doc = dict(_SCENARIO_SUITE_DOCS["open.poisson"], slos=_SLO_SUITE_BLOCK)
    first = run_scenario(scenario_from_dict(doc))
    second = run_scenario(scenario_from_dict(doc))
    assert first.digest() == second.digest()
    assert first.alerts == second.alerts
    assert first.metering == second.metering
