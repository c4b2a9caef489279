"""Flight-recorder overhead — the ≤5% gate behind the tamper-evident ledger.

The recorder (causal tracing + hash-chained ledger) must be cheap enough
to leave on: it copies integers and hashes canonical JSON but never
touches the curve, so its group-operation footprint is *exactly* zero and
its wall-clock overhead on the service scenario must stay within 5%.
Wall time is the only noisy axis — the gate takes the best of a few suite
attempts so a single scheduler hiccup on a shared runner cannot flake it,
while a real regression (recording on the hot path, accidental fsync)
still trips every attempt.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import record_suite_run
from repro.obs import Ledger, Observability
from repro.obs.bench import _SCENARIO_SUITE_DOCS, run_suite
from repro.scenarios import ScenarioRunner, scenario_from_dict

REPEATS = 3
#: The acceptance gate: recorder-on wall time within 5% of recorder-off.
MAX_OVERHEAD_X = 1.05
#: Suite attempts before the wall gate is declared failed (noise armour).
ATTEMPTS = 3


def _recorded_run():
    doc = _SCENARIO_SUITE_DOCS["open.poisson"]
    ledger = Ledger()
    runner = ScenarioRunner(scenario_from_dict(doc), obs=Observability.create(),
                            ledger=ledger)
    return runner.run(), ledger


@pytest.mark.benchmark(group="ledger")
def test_ledger_overhead(benchmark):
    runs = []

    def sweep():
        runs.append(run_suite("ledger", repeats=REPEATS))
        scalars = runs[-1]["phases"][1]["scalars"]
        while scalars["overhead_x"] > MAX_OVERHEAD_X and len(runs) < ATTEMPTS:
            runs.append(run_suite("ledger", repeats=REPEATS))
            scalars = runs[-1]["phases"][1]["scalars"]

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    doc = min(runs, key=lambda r: r["phases"][1]["scalars"]["overhead_x"])
    phases = doc["phases"]
    scalars = phases[1]["scalars"]

    lines = [f"{'phase':>14}  {'wall_s':>8}  {'Exp':>6}  {'Pair':>5}"]
    for phase in phases:
        lines.append(
            f"{phase['name']:>14}  {phase['wall_s']:>8.3f}"
            f"  {phase['exp']:>6}  {phase['pair']:>5}"
        )
    lines.append(
        f"overhead {scalars['overhead_x']:.3f}x"
        f"  dExp {int(scalars['delta_exp'])}"
        f"  dPair {int(scalars['delta_pair'])}"
        f"  ledger entries {int(scalars['ledger_entries'])}"
    )
    record_report("Flight recorder: tracing + ledger overhead", lines)
    record_suite_run("ledger", phases, doc["config"])

    # The gates. Group operations must be bit-identical with the recorder
    # on — recording reads results, it never adds crypto work — and wall
    # overhead must clear the acceptance bar on at least one attempt.
    assert scalars["delta_exp"] == 0
    assert scalars["delta_pair"] == 0
    assert scalars["ledger_entries"] > 0
    assert scalars["overhead_x"] <= MAX_OVERHEAD_X, (
        f"recorder overhead {scalars['overhead_x']:.3f}x exceeds "
        f"{MAX_OVERHEAD_X}x on every attempt"
    )


def test_ledger_head_deterministic():
    """A double run reproduces the chain head hash bit-for-bit."""
    first, first_ledger = _recorded_run()
    second, second_ledger = _recorded_run()
    assert first_ledger.head() == second_ledger.head()
    assert first.digest() == second.digest()
    assert first.ledger == second.ledger
