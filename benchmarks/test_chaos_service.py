"""Chaos suite — the price of failover under a byzantine mediator.

One (w = 3, t = 2) threshold cluster signs the same blinded batch twice:
once all-healthy, once with SEM 0 byzantine.  The faulty round pays the
full detection-and-recovery path — the bad share batch fails Eq. 14
verification, the health scoreboard trips its circuit breaker, and the
round completes on the healthy majority.  The op-count delta between the
two phases is deterministic, so the committed ``BENCH_chaos.json``
trajectory pins the exact failover overhead next to the clean
``BENCH_service.json`` throughput numbers.  The measurement is the
registered ``chaos`` bench suite, which also checks every signature it
timed against the cluster's master key.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import record_suite_run
from repro.obs.bench import run_suite


@pytest.mark.benchmark(group="chaos")
def test_chaos_failover_overhead(benchmark):
    run = {}
    benchmark.pedantic(lambda: run.update(doc=run_suite("chaos", repeats=2)),
                       rounds=1, iterations=1)
    doc = run["doc"]
    phases = {phase["name"]: phase for phase in doc["phases"]}
    clean, byzantine = phases["round.clean"], phases["round.byzantine"]

    lines = [f"{'round':>10}  {'sig/s':>10}  {'pairings':>8}  {'exp_g1':>8}"]
    for label, phase in (("clean", clean), ("byzantine", byzantine)):
        lines.append(
            f"{label:>10}  {phase['scalars']['sig_per_s']:>10.1f}"
            f"  {phase['ops'].get('pairings', 0):>8}"
            f"  {phase['ops'].get('exp_g1', 0):>8}"
        )
    lines.append(
        f"failover overhead: {byzantine['scalars']['overhead_x']:.2f}x wall; "
        "byzantine share batch rejected via Eq. 14, round completed on the "
        "healthy majority"
    )
    record_report("Chaos: failover overhead under a byzantine SEM", lines)
    record_suite_run("chaos", doc["phases"], doc["config"])

    # The byzantine round's extra cost is the detection path: one more
    # contacted endpoint's share batch verified (pairings) and rejected.
    assert byzantine["ops"].get("pairings", 0) > clean["ops"].get("pairings", 0)
    assert byzantine["ops"].get("exp_g1", 0) > clean["ops"].get("exp_g1", 0)
