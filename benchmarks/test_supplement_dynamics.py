"""Supplement: cost of the dynamic-data extension (paper §IV-C).

Two questions the paper leaves open when it says dynamics "can be easily
supported": (1) what does an update batch cost versus re-signing the
whole file, and (2) how much bigger are dynamic audit proofs (which add a
rank path per challenged block plus one signed root)?  Both answers come
from the registered ``dynamic`` bench suite.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import record_suite_run
from repro.obs.bench import run_suite


@pytest.mark.benchmark(group="supplement")
def test_dynamics_update_vs_resign_all(benchmark):
    run = {}
    benchmark.pedantic(lambda: run.update(doc=run_suite("dynamic", repeats=1)),
                       rounds=1, iterations=1)
    doc = run["doc"]
    phases = {phase["name"]: phase for phase in doc["phases"]}
    config = doc["config"]

    lines = [f"{'batch':>6}  {'update Exp':>10}  {'re-sign Exp':>11}"
             f"  {'update ms':>9}  {'re-sign ms':>10}"]
    for k in config["batches"]:
        update, naive = phases[f"update.k{k}"], phases[f"naive.k{k}"]
        lines.append(f"{k:>6}  {update['exp']:>10}  {naive['exp']:>11}"
                     f"  {update['wall_s'] * 1e3:>9.1f}  {naive['wall_s'] * 1e3:>10.1f}")
    audit = phases["dyn.audit"]["scalars"]
    lines.append(
        f"audit proof size (c={int(audit['challenged'])}): static "
        f"{int(audit['static_response_bytes'])} B -> dynamic "
        f"{int(audit['proof_bytes'])} B (rank paths + signed root)"
    )
    record_report(
        f"Supplement: dynamic data costs (n={config['n_blocks']}, k={config['k']})",
        lines,
    )
    record_suite_run("dynamic", doc["phases"], config)

    # One single-block update is far cheaper than re-signing the file,
    # and a dynamic proof carries strictly more than the Eq. 6 response.
    assert phases["update.k1"]["exp"] < phases["naive.k1"]["exp"] / 4
    assert audit["proof_bytes"] > audit["static_response_bytes"]
