"""Shared measurement helpers for the reproduction benchmarks.

All signature-generation measurements follow the same recipe: sign a small
number of dense blocks on the paper's 160/512-bit parameters, take the
per-block wall-clock cost, and let the cost model extrapolate to the
paper's 2 GB workload where a direct run is infeasible in pure Python.
"""

from __future__ import annotations

import os
import random
import time

from repro.baselines.oruta import OrutaGroup
from repro.baselines.sw08 import SW08Owner
from repro.core.multi_sem import MultiSEMClient, SEMCluster
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.obs.bench import (
    append_run,
    make_run,
    trajectory_path,
    validate_run,
    write_run_file,
)
from repro.pairing.interface import OperationCounter

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def dense_data(params, n_blocks: int) -> bytes:
    """A payload with no zero elements (maximal operation counts)."""
    return bytes((i % 255) + 1 for i in range(params.block_bytes() * n_blocks - 8))


def time_call(fn, repeats: int = 1) -> float:
    """Best-of-`repeats` wall-clock seconds for fn()."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sem_pdp_per_block_ms(
    params, group, batch: bool, n_blocks: int = 1, repeats: int = 1, seed: int = 1
) -> float:
    """Measured per-block signing cost of the paper's scheme (ms)."""
    sem = SecurityMediator(group, rng=random.Random(seed), require_membership=False)
    owner = DataOwner(params, sem.pk, rng=random.Random(seed + 1))
    data = dense_data(params, n_blocks)
    seconds = time_call(lambda: owner.sign_file(data, b"f", sem, batch=batch), repeats)
    return seconds / n_blocks * 1000.0


def multi_sem_per_block_ms(
    params, group, t: int, batch: bool, n_blocks: int = 1, repeats: int = 1, seed: int = 1
) -> float:
    """Measured per-block signing cost in the multi-SEM mode (ms)."""
    cluster = SEMCluster(group, t=t, rng=random.Random(seed), require_membership=False)
    client = MultiSEMClient(cluster, batch=batch, rng=random.Random(seed + 1))
    owner = DataOwner(params, cluster.master_pk, rng=random.Random(seed + 2))
    data = dense_data(params, n_blocks)
    seconds = time_call(
        lambda: owner.sign_file(data, b"f", client, batch=batch),
        repeats,
    )
    return seconds / n_blocks * 1000.0


def sw08_per_block_ms(params, n_blocks: int = 1, repeats: int = 1, seed: int = 1) -> float:
    """Measured per-block signing cost of SW08/WCWRL11 (ms)."""
    owner = SW08Owner(params, rng=random.Random(seed))
    data = dense_data(params, n_blocks)
    seconds = time_call(lambda: owner.sign_file(data, b"f"), repeats)
    return seconds / n_blocks * 1000.0


def oruta_per_block_ms(params, d: int, n_blocks: int = 1, repeats: int = 1, seed: int = 1) -> float:
    """Measured per-block ring-signing cost of Oruta (ms)."""
    og = OrutaGroup(params, d=d, rng=random.Random(seed))
    data = dense_data(params, n_blocks)
    seconds = time_call(lambda: og.sign_and_store(data, b"f"), repeats)
    return seconds / n_blocks * 1000.0


def count_ops(group, fn) -> dict[str, int]:
    """Run ``fn()`` with a fresh operation counter attached to ``group``.

    Returns the nonzero op tallies (``exp_g1``, ``pairings``, …), restoring
    whatever counter was attached before, so timing measurements can be
    annotated with the exact operation mix they exercised.
    """
    counter = OperationCounter()
    previous = group.counter
    group.attach_counter(counter)
    try:
        fn()
    finally:
        group.counter = previous
    return {k: v for k, v in counter.snapshot().items() if v}


def record_suite_run(suite: str, phases: list[dict], config: dict | None = None) -> dict:
    """Persist one benchmark's results in the versioned run schema.

    Always writes the per-run JSON under ``benchmarks/results/``.  When
    ``REPRO_BENCH_TRAJECTORY_DIR`` is set (as the CI bench-smoke job and
    baseline refreshes do), the run is additionally appended to the
    committed ``BENCH_<suite>.json`` trajectory in that directory, so
    ordinary pytest invocations never dirty the checked-in perf history.
    """
    run = validate_run(make_run(suite, phases, config=config))
    write_run_file(run, RESULTS_DIR)
    trajectory_dir = os.environ.get("REPRO_BENCH_TRAJECTORY_DIR")
    if trajectory_dir:
        append_run(trajectory_path(suite, trajectory_dir), run)
    return run


def fmt_row(label: str, values: list[float], unit: str = "ms") -> str:
    cells = "  ".join(f"{v:>10.2f}" for v in values)
    return f"{label:<28}{cells}  [{unit}]"


def fmt_header(label: str, ks: list[int]) -> str:
    cells = "  ".join(f"{k:>10}" for k in ks)
    return f"{label:<28}{cells}"
