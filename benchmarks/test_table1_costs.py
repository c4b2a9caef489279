"""Table I — computation cost of generating all n signatures.

Reproduces the four cells of Table I two ways:

1. *Operation counting*: runs the actual protocol through the ``table1``
   bench suite and checks the measured model-equivalent Exp_G1 and Pair
   tallies against the closed forms.
2. *Wall-clock benchmarking*: times per-block signing on the paper's
   160/512-bit parameters for the basic and optimized variants.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import dense_data, record_suite_run
from repro.analysis.cost_model import table1_exp_pair_counts
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.obs.bench import run_suite

@pytest.mark.benchmark(group="table1")
class TestOperationCounts:
    """Fast functional validation on toy parameters (the ``table1`` suite)."""

    def test_all_four_table1_cells(self, benchmark):
        run = {}
        benchmark.pedantic(lambda: run.update(doc=run_suite("table1", repeats=1)),
                           rounds=1, iterations=1)
        doc = run["doc"]
        phases = {phase["name"]: phase for phase in doc["phases"]}
        k = doc["config"]["k"]
        results = []
        for t, optimized in [(None, False), (None, True), (2, False), (2, True)]:
            label = f"{'multi t=2' if t else 'single'} {'opt' if optimized else 'basic'}"
            phase = phases[
                f"sign.{'multi2' if t else 'single'}.{'opt' if optimized else 'basic'}"
            ]
            n = int(phase["scalars"]["n_blocks"])
            # Model-equivalent exponentiations: the owner's table lookups
            # count as the Exps they stand for, as Table I counts them.
            exp_g1 = phase["exp"]
            pairings = phase["pair"]
            formula = table1_exp_pair_counts(n, k, t=t, optimized=optimized)
            results.append(
                f"{label:>18}: measured {exp_g1:>4} Exp {pairings:>3} Pair"
                f" | Table I {formula.exp_g1:>4} Exp {formula.pair:>3} Pair"
            )
            # Measured counts track the paper's closed forms; our multi-SEM
            # client additionally runs the final Eq. 7 owner-side check
            # (+2n Exp) that the paper's accounting folds into share
            # verification, hence the +3n slack.
            assert exp_g1 <= formula.exp_g1 + 3 * n
            if optimized:
                assert pairings <= 2 * ((t or 0) + 1) + 2
            else:
                assert pairings >= 2 * n

        record_report(f"Table I: operation counts (n={n} blocks, k={k})", results)
        record_suite_run("table1", doc["phases"], doc["config"])


@pytest.mark.benchmark(group="table1")
class TestWallClock:
    K = 100
    N_BLOCKS = 2

    def _signed_ms_per_block(self, paper_params_factory, paper_group, optimized, benchmark):
        params = paper_params_factory(self.K)
        sem = SecurityMediator(paper_group, rng=random.Random(1), require_membership=False)
        owner = DataOwner(params, sem.pk, rng=random.Random(2))
        data = dense_data(params, self.N_BLOCKS)

        def run():
            owner.sign_file(data, b"f", sem, batch=optimized)

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_single_sem_basic(self, paper_params_factory, paper_group, benchmark):
        self._signed_ms_per_block(paper_params_factory, paper_group, False, benchmark)

    def test_single_sem_optimized(self, paper_params_factory, paper_group, benchmark):
        self._signed_ms_per_block(paper_params_factory, paper_group, True, benchmark)
