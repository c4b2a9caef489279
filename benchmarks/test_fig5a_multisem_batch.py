"""Figure 5(a) — multi-SEM signing time vs k, with and without batch
verification of the blind-signature shares (t = 2).

Paper shape at k = 100: ~40 ms per block without batch verification vs
~17.52 ms with it — Eq. 14 (plus precomputed Lagrange bases) pays for the
multi-SEM mode's extra pairings.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import fmt_header, fmt_row, multi_sem_per_block_ms
from repro.analysis.cost_model import CostModel

KS_MEASURED = [20, 50, 100]
T = 2
N_BLOCKS = 3


@pytest.mark.benchmark(group="fig5a")
def test_fig5a_multisem_batch_vs_nobatch(benchmark, paper_group, paper_params_factory, units):
    no_batch, batch = [], []

    def sweep():
        no_batch.clear()
        batch.clear()
        for k in KS_MEASURED:
            params = paper_params_factory(k)
            no_batch.append(
                multi_sem_per_block_ms(params, paper_group, t=T, batch=False, n_blocks=N_BLOCKS)
            )
            batch.append(
                multi_sem_per_block_ms(params, paper_group, t=T, batch=True, n_blocks=N_BLOCKS)
            )

    # Every cell rebuilds the same seeded t = 2 cluster, so the Miller
    # lines cached on the group for g, its share keys (Eq. 10 and a
    # rejected round's Eq. 14) and its round key (Eq. 7) would be paid in
    # the first cell of each series only; pay them up front, in both modes.
    for warm_batch in (False, True):
        multi_sem_per_block_ms(paper_params_factory(KS_MEASURED[0]), paper_group, t=T,
                               batch=warm_batch, n_blocks=N_BLOCKS)
    benchmark.pedantic(sweep, rounds=1, iterations=1)

    model = CostModel(units)
    lines = [
        fmt_header("k ->", KS_MEASURED),
        fmt_row("Multi-Signer (measured)", no_batch),
        fmt_row("Multi-Signer* (measured)", batch),
        fmt_row(
            "Multi-Signer (model)",
            [model.signing_per_block_ms(k, t=T) for k in KS_MEASURED],
        ),
        fmt_row(
            "Multi-Signer* (model)",
            [model.signing_per_block_ms(k, t=T, optimized=True) for k in KS_MEASURED],
        ),
        "paper (k=100, t=2): ~40 ms unbatched vs 17.52 ms batched per block",
    ]
    record_report("Fig 5(a): multi-SEM batch vs per-share verification", lines)

    for nb, b in zip(no_batch, batch):
        # Batch verification never loses; its advantage is 2nt - 2
        # pairings (one check of the combined round), which shrinks
        # relative to the k exponentiations as k grows (same trend as the
        # paper's converging curves).
        assert b < nb * 1.05
    assert batch == sorted(batch)
    # Deterministic confirmation of the paper's 2x-at-k=100 claim under
    # paper-era unit costs.
    from benchmarks.test_fig4a_siggen_vs_k import PAPER_UNITS

    paper_model = CostModel(PAPER_UNITS)
    ratio = paper_model.signing_per_block_ms(100, t=T) / paper_model.signing_per_block_ms(
        100, t=T, optimized=True
    )
    assert 1.8 < ratio < 4.5
