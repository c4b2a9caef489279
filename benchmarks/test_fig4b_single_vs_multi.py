"""Figure 4(b) — single-signer* vs multi-signer* (t = 3) vs SW08, versus k.

Paper shape: the multi-SEM mode (with batch verification and precomputed
Lagrange bases) costs only slightly more than the single-SEM mode — at
k = 100 about 16.38 ms vs 14.13 ms per block — i.e. replicating the SEM
for fault tolerance is nearly free for the data owner.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import (
    fmt_header,
    fmt_row,
    multi_sem_per_block_ms,
    sem_pdp_per_block_ms,
    sw08_per_block_ms,
)
from repro.analysis.cost_model import CostModel

KS_MEASURED = [20, 50, 100]
T = 3
N_BLOCKS = 3


@pytest.mark.benchmark(group="fig4b")
def test_fig4b_single_vs_multi_signer(benchmark, paper_group, paper_params_factory, units):
    single, multi, sw08 = [], [], []

    def sweep():
        single.clear()
        multi.clear()
        sw08.clear()
        for k in KS_MEASURED:
            params = paper_params_factory(k)
            single.append(
                sem_pdp_per_block_ms(params, paper_group, batch=True, n_blocks=N_BLOCKS)
            )
            multi.append(
                multi_sem_per_block_ms(params, paper_group, t=T, batch=True, n_blocks=N_BLOCKS)
            )
            sw08.append(sw08_per_block_ms(params, n_blocks=N_BLOCKS))

    # Every multi cell rebuilds the same seeded cluster, so the Miller lines
    # of g and its share keys, cached on the group, would be computed in the
    # first cell only and break the series' monotonicity; pay them up front.
    multi_sem_per_block_ms(paper_params_factory(KS_MEASURED[0]), paper_group, t=T,
                           batch=True, n_blocks=N_BLOCKS)
    benchmark.pedantic(sweep, rounds=1, iterations=1)

    model = CostModel(units)
    lines = [
        fmt_header("k ->", KS_MEASURED),
        fmt_row("Single-Signer* (measured)", single),
        fmt_row("Multi-Signer* t=3 (measured)", multi),
        fmt_row("SW08/WCWRL11 (measured)", sw08),
        fmt_row(
            "Single-Signer* (model)",
            [model.signing_per_block_ms(k, optimized=True) for k in KS_MEASURED],
        ),
        fmt_row(
            "Multi-Signer* t=3 (model)",
            [model.signing_per_block_ms(k, t=T, optimized=True) for k in KS_MEASURED],
        ),
        "paper (k=100): Single* 14.13 / Multi* (t=3) 16.38 / SW08 13.76 ms per block",
    ]
    record_report("Fig 4(b): single vs multi signer", lines)

    for s, m in zip(single, multi):
        # Multi-SEM costs more (t share verifications + combination) ...
        assert m > s * 0.95
        # ... but not dramatically more: bounded overhead, not a blow-up.
        assert m < 3.0 * s
    # Costs grow with k in both modes.
    assert single == sorted(single)
    assert multi == sorted(multi)
