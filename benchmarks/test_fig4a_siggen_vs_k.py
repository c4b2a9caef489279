"""Figure 4(a) — signature generation time (ms/block) versus k.

Series: "Our Scheme" (per-signature Eq. 4 verification), "Our Scheme*"
(Eq. 7 batch verification), and "SW08/WCWRL11" (owner signs locally).

Paper shape at k = 100 (Intel i5, PBC): 34.99 ms / 14.13 ms / 13.76 ms —
basic is several times slower, batch-unblinding closes the gap to near
parity with SW08.  The basic-vs-optimized *ratio* depends on the machine's
pairing/exponentiation cost ratio (~80x with 2013-era PBC, ~3x for this
pure-Python backend), so we report the measured curve plus the cost-model
curve evaluated with the paper's ratio; the orderings must hold on both.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import (
    fmt_header,
    fmt_row,
    record_suite_run,
    sem_pdp_per_block_ms,
    sw08_per_block_ms,
)
from repro.obs.bench import make_phase
from repro.analysis.calibrate import UnitCosts
from repro.analysis.cost_model import CostModel

KS = [20, 50, 100, 200]  # model curves
KS_MEASURED = [20, 50, 100]  # wall-clock sweep (pure Python is slow)
N_BLOCKS = 4  # enough to amortize the batch's constant 2 pairings

# The paper testbed's unit-cost ratio (Section VI-B implies ~0.13 ms Exp,
# ~10.6 ms Pair on the authors' i5 + PBC).
PAPER_UNITS = UnitCosts(exp_g1=0.000134, pair=0.0106, mul_g1=2e-6, hash_g1=5e-4, mul_zp=1e-7)


@pytest.mark.benchmark(group="fig4a")
def test_fig4a_signature_generation_vs_k(
    benchmark, paper_group, paper_params_factory, units
):
    measured_basic, measured_opt, measured_sw08 = [], [], []

    def sweep():
        measured_basic.clear()
        measured_opt.clear()
        measured_sw08.clear()
        for k in KS_MEASURED:
            params = paper_params_factory(k)
            measured_basic.append(
                sem_pdp_per_block_ms(params, paper_group, batch=False, n_blocks=N_BLOCKS)
            )
            measured_opt.append(
                sem_pdp_per_block_ms(params, paper_group, batch=True, n_blocks=N_BLOCKS)
            )
            measured_sw08.append(sw08_per_block_ms(params, n_blocks=N_BLOCKS))

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    model_here = CostModel(units)
    model_paper = CostModel(PAPER_UNITS)
    lines = [
        fmt_header("k (measured) ->", KS_MEASURED),
        fmt_row("Our Scheme (measured)", measured_basic),
        fmt_row("Our Scheme* (measured)", measured_opt),
        fmt_row("SW08/WCWRL11 (measured)", measured_sw08),
        fmt_header("k (model) ->", KS),
        fmt_row("Our Scheme (model)", [model_here.signing_per_block_ms(k) for k in KS]),
        fmt_row("Our Scheme* (model)", [model_here.signing_per_block_ms(k, optimized=True) for k in KS]),
        fmt_row("Our Scheme (paper-ratio)", [model_paper.signing_per_block_ms(k) for k in KS]),
        fmt_row("Our Scheme* (paper-ratio)", [model_paper.signing_per_block_ms(k, optimized=True) for k in KS]),
        fmt_row("SW08 (paper-ratio)", [model_paper.sw08_per_block_ms(k) for k in KS]),
        "paper (k=100): Our 34.99 / Our* 14.13 / SW08 13.76 ms per block",
        "measured Our Scheme rows sign through fixed-base tables (u, g, pk), SW08 "
        "does not; the model rows keep the paper's like-for-like comparison",
    ]
    record_report("Fig 4(a): signature generation time vs k", lines)
    # Wall-only phases (the sweep times whole helper closures, so there is
    # no per-phase op mix); the trajectory still tracks the measured curve.
    record_suite_run(
        "fig4a",
        [
            make_phase(
                f"sign.k{k}.{series}", ms / 1000.0,
                scalars={"ms_per_block": ms},
            )
            for k, basic, opt, sw in zip(
                KS_MEASURED, measured_basic, measured_opt, measured_sw08
            )
            for series, ms in (("basic", basic), ("opt", opt), ("sw08", sw))
        ],
        config={"param_set": "paper-160", "ks": KS_MEASURED, "n_blocks": N_BLOCKS},
    )

    for basic, opt, sw in zip(measured_basic, measured_opt, measured_sw08):
        # Shape 1 (sanity): batch unblinding is never materially worse.  On
        # this backend a pairing costs only ~1.5x an exponentiation, so the
        # expected gap (1.5 Pair - 2 Exp per block) is within run-to-run
        # noise; the strict ordering is asserted deterministically below
        # via operation counts x unit costs, exactly as the paper's own
        # Table I argues it.
        assert opt < basic * 1.15
        # Shape 2: optimized is close to SW08 (the SEM costs almost nothing).
        assert opt < 2.0 * sw
    # Shape 3: cost grows with k for every series.
    assert measured_opt == sorted(measured_opt)
    assert measured_sw08 == sorted(measured_sw08)
    # Shape 1 (deterministic, via op counts x calibrated units): basic
    # strictly dominates optimized on both unit-cost profiles.
    for m in (model_here, model_paper):
        for k in KS:
            assert m.signing_per_block_ms(k) > m.signing_per_block_ms(k, optimized=True)
    # Shape 4: with the paper's pairing ratio the model reproduces the
    # headline 2.5x gap at k = 100.
    ratio = model_paper.signing_per_block_ms(100) / model_paper.signing_per_block_ms(
        100, optimized=True
    )
    assert 2.0 < ratio < 3.0
