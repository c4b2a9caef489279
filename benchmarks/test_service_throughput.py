"""Service layer — batched signing pipeline vs the sequential baseline.

Where the speedup comes from (per n-signature batch):

=================  =======================  ==========================
stage              sequential               batched pipeline
=================  =======================  ==========================
transport          n round trips            1 round trip
verification       2n pairings (Eq. 4)      2 pairings (Eq. 7)
blind/unblind      2n full exponentiations  2n fixed-base table passes
aggregation        k exps per block         k table passes per block
=================  =======================  ==========================

The acceptance bar for the service subsystem: >= 2x signatures/sec at
batch size 64.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import record_report
from benchmarks.helpers import count_ops, dense_data, record_suite_run, time_call
from repro.core.blocks import encode_data
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.obs import Observability
from repro.obs.bench import run_suite
from repro.service.api import SignRequest, next_request_id
from repro.service.pipeline import SigningPipeline

BATCH_SIZES = [1, 8, 64]
K = 4


def _requests(params, n: int) -> list[SignRequest]:
    """n one-block requests (batch size = requests coalesced per pass)."""
    data = dense_data(params, n)
    blocks = encode_data(data, params, b"bench")
    assert len(blocks) >= n
    return [
        SignRequest(request_id=next_request_id(), owner="bench", blocks=(block,))
        for block in blocks[:n]
    ]


@pytest.mark.benchmark(group="service")
def test_service_batched_vs_sequential_throughput(benchmark, fast_group):
    params = setup(fast_group, K)
    sem = SecurityMediator(fast_group, rng=random.Random(5), require_membership=False)
    batched_pipeline = SigningPipeline(params, sem, sem.pk, rng=random.Random(6))
    sequential_pipeline = SigningPipeline(params, sem, sem.pk, rng=random.Random(7))

    rows = {}

    def sweep():
        rows.clear()
        for n in BATCH_SIZES:
            requests = _requests(params, n)
            t_batch = time_call(
                lambda: batched_pipeline.sign_batch(requests), repeats=2
            )
            t_seq = time_call(
                lambda: [sequential_pipeline.sign_sequential(r) for r in requests],
                repeats=2,
            )
            rows[n] = (n / t_batch, n / t_seq, t_seq / t_batch)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"{'batch':>6}  {'batched sig/s':>14}  {'sequential sig/s':>17}  {'speedup':>8}"
    ]
    for n, (batched_rate, seq_rate, speedup) in rows.items():
        lines.append(
            f"{n:>6}  {batched_rate:>14.1f}  {seq_rate:>17.1f}  {speedup:>7.2f}x"
        )
    # Op-count annotation: the exact operation mix behind each timing.
    ops_batched = count_ops(
        fast_group, lambda: batched_pipeline.sign_batch(_requests(params, 8))
    )
    ops_sequential = count_ops(
        fast_group,
        lambda: [sequential_pipeline.sign_sequential(r) for r in _requests(params, 8)],
    )
    lines.append(
        f"per 8-signature pass: batched {ops_batched.get('pairings', 0)} pairings, "
        f"sequential {ops_sequential.get('pairings', 0)} pairings"
    )

    # Tracing overhead: the same batched pass with live spans + op counting.
    obs = Observability.create()
    traced_pipeline = SigningPipeline(
        params, sem, sem.pk, rng=random.Random(6), obs=obs
    )
    obs.observe_group(fast_group)
    requests_64 = _requests(params, 64)
    try:
        t_plain = time_call(lambda: batched_pipeline.sign_batch(requests_64), repeats=5)
        t_traced = time_call(lambda: traced_pipeline.sign_batch(requests_64), repeats=5)
    finally:
        fast_group.detach_counter()
    overhead = t_traced / t_plain - 1.0
    lines.append(f"tracing overhead on a 64-batch: {overhead * 100:+.1f}%")
    lines.append(
        "one transport round trip + 2 pairings per batch (Eq. 7) vs per-item"
    )
    lines.append("round trips + 2 pairings each (Eq. 4); fixed-base tables amortized")
    record_report("Service throughput: batched vs sequential signing", lines)
    doc = run_suite("service", repeats=2)
    record_suite_run("service", doc["phases"], doc["config"])

    # Acceptance: batching is >= 2x at batch size 64.
    assert rows[64][2] >= 2.0, f"batched speedup at 64 was only {rows[64][2]:.2f}x"
    # Acceptance: live tracing costs <= 5% (plus 2 ms of timer slack).
    assert t_traced <= t_plain * 1.05 + 0.002, (
        f"tracing overhead {overhead * 100:.1f}% exceeds 5%"
    )
    # Correctness of what we timed: both paths produce verifying signatures.
    check = _requests(params, 2)
    for result in batched_pipeline.sign_batch(check):
        assert result.ok
    assert all(sequential_pipeline.sign_sequential(r).ok for r in check)
