"""Ablations for the design choices DESIGN.md calls out.

* batch vs per-signature unblind verification (Eq. 4 vs Eq. 7) — pairing
  counts, isolated from the rest of signing;
* small-exponent challenges (β from Z_q, |q| = 80 ≪ |p|) — the Response
  and Verify exponentiations shrink with |β|;
* Straus multi-scalar multiplication vs naive per-term exponentiation —
  the generic-substrate optimization available to verifiers.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import record_report
from repro.core.accounting import CostTracker
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier


@pytest.mark.benchmark(group="ablation")
def test_ablation_batch_unblind(benchmark, paper_group, paper_params_factory):
    """Eq. 7 replaces 2n pairings with (2n extra Exp + 2 pairings)."""
    outcome: dict[str, float] = {}

    def run():
        outcome.clear()
        params = paper_params_factory(20)
        n_blocks = 6
        data = bytes((i % 255) + 1 for i in range(params.block_bytes() * n_blocks - 8))
        for label, batch in [("per-signature", False), ("batched", True)]:
            sem = SecurityMediator(paper_group, rng=random.Random(1), require_membership=False)
            owner = DataOwner(params, sem.pk, rng=random.Random(2))
            with CostTracker(paper_group) as tracker:
                owner.sign_file(data, b"f", sem, batch=batch)
            outcome[f"{label} pairings"] = tracker.pairings
            outcome[f"{label} seconds"] = tracker.elapsed_seconds

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome["per-signature pairings"] == 12  # 2n
    assert outcome["batched pairings"] == 2
    record_report(
        "Ablation: batch unblind verification (n=6, k=20)",
        [
            f"per-signature: {outcome['per-signature pairings']} pairings, "
            f"{outcome['per-signature seconds']*1000:.1f} ms",
            f"batched:       {outcome['batched pairings']} pairings, "
            f"{outcome['batched seconds']*1000:.1f} ms",
        ],
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_small_exponents(benchmark, paper_group, paper_params_factory):
    """β from Z_q with |q| = 80 halves the challenged-block exponentiation
    cost in Response and Verify, with soundness 2^-80 (Ferrara et al.)."""
    outcome: dict[str, float] = {}

    def run():
        outcome.clear()
        params = paper_params_factory(20)
        rng = random.Random(3)
        sem = SecurityMediator(paper_group, rng=rng, require_membership=False)
        owner = DataOwner(params, sem.pk, rng=rng)
        cloud = CloudServer(params, rng=rng)
        verifier = PublicVerifier(params, sem.pk, rng=rng)
        n_blocks = 10
        data = bytes((i % 255) + 1 for i in range(params.block_bytes() * n_blocks - 8))
        cloud.store(owner.sign_file(data, b"f", sem))
        for label, bits in [("full |p|=160", None), ("small |q|=80", 80)]:
            ch = verifier.generate_challenge(b"f", n_blocks, beta_bits=bits)
            start = time.perf_counter()
            proof = cloud.generate_proof(b"f", ch)
            respond = time.perf_counter() - start
            start = time.perf_counter()
            assert verifier.verify(ch, proof)
            verify = time.perf_counter() - start
            outcome[label] = respond + verify

    benchmark.pedantic(run, rounds=1, iterations=1)
    # 80-bit exponents should cut the β-dependent work noticeably; the
    # u^alpha terms (full-size alphas) keep it well below 2x.
    assert outcome["small |q|=80"] < outcome["full |p|=160"]
    record_report(
        "Ablation: small-exponent challenges (n=10, k=20)",
        [f"{k}: {v*1000:.1f} ms respond+verify" for k, v in outcome.items()],
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_multi_scalar_mul(benchmark):
    """One multi_exp vs a naive product of per-term powers (paper-160)."""
    from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["paper-160"])
    rng = random.Random(5)
    points = [group.random_g1(rng) for _ in range(32)]
    scalars = [group.random_nonzero_scalar(rng) for _ in points]
    outcome: dict[str, float] = {}

    def run():
        start = time.perf_counter()
        naive = points[0] ** scalars[0]
        for pt, sc in zip(points[1:], scalars[1:]):
            naive = naive * pt**sc
        outcome["naive"] = time.perf_counter() - start
        start = time.perf_counter()
        fast = group.multi_exp(points, scalars)
        outcome["msm"] = time.perf_counter() - start
        assert naive == fast

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome["msm"] < outcome["naive"]
    record_report(
        "Ablation: multi-scalar multiplication (32 terms, paper-160)",
        [
            f"naive per-term: {outcome['naive']*1000:.1f} ms",
            f"multi_exp:      {outcome['msm']*1000:.1f} ms "
            f"({outcome['naive']/outcome['msm']:.2f}x)",
        ],
    )
