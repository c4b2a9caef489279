"""Ablation: fixed-base precomputation for the u_1..u_k exponentiations,
and batch auditing of multiple files.

Neither appears in the paper's evaluation; both are natural engineering
extensions its structure invites (the u bases never change; all audits
verify under the single organization key).
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import record_report
from repro.core.blocks import aggregate_block, encode_data
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.crypto.blind_bls import batch_unblind_verify, blind, unblind


def _sign_plain(params, sem, blocks, rng):
    """The owner's signing pass with the paper's plain algorithms: k
    u-exponentiations per aggregate, g^r per blinding, pk^{-r} per
    unblinding (Eq. 2, 3, 7, 5), no tables."""
    group = params.group
    states = [blind(group, aggregate_block(params, block), rng) for block in blocks]
    blinded = [state.blinded for state in states]
    blind_signatures = sem.sign_blinded_batch(blinded)
    assert batch_unblind_verify(group, blinded, blind_signatures, sem.pk, rng)
    return [unblind(group, state, signature, sem.pk, check=False)
            for state, signature in zip(states, blind_signatures)]


@pytest.mark.benchmark(group="ablation")
def test_ablation_fixed_base_tables(benchmark, paper_group, paper_params_factory):
    """Fixed-base tables vs plain double-and-add for the owner's pass:
    the u-tables in Bind's aggregation, the g and pk tables in blinding
    and unblinding."""
    outcome: dict[str, float] = {}
    k = 50
    n_blocks = 4

    def run():
        outcome.clear()
        params = paper_params_factory(k)
        data = bytes((i % 255) + 1 for i in range(params.block_bytes() * n_blocks - 8))
        blocks = encode_data(data, params, b"f")
        sem = SecurityMediator(paper_group, rng=random.Random(1), require_membership=False)
        start = time.perf_counter()
        plain = _sign_plain(params, sem, blocks, random.Random(2))
        outcome["plain"] = time.perf_counter() - start
        start = time.perf_counter()
        owner = DataOwner(params, sem.pk, rng=random.Random(2))
        outcome["precompute"] = time.perf_counter() - start
        start = time.perf_counter()
        fast = owner.sign_blocks(sem, blocks, rng=random.Random(2))
        outcome["fixed-base"] = time.perf_counter() - start
        assert fast == plain

    benchmark.pedantic(run, rounds=1, iterations=1)
    # Per-block signing must be faster once tables exist.
    assert outcome["fixed-base"] < outcome["plain"]
    record_report(
        f"Ablation: fixed-base u-tables (k={k}, n={n_blocks})",
        [
            f"plain signing:        {outcome['plain']*1000:.1f} ms",
            f"fixed-base signing:   {outcome['fixed-base']*1000:.1f} ms "
            f"({outcome['plain']/outcome['fixed-base']:.2f}x)",
            f"one-time table build: {outcome['precompute']*1000:.1f} ms "
            f"(amortizes across every block the owner ever signs)",
        ],
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_batch_audit(benchmark, paper_group, paper_params_factory):
    """Auditing L files: L x 2 pairings individually vs 2 in a batch."""
    outcome: dict[str, float] = {}
    files = 4

    def run():
        outcome.clear()
        params = paper_params_factory(20)
        rng = random.Random(3)
        sem = SecurityMediator(paper_group, rng=rng, require_membership=False)
        owner = DataOwner(params, sem.pk, rng=rng)
        cloud = CloudServer(params, rng=rng)
        verifier = PublicVerifier(params, sem.pk, rng=rng)
        audits = []
        for i in range(files):
            fid = b"file-%d" % i
            signed = owner.sign_file(
                bytes((j % 255) + 1 for j in range(params.block_bytes() * 2 - 8)), fid, sem
            )
            cloud.store(signed)
            ch = verifier.generate_challenge(fid, len(signed.blocks))
            audits.append((ch, cloud.generate_proof(fid, ch)))
        start = time.perf_counter()
        assert all(verifier.verify(ch, proof) for ch, proof in audits)
        outcome["individual"] = time.perf_counter() - start
        # A fresh verifier for the same key: the batch hashes every id
        # itself instead of reading the individual audits' hash cache.
        batch_verifier = PublicVerifier(params, sem.pk, rng=rng)
        start = time.perf_counter()
        assert batch_verifier.verify_batch(audits, rng)
        outcome["batched"] = time.perf_counter() - start

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome["batched"] < outcome["individual"]
    record_report(
        f"Ablation: batch auditing ({files} files)",
        [
            f"individual: {outcome['individual']*1000:.1f} ms ({2*files} pairings)",
            f"batched:    {outcome['batched']*1000:.1f} ms (2 pairings, "
            f"{outcome['individual']/outcome['batched']:.2f}x)",
        ],
    )
