"""Supplement: audit cost scaling in the challenge size c.

Not a numbered figure in the paper, but the curve behind Table II's two
columns: verification time is (c + k) Exp + 2 Pair, so it is flat in the
file size and linear in c — the property that makes sampling worthwhile
at all.  Measured on paper-scale parameters.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import record_report
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier

CS = [1, 4, 8, 16]
K = 20
N_BLOCKS = 16


@pytest.mark.benchmark(group="supplement")
def test_audit_time_scales_linearly_in_c(benchmark, paper_group, paper_params_factory):
    timings: dict[int, float] = {}

    def run():
        timings.clear()
        params = paper_params_factory(K)
        rng = random.Random(8)
        sem = SecurityMediator(paper_group, rng=rng, require_membership=False)
        owner = DataOwner(params, sem.pk, rng=rng)
        cloud = CloudServer(params, rng=rng)
        data = bytes((i % 255) + 1 for i in range(params.block_bytes() * N_BLOCKS - 8))
        cloud.store(owner.sign_file(data, b"f", sem))
        # One untimed audit warms the group's per-key pairing state (pk_h
        # and the Miller lines), which every later audit under pk reuses.
        warm = PublicVerifier(params, sem.pk, rng=rng)
        ch = warm.generate_challenge(b"f", N_BLOCKS, sample_size=1)
        assert warm.verify(ch, cloud.generate_proof(b"f", ch))
        for c in CS:
            # A fresh verifier per c: no c reads ids an earlier one hashed.
            verifier = PublicVerifier(params, sem.pk, rng=rng)
            ch = verifier.generate_challenge(b"f", N_BLOCKS, sample_size=c)
            proof = cloud.generate_proof(b"f", ch)
            start = time.perf_counter()
            assert verifier.verify(ch, proof)
            timings[c] = time.perf_counter() - start

    benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(
        f"Supplement: verification time vs challenge size c (k={K}, n={N_BLOCKS})",
        [f"c={c:>3}: {t*1000:8.1f} ms" for c, t in sorted(timings.items())]
        + ["flat in n, linear in c: the economics behind Table II's sampling column"],
    )
    # Monotone in c...
    values = [timings[c] for c in CS]
    assert values == sorted(values)
    # ...and sublinear growth overall: the k u-exponentiations and the two
    # pairings are a fixed floor, so 16x the blocks costs far less than 16x.
    assert values[-1] < 8 * values[0]
