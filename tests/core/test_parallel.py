"""Parallel fan-out invariants: bit-identical results, exact op parity.

The tentpole contract: at any ``--workers`` value a seeded run produces
byte-for-byte the same signatures and proofs, and the merged per-worker
operation counters reconcile exactly with a single-process run — so the
cost table and the regression gate never see the worker count.
"""

import random

import pytest

from repro.core import SemPdpSystem
from repro.core.parallel import MIN_PARALLEL_ITEMS, WorkerPool, chunk_ranges, default_workers
from repro.core.params import setup
from repro.obs import Observability
from repro.obs.exporters import model_equivalent_exp, phase_cost_rows
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter


def _fresh_group():
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])


class TestChunkRanges:
    def test_covers_exactly(self):
        for n_items in (0, 1, 7, 8, 100):
            for n_chunks in (1, 2, 3, 8, 200):
                ranges = chunk_ranges(n_items, n_chunks)
                flat = [i for lo, hi in ranges for i in range(lo, hi)]
                assert flat == list(range(n_items))

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in chunk_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_chunks_than_items(self):
        assert len(chunk_ranges(3, 16)) == 3
        assert chunk_ranges(0, 4) == []

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestPoolMsm:
    def test_matches_multi_exp_point_and_ops(self):
        group = _fresh_group()
        params = setup(group, 4)
        rng = random.Random(3)
        elements = [group.random_g1(rng) for _ in range(24)]
        exponents = [rng.randrange(group.order) for _ in range(24)] + [0] * 0
        serial_counter = OperationCounter()
        group.attach_counter(serial_counter)
        expected = group.multi_exp(elements, exponents)
        serial_ops = serial_counter.snapshot()
        group.detach_counter()

        pool_counter = OperationCounter()
        group.attach_counter(pool_counter)
        with WorkerPool(params, 2) as pool:
            result = pool.msm(elements, exponents)
        pool_ops = pool_counter.snapshot()
        group.detach_counter()
        assert result.point == expected.point
        assert pool_ops == serial_ops

    def test_inline_below_threshold(self):
        group = _fresh_group()
        params = setup(group, 4)
        rng = random.Random(4)
        n = MIN_PARALLEL_ITEMS - 1
        elements = [group.random_g1(rng) for _ in range(n)]
        exponents = [rng.randrange(group.order) for _ in range(n)]
        with WorkerPool(params, 4) as pool:
            result = pool.msm(elements, exponents)
            assert pool._pool is None  # no processes were forked
        assert result.point == group.multi_exp(elements, exponents).point

    def test_validation(self):
        group = _fresh_group()
        params = setup(group, 4)
        with WorkerPool(params, 2) as pool:
            with pytest.raises(ValueError, match="equal length"):
                pool.msm([group.g1()], [1, 2])
            with pytest.raises(ValueError, match="at least one term"):
                pool.msm([], [])

    def test_hash_msm_matches_serial(self):
        group = _fresh_group()
        params = setup(group, 4)
        rng = random.Random(5)
        ids = [b"block-%d" % i for i in range(20)]
        betas = [rng.randrange(1, group.order) for _ in range(20)]
        serial = group.multi_exp([group.hash_to_g1(i) for i in ids], betas)
        counter = OperationCounter()
        group.attach_counter(counter)
        with WorkerPool(params, 3) as pool:
            result = pool.hash_msm(ids, betas)
        group.detach_counter()
        # The partials merge uncleared: [h] of the raw sum is the serial χ.
        assert result.point == group.raw_hash_msm(ids, betas)
        assert group._raw_scalar_mul(result.point, group.params.h) == serial.point
        assert counter.hash_to_g1 == 20
        assert counter.exp_g1_msm == 20


def _run_system(workers, data):
    group = _fresh_group()
    obs = Observability.create()
    with SemPdpSystem.create(group, k=4, rng=random.Random(11), obs=obs,
                             workers=workers) as system:
        owner = system.enroll("alice")
        system.upload(owner, data, b"file-1")
        ok = system.audit(b"file-1")
        stored = system.cloud._files[b"file-1"]
        signatures = [sig.point for sig in stored.signatures]
    group.detach_counter()
    rows = {
        r["phase"]: (r["exp"], r["pair"]) for r in phase_cost_rows(obs.tracer, k=4)
    }
    return ok, signatures, rows, obs


DATA = b"shared document payload " * 40


class TestEndToEndInvariance:
    def test_bit_identical_signatures_and_equal_costs(self):
        ok1, sigs1, rows1, _ = _run_system(1, DATA)
        ok2, sigs2, rows2, _ = _run_system(2, DATA)
        ok3, sigs3, rows3, _ = _run_system(3, DATA)
        assert ok1 and ok2 and ok3
        assert sigs1 == sigs2 == sigs3
        assert rows1 == rows2 == rows3

    def test_worker_spans_cover_fanned_out_ops(self):
        _, _, _, obs = _run_system(2, DATA)
        worker_spans = [s for s in obs.tracer.spans if s.name.endswith(".worker")]
        assert worker_spans, "fan-out should record per-worker spans"
        fanned = sum(
            model_equivalent_exp(span.op_counts()) for span in worker_spans
        )
        assert fanned > 0

    def test_cost_table_reconciles_under_parallelism(self):
        _, _, rows, obs = _run_system(2, DATA)
        modeled = [r for r in phase_cost_rows(obs.tracer, k=4)
                   if r["predicted_exp"] is not None]
        assert {r["phase"] for r in modeled} == {"sign", "proofgen", "proofverify"}
        for row in modeled:
            assert row["exp"] == row["predicted_exp"], row
            assert row["pair"] == row["predicted_pair"], row
