"""Multiprocessing fan-out for the audit/upload hot paths.

The paper's evaluation audits files of 100k–1M blocks with c = 460
challenged blocks; the per-block work (hash-to-curve, one MSM term, one
blind/unblind exponentiation) is embarrassingly parallel.  This module
chunks those per-block computations across a pool of worker processes
while preserving two invariants the rest of the repo depends on:

**Bit-identical results.**  The group is commutative and our arithmetic is
exact, so partial aggregates computed over contiguous chunks merge to the
same point regardless of chunking; and every random draw (blinding factors,
betas, gammas) happens *sequentially in the parent*, so a seeded run
produces byte-for-byte the same proofs at any ``--workers`` value.

**Exact op-count reconciliation.**  Each worker attaches a fresh
:class:`~repro.pairing.interface.OperationCounter` and returns the snapshot
delta alongside its result; the parent merges the deltas into its own
counter (:meth:`OperationCounter.merge`) *inside a per-worker tracer span*,
so phase traces, the cost table, and the PR-3 regression gate see exactly
the tallies a single-process run would produce.  This works because every
tally is per-term (one ``exp_g1_msm`` per nonzero MSM exponent, one
``hash_to_g1`` per id, …) and therefore invariant under chunking; the
partial-aggregate merges use raw, uncounted group additions — matching
:meth:`PairingGroup.multi_exp`, which doesn't tally its internal
additions either.

Workers are started with the ``fork`` context where available (Linux —
inherits the parent's imports cheaply) and receive the system parameters
once via the pool initializer.  Like a
:class:`~repro.core.owner.DataOwner`, a worker aggregates, blinds and
unblinds through fixed-base tables for u_1..u_k, g and pk, so it tallies
the same lookups at any worker count.  It builds them in memory on its
first blind or unblind task, outside the task's op delta (an audit-only
pool builds none).
"""

from __future__ import annotations

import multiprocessing
import os

from repro.core.blocks import Block
from repro.core.params import SystemParams
from repro.crypto.blind_bls import BlindingState, fixed_base_powers, unblind_batch
from repro.ec.fixed_base import FixedBaseTable, aggregate_with_tables
from repro.obs.tracer import NULL_TRACER
from repro.pairing.interface import GroupElement, OperationCounter

#: Below this many items a fan-out costs more in pickling than it saves.
MIN_PARALLEL_ITEMS = 8

# Populated inside each worker process by :func:`_init_worker`.
_WORKER: dict = {}


def chunk_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into ≤ ``n_chunks`` contiguous ``(lo, hi)``.

    Deterministic and order-preserving — the merge order (and therefore
    every result) is independent of worker scheduling.  Chunk sizes differ
    by at most one.

    >>> chunk_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> chunk_ranges(2, 8)  # never more chunks than items
    [(0, 1), (1, 2)]
    """
    if n_items <= 0:
        return []
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    ranges = []
    lo = 0
    for i in range(n_chunks):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def default_workers() -> int:
    """A sensible ``--workers`` default: the machine's CPU count."""
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Worker-side task functions (must be module-level for pickling)
# ---------------------------------------------------------------------------

def _init_worker(params: SystemParams) -> None:
    group = params.group
    counter = OperationCounter()
    group.attach_counter(counter)
    _WORKER.clear()
    _WORKER.update(params=params, group=group, counter=counter, tables={})


def _table(key, build):
    """The worker's table(s) under ``key``, built on first use."""
    tables = _WORKER["tables"]
    if key not in tables:
        tables[key] = build()
    return tables[key]


def _u_tables():
    """The u_1..u_k tables."""
    params = _WORKER["params"]
    bits = params.order.bit_length()
    return _table("u", lambda: [FixedBaseTable(u, bits) for u in params.u])


def _base_table(base: GroupElement):
    """The table for a blinding base (g, or one SEM key pk)."""
    bits = _WORKER["params"].order.bit_length()
    return _table(base.point, lambda: FixedBaseTable(base, bits))


def _delta_since(before):
    return _WORKER["counter"].diff(before)


def _task_msm(payload):
    """Partial MSM over raw G1 points: returns (point, op-delta)."""
    points, exponents = payload
    group = _WORKER["group"]
    before = _WORKER["counter"].snapshot()
    elements = [GroupElement(group, pt) for pt in points]
    acc = group.multi_exp(elements, exponents)
    return acc.point, _delta_since(before)


def _task_hash_msm(payload):
    """Partial Σ β_i·P_i of Eq. 6's raw χ (no cofactor clearing), with the
    raw P_i: returns (point, raw points, op-delta)."""
    block_ids, betas = payload
    group = _WORKER["group"]
    before = _WORKER["counter"].snapshot()
    hashed = [group._hash_to_curve(data) for data in block_ids]
    point = group.raw_hash_msm(block_ids, betas, hashed=hashed)
    return point, hashed, _delta_since(before)


def _task_blind(payload):
    """Aggregate + blind a chunk of blocks with parent-drawn factors."""
    raw_blocks, rs = payload
    params = _WORKER["params"]
    # Built before the snapshot: not this task's ops.
    u_tables = _u_tables()
    g1_table = _base_table(_WORKER["group"].g1())
    before = _WORKER["counter"].snapshot()
    aggregates = [
        aggregate_with_tables(params, Block(block_id=block_id, elements=elements), u_tables)
        for block_id, elements in raw_blocks]
    masks = fixed_base_powers(g1_table, rs)
    return [(m * mask).point for m, mask in zip(aggregates, masks)], _delta_since(before)


def _task_unblind(payload):
    """Unblind a chunk of blind signatures (Eq. 5, checks already done)."""
    sig_pts, rs, pk_pt = payload
    group = _WORKER["group"]
    table = _base_table(GroupElement(group, pk_pt))  # built before the snapshot
    before = _WORKER["counter"].snapshot()
    states = [BlindingState(r=r, blinded=None) for r in rs]  # Eq. 5 reads r only
    signatures = [GroupElement(group, pt) for pt in sig_pts]
    out = unblind_batch(group, states, signatures, table)
    return [sig.point for sig in out], _delta_since(before)


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """A persistent pool of processes for chunked audit/upload work.

    Construct once (it forks lazily on first use), share between the cloud,
    verifier, and owner so one audit round reuses the same workers, and
    :meth:`close` it (or use it as a context manager) when done.

    Args:
        params: the system parameters every worker needs.
        workers: process count; ``<= 1`` makes every method run inline in
            the parent (identical results and op counts, no processes).
        tracer: an :class:`~repro.obs.tracer.Tracer`; each fan-out merges
            every worker's op delta inside a ``<task>.worker`` span so
            traces show per-worker cost.
    """

    def __init__(
        self,
        params: SystemParams,
        workers: int,
        tracer=None,
    ):
        self.params = params
        self.group = params.group
        self.workers = max(1, int(workers))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._pool = None

    # -- lifecycle ---------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context()
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.params,),
            )
        return self._pool

    def close(self) -> None:
        """Terminate the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- merge helpers -----------------------------------------------------
    def _merge_partials(self, task: str, results):
        """Merge (point, delta) partials: raw adds + counter/span merges."""
        counter = self.group.counter
        acc = None
        for i, (point, delta) in enumerate(results):
            # Merging inside the span lets the tracer attribute this
            # worker's ops to its own `<task>.worker` span automatically.
            with self.tracer.span(f"{task}.worker", worker=i):
                if counter is not None:
                    counter.merge(delta)
            acc = point if acc is None else self.group._add(acc, point)
        return GroupElement(self.group, acc)

    def _run(self, task_fn, payloads):
        pool = self._ensure_pool()
        return pool.map(task_fn, payloads)

    # -- fan-out operations -------------------------------------------------
    def fans_out(self, n_items: int) -> bool:
        """Whether ``n_items`` items are worth shipping to the workers."""
        return self.workers > 1 and n_items >= MIN_PARALLEL_ITEMS

    def msm(self, elements: list[GroupElement], exponents: list[int]) -> GroupElement:
        """``prod elements[i] ** exponents[i]`` chunked across workers.

        Identical point and op tallies to
        :meth:`~repro.pairing.interface.PairingGroup.multi_exp` on the
        whole input.
        """
        if len(elements) != len(exponents):
            raise ValueError("elements and exponents must have equal length")
        if not elements:
            raise ValueError("need at least one term")
        if not self.fans_out(len(elements)):
            return self.group.multi_exp(elements, exponents)
        payloads = [
            ([el.point for el in elements[lo:hi]], list(exponents[lo:hi]))
            for lo, hi in chunk_ranges(len(elements), self.workers)
        ]
        return self._merge_partials("msm", self._run(_task_msm, payloads))

    def hash_msm(self, block_ids: list[bytes], betas: list[int], cache=None) -> GroupElement:
        """Σ β_i·P_i over the raw try-and-increment points — hash-to-curve
        fanned out too.

        Each chunk is one
        :meth:`~repro.pairing.type_a.TypeAPairingGroup.raw_hash_msm` call,
        and the partials merge uncleared: the result wraps the raw point
        that :meth:`~repro.pairing.type_a.TypeAPairingGroup.hashed_pairing_check`
        pairs against pk_h, with the same point and op tallies as that
        call on the whole input.  Workers send their raw P_i back with the
        partial sum, and the parent keeps them in ``cache`` when given one.
        """
        if len(block_ids) != len(betas):
            raise ValueError("block_ids and betas must have equal length")
        if not block_ids:
            raise ValueError("need at least one term")
        if not self.fans_out(len(block_ids)):
            return GroupElement(self.group, self.group.raw_hash_msm(block_ids, betas, cache=cache))
        ranges = chunk_ranges(len(block_ids), self.workers)
        payloads = [(list(block_ids[lo:hi]), list(betas[lo:hi])) for lo, hi in ranges]
        results = self._run(_task_hash_msm, payloads)
        if cache is not None:
            for (lo, hi), (_, hashed, _) in zip(ranges, results):
                for data, point in zip(block_ids[lo:hi], hashed):
                    cache.put(data, point)
        return self._merge_partials("hash_msm", [(point, delta) for point, _, delta in results])

    def blind_blocks(self, blocks: list[Block], rs: list[int]) -> list[GroupElement]:
        """Aggregate + blind every block across workers, with parent-drawn
        blinding factors.

        The caller draws ``rs`` (sequentially, before calling) so the rng
        stream is identical to a serial run, and runs its serial path
        itself when :meth:`fans_out` says no.
        """
        if len(blocks) != len(rs):
            raise ValueError("one blinding factor per block required")
        payloads = [
            (
                [(b.block_id, b.elements) for b in blocks[lo:hi]],
                list(rs[lo:hi]),
            )
            for lo, hi in chunk_ranges(len(blocks), self.workers)
        ]
        results = self._run(_task_blind, payloads)
        return self._collect_lists("blind", results)

    def unblind_batch(
        self,
        states: list[BlindingState],
        signatures: list[GroupElement],
        pk: GroupElement,
    ) -> list[GroupElement]:
        """Unblind every signature (Eq. 5) across workers."""
        if len(states) != len(signatures):
            raise ValueError("one blind signature per state required")
        payloads = [
            (
                [sig.point for sig in signatures[lo:hi]],
                [s.r for s in states[lo:hi]],
                pk.point,
            )
            for lo, hi in chunk_ranges(len(states), self.workers)
        ]
        results = self._run(_task_unblind, payloads)
        return self._collect_lists("unblind", results)

    def _collect_lists(self, task: str, results) -> list[GroupElement]:
        counter = self.group.counter
        out: list[GroupElement] = []
        for i, (points, delta) in enumerate(results):
            with self.tracer.span(f"{task}.worker", worker=i):
                if counter is not None:
                    counter.merge(delta)
            out.extend(GroupElement(self.group, pt) for pt in points)
        return out
