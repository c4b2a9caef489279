"""Benchmark harness: versioned result schema and trajectory files.

The paper's evaluation is a set of cost curves (Table I, Figs. 4–6); this
module makes our own curves durable.  Every benchmark run — whether driven
by ``repro-pdp bench run`` or by the pytest suites under ``benchmarks/`` —
is serialized into one *run document*:

* run metadata (suite name, schema version, creation time, config),
* an environment fingerprint (interpreter, platform, CPU count) so runs
  from different machines are never compared as if they were comparable,
* one entry per *phase* carrying best-of-``repeats`` wall seconds **and**
  the exact operation tallies (``exp_g1``, ``pairings``, …) plus their
  model-equivalent ``Exp``/``Pair`` totals in the paper's Table I units.

Run documents accumulate in ``BENCH_<suite>.json`` *trajectory* files at
the repository root (committed, so the perf history travels with the
code) and are written individually under ``benchmarks/results/``.  The
regression detector in :mod:`repro.obs.regress` compares a fresh run
against a trajectory's baseline: op counts are deterministic, so any
drift there is a real change in the protocol's cost, not noise.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.obs.exporters import model_equivalent_exp
from repro.pairing.interface import OperationCounter

#: Bump on any backwards-incompatible change to the run document layout.
SCHEMA_VERSION = 1

#: How many runs one trajectory file retains (oldest dropped first).
MAX_TRAJECTORY_RUNS = 50


class BenchSchemaError(Exception):
    """A run document does not conform to the versioned schema."""


# ---------------------------------------------------------------------------
# Run documents
# ---------------------------------------------------------------------------

def environment_fingerprint() -> dict:
    """Identify the machine/interpreter a run was measured on.

    Wall-time comparisons across different fingerprints are meaningless
    (the regression detector downgrades them to op-count-only).
    """
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def make_phase(
    name: str,
    wall_s: float,
    ops: dict | None = None,
    repeats: int = 1,
    scalars: dict | None = None,
) -> dict:
    """One phase entry: wall time plus exact op tallies in Table I units."""
    ops = {k: int(v) for k, v in (ops or {}).items() if v}
    return {
        "name": name,
        "wall_s": float(wall_s),
        "repeats": int(repeats),
        "ops": ops,
        "exp": model_equivalent_exp(ops),
        "pair": ops.get("pairings", 0),
        "scalars": {k: float(v) for k, v in (scalars or {}).items()},
    }


def make_run(
    suite: str,
    phases: list[dict],
    config: dict | None = None,
    created_unix: float | None = None,
) -> dict:
    """Assemble one schema-versioned run document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "created_unix": time.time() if created_unix is None else float(created_unix),
        "environment": environment_fingerprint(),
        "config": dict(config or {}),
        "phases": list(phases),
    }


def validate_run(run: dict) -> dict:
    """Check ``run`` against the schema; returns it or raises.

    Raises :class:`BenchSchemaError` naming every violation, so a corrupt
    trajectory file fails loudly instead of producing nonsense deltas.
    """
    problems: list[str] = []
    if not isinstance(run, dict):
        raise BenchSchemaError("run document must be a JSON object")
    version = run.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"schema_version {version!r} is not the supported {SCHEMA_VERSION}"
        )
    if not isinstance(run.get("suite"), str) or not run.get("suite"):
        problems.append("missing suite name")
    if not isinstance(run.get("environment"), dict):
        problems.append("missing environment fingerprint")
    phases = run.get("phases")
    if not isinstance(phases, list) or not phases:
        problems.append("phases must be a non-empty list")
        phases = []
    seen: set[str] = set()
    for i, phase in enumerate(phases):
        where = f"phases[{i}]"
        if not isinstance(phase, dict):
            problems.append(f"{where} is not an object")
            continue
        name = phase.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where} has no name")
        elif name in seen:
            problems.append(f"duplicate phase name {name!r}")
        else:
            seen.add(name)
        if not isinstance(phase.get("wall_s"), (int, float)) or phase.get("wall_s", -1) < 0:
            problems.append(f"{where} wall_s must be a non-negative number")
        ops = phase.get("ops")
        if not isinstance(ops, dict) or any(
            not isinstance(v, int) or v < 0 for v in ops.values()
        ):
            problems.append(f"{where} ops must map names to non-negative ints")
    if problems:
        raise BenchSchemaError("; ".join(problems))
    return run


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_ops_and_wall(group, fn, repeats: int = 1) -> tuple[float, dict]:
    """Best-of-``repeats`` wall seconds plus the exact op mix of one call.

    Ops are taken from the first call (the protocol's operation counts are
    deterministic for fixed inputs); timing keeps the counter attached so
    the measured path is the instrumented one users actually run.  The
    previously attached counter, if any, is restored afterwards.
    """
    counter = OperationCounter()
    previous = group.counter
    group.attach_counter(counter)
    try:
        before = counter.snapshot()
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        ops = counter.diff(before)
        for _ in range(repeats - 1):
            start = time.perf_counter()
            fn()
            wall = min(wall, time.perf_counter() - start)
    finally:
        group.counter = previous
    return wall, ops


# ---------------------------------------------------------------------------
# Suites (small-n: fast enough for CI smoke, exact in op counts)
# ---------------------------------------------------------------------------

def _toy_group():
    from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])


def _dense(params, n_blocks: int) -> bytes:
    return bytes((i % 255) + 1 for i in range(params.block_bytes() * n_blocks - 8))


def _suite_table1(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """The four Table I cells at toy scale (k=6, n=8 dense blocks)."""
    import random

    from repro.core.multi_sem import MultiSEMClient, SEMCluster
    from repro.core.owner import DataOwner
    from repro.core.params import setup
    from repro.core.sem import SecurityMediator

    group = _toy_group()
    params = setup(group, k=6)
    data = _dense(params, 8)
    cells = [
        ("single.basic", None, False),
        ("single.opt", None, True),
        ("multi2.basic", 2, False),
        ("multi2.opt", 2, True),
    ]
    phases = []
    for label, t, optimized in cells:
        rng = random.Random(11)
        if t is None:
            sem = SecurityMediator(group, rng=rng, require_membership=False)
            service, pk, pk1 = sem, sem.pk, sem.pk_g1
        else:
            cluster = SEMCluster(group, t=t, rng=rng, require_membership=False)
            service = MultiSEMClient(cluster, batch=optimized, rng=rng)
            pk, pk1 = cluster.master_pk, cluster.master_pk_g1
        owner = DataOwner(params, pk, rng=rng)
        wall, ops = measure_ops_and_wall(
            group,
            lambda: owner.sign_file(data, b"bench", service, batch=optimized, sem_pk_g1=pk1),
            repeats,
        )
        phases.append(
            make_phase(f"sign.{label}", wall, ops, repeats=repeats, scalars={"n_blocks": 8})
        )
    return phases, {"param_set": "toy-64", "k": 6, "n_blocks": 8}


def _suite_audit(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """ProofGen + ProofVerify over a c=4 challenge (k=4, n=8 blocks).

    Options (``repro-pdp bench run --suite audit ...``):

    * ``param_set`` — curve parameters (default ``toy-64``);
    * ``challenged`` — challenge size c (default 4);
    * ``n_blocks`` — blocks to sign (default 8, raised to c if below it);
    * ``workers`` — fan proof generation and verification across N worker
      processes.  Op counts are invariant under the worker count by
      construction, so the same baseline gates every ``--workers`` value.
    """
    import random

    from repro.core.cloud import CloudServer
    from repro.core.owner import DataOwner
    from repro.core.params import setup
    from repro.core.sem import SecurityMediator
    from repro.core.verifier import PublicVerifier
    from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

    param_set = str(options.get("param_set") or "toy-64")
    challenged = int(options.get("challenged") or 4)
    n_blocks = max(int(options.get("n_blocks") or 8), challenged)
    workers = int(options.get("workers") or 1)
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[param_set])
    params = setup(group, k=4)
    rng = random.Random(23)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    signed = owner.sign_file(_dense(params, n_blocks), b"bench", sem, batch=True)
    pool = None
    if workers > 1:
        from repro.core.parallel import WorkerPool

        pool = WorkerPool(params, workers)
    try:
        cloud = CloudServer(params, org_pk=sem.pk, pool=pool)
        cloud.store(signed)
        verifier = PublicVerifier(params, sem.pk, pool=pool)
        challenge = verifier.generate_challenge(
            b"bench", len(signed.blocks), sample_size=challenged
        )
        # Warm up outside the timed region (fork + per-worker init is a
        # one-time cost; the phases measure steady-state throughput) and
        # check the proof verifies before timing anything.
        proof = cloud.generate_proof(b"bench", challenge)
        assert verifier.verify(challenge, proof), "audit suite produced a failing proof"
        wall_gen, ops_gen = measure_ops_and_wall(
            group, lambda: cloud.generate_proof(b"bench", challenge), repeats
        )
        wall_ver, ops_ver = measure_ops_and_wall(
            group, lambda: verifier.verify(challenge, proof), repeats
        )
    finally:
        if pool is not None:
            pool.close()
    phases = [
        make_phase("proofgen", wall_gen, ops_gen, repeats=repeats,
                   scalars={"challenged": len(challenge)}),
        make_phase("proofverify", wall_ver, ops_ver, repeats=repeats,
                   scalars={"challenged": len(challenge)}),
    ]
    return phases, {"param_set": param_set, "k": 4, "n_blocks": n_blocks,
                    "challenged": challenged, "workers": workers}


def _suite_service(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """Batched vs sequential signing pipeline at batch size 64 (k=4)."""
    import random

    from repro.core.blocks import encode_data
    from repro.core.params import setup
    from repro.core.sem import SecurityMediator
    from repro.service.api import SignRequest, next_request_id
    from repro.service.pipeline import SigningPipeline

    group = _toy_group()
    params = setup(group, k=4)
    sem = SecurityMediator(group, rng=random.Random(5), require_membership=False)
    batched = SigningPipeline(
        params, sem, sem.pk, org_pk_g1=sem.pk_g1, rng=random.Random(6)
    )
    sequential = SigningPipeline(
        params, sem, sem.pk, org_pk_g1=sem.pk_g1, use_fixed_base=False,
        rng=random.Random(7),
    )
    blocks = encode_data(_dense(params, 64), params, b"bench")
    requests = [
        SignRequest(request_id=next_request_id(), owner="bench", blocks=(block,))
        for block in blocks[:64]
    ]
    wall_b, ops_b = measure_ops_and_wall(
        group, lambda: batched.sign_batch(requests), repeats
    )
    wall_s, ops_s = measure_ops_and_wall(
        group, lambda: [sequential.sign_sequential(r) for r in requests], repeats
    )
    phases = [
        make_phase("batched.64", wall_b, ops_b, repeats=repeats,
                   scalars={"sig_per_s": 64 / wall_b}),
        make_phase("sequential.64", wall_s, ops_s, repeats=repeats,
                   scalars={"sig_per_s": 64 / wall_s}),
    ]
    return phases, {"param_set": "toy-64", "k": 4, "batch": 64}


def _suite_chaos(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """Failover round over a clean (w=3, t=2) cluster vs one byzantine SEM.

    The byzantine phase pays the full detection-and-recovery path: the bad
    mediator's share batch fails Eq. 14 verification, the scoreboard trips
    its circuit breaker, and the round completes on the healthy majority.
    A fresh client per call keeps scoreboard state — and hence op counts —
    identical across repeats, so the clean/byzantine delta in the
    trajectory is exactly the failover overhead.
    """
    import random

    from repro.core.blocks import aggregate_block, encode_data
    from repro.core.multi_sem import SEMCluster
    from repro.core.params import setup
    from repro.crypto.blind_bls import blind
    from repro.service.failover import FailoverConfig, FailoverMultiSEMClient

    group = _toy_group()
    params = setup(group, k=4)
    rng = random.Random(31)
    blocks = encode_data(_dense(params, 8), params, b"bench")
    blinded = [blind(group, aggregate_block(params, b), rng).blinded for b in blocks]
    clean = SEMCluster(group, t=2, rng=random.Random(37), require_membership=False)
    faulty = SEMCluster(group, t=2, rng=random.Random(37), require_membership=False)
    faulty.corrupt(0)
    config = FailoverConfig(max_attempts=1, quarantine_rounds=4)

    def round_over(cluster):
        client = FailoverMultiSEMClient.from_cluster(
            cluster, config=config, rng=random.Random(41)
        )
        signatures = client.sign_blinded_batch(blinded)
        assert len(signatures) == len(blinded)
        return signatures

    wall_clean, ops_clean = measure_ops_and_wall(
        group, lambda: round_over(clean), repeats
    )
    wall_byz, ops_byz = measure_ops_and_wall(
        group, lambda: round_over(faulty), repeats
    )
    # Both rounds must yield signatures that verify under the cluster's
    # master key (checked outside the measured region).
    for cluster in (clean, faulty):
        for m, sig in zip(blinded, round_over(cluster)):
            assert group.pair(sig, group.g2()) == group.pair(m, cluster.master_pk), (
                "chaos suite produced a signature that does not verify")
    n = len(blinded)
    phases = [
        make_phase("round.clean", wall_clean, ops_clean, repeats=repeats,
                   scalars={"sig_per_s": n / wall_clean}),
        make_phase("round.byzantine", wall_byz, ops_byz, repeats=repeats,
                   scalars={"sig_per_s": n / wall_byz,
                            "overhead_x": wall_byz / wall_clean}),
    ]
    return phases, {"param_set": "toy-64", "k": 4, "t": 2,
                    "n_blinded": n, "byzantine": 1}


def _suite_msm(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """Straus vs Pippenger head-to-head at small and audit-scale term counts.

    One phase per (algorithm, size) cell; the Pippenger phases carry a
    ``speedup_x`` scalar relative to Straus at the same size.  Both
    algorithms count one ``exp_g1_msm`` per nonzero term, so their op
    tallies are identical by construction and the regression gate only
    watches the wall-clock trend.

    Options: ``param_set`` (default ``toy-64``), ``msm_terms`` (a single
    extra size to probe on top of the defaults).
    """
    import random

    from repro.ec import scalar_mul
    from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

    param_set = str(options.get("param_set") or "toy-64")
    sizes = [64, 460, 1000]
    extra = options.get("msm_terms")
    if extra and int(extra) not in sizes:
        sizes.append(int(extra))
    sizes.sort()
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[param_set])
    rng = random.Random(47)
    points = [group.random_g1(rng) for _ in range(max(sizes))]
    scalars = [group.random_nonzero_scalar(rng) for _ in range(max(sizes))]

    def forced(crossover, pts, scs):
        def fn():
            previous = scalar_mul.set_pippenger_crossover(crossover)
            try:
                group.multi_exp(pts, scs)
            finally:
                scalar_mul.set_pippenger_crossover(previous)
        return fn

    phases = []
    for n in sizes:
        pts, scs = points[:n], scalars[:n]
        wall_s, ops_s = measure_ops_and_wall(group, forced(n + 1, pts, scs), repeats)
        wall_p, ops_p = measure_ops_and_wall(group, forced(1, pts, scs), repeats)
        phases.append(make_phase(f"straus.{n}", wall_s, ops_s, repeats=repeats,
                                 scalars={"terms": n}))
        phases.append(make_phase(f"pippenger.{n}", wall_p, ops_p, repeats=repeats,
                                 scalars={"terms": n, "speedup_x": wall_s / wall_p}))
    return phases, {"param_set": param_set, "sizes": sizes,
                    "crossover": scalar_mul.pippenger_crossover()}


#: Self-contained scenario documents the scenario suite measures — inline
#: (not loaded from ``scenarios/``) so the suite runs from any cwd and a
#: corpus edit cannot silently shift the perf baseline.
_SCENARIO_SUITE_DOCS = {
    "open.poisson": {
        "name": "bench-open-poisson",
        "workload": {"cohorts": [{
            "name": "writers", "members": 5000, "target": "org",
            "arrival": {"kind": "poisson", "rate_rps": 80.0},
            "file_sizes": {"kind": "fixed", "bytes": 64, "max_bytes": 64},
            "upload_to": ["cloud"],
        }]},
        "topology": {
            "sem_groups": [{"name": "org", "w": 3, "t": 2}],
            "clouds": [{"name": "cloud"}],
            "verifiers": [{"name": "tpa", "audits": "cloud", "period_s": 0.2}],
        },
        "settings": {"duration_s": 0.4, "seed": 3, "max_requests": 24},
    },
    "burst.mmpp": {
        "name": "bench-burst-mmpp",
        "workload": {"cohorts": [{
            "name": "crowd", "members": 20000, "target": "org",
            "arrival": {"kind": "mmpp", "rate_rps": 30.0,
                        "burst_rate_rps": 300.0,
                        "mean_burst_s": 0.05, "mean_idle_s": 0.2},
            "file_sizes": {"kind": "uniform", "min_bytes": 32, "max_bytes": 128},
        }]},
        "topology": {"sem_groups": [{"name": "org", "w": 3, "t": 2}]},
        "settings": {"duration_s": 0.4, "seed": 5, "max_requests": 24},
    },
    "faults.failover": {
        "name": "bench-faults-failover",
        "workload": {"cohorts": [{
            "name": "writers", "members": 50, "target": "org",
            "arrival": {"kind": "poisson", "rate_rps": 60.0},
            "file_sizes": {"kind": "fixed", "bytes": 64, "max_bytes": 64},
        }]},
        "topology": {"sem_groups": [{"name": "org", "w": 3, "t": 2}]},
        "settings": {
            "duration_s": 0.3, "seed": 7, "max_requests": 16,
            "failover": {"timeout_s": 0.05},
            "faults": [{"kind": "crash", "node": "sem-org-0",
                        "at": 0.0, "until": 0.2}],
        },
    },
}


def _suite_scenario(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """The scenario engine end-to-end: compile + drive + collect per shape.

    One phase per workload shape (open-loop Poisson with cloud/TPA audit
    traffic, MMPP burst, crash-failover faults), each a full
    :class:`~repro.scenarios.runner.ScenarioRunner` run of an inline
    document.  Ops come from the run's own deterministic tally — the
    engine derives every stream from the scenario seed, so the op mix is
    bit-identical across repeats and machines and any drift the
    regression gate reports is a real protocol- or engine-cost change.
    """
    from repro.scenarios import run_scenario, scenario_from_dict

    phases = []
    for label, doc in _SCENARIO_SUITE_DOCS.items():
        result = run_scenario(scenario_from_dict(doc))
        wall = result.wall_s
        for _ in range(repeats - 1):
            wall = min(wall, run_scenario(scenario_from_dict(doc)).wall_s)
        phases.append(make_phase(
            label, wall, result.ops, repeats=repeats,
            scalars={
                "issued": result.issued,
                "completed": result.completed,
                "latency_p99_s": result.latency_p99_s,
                "bytes_on_wire": result.bytes_on_wire,
            },
        ))
    return phases, {"param_set": "toy-64", "k": 4,
                    "shapes": sorted(_SCENARIO_SUITE_DOCS)}


def _suite_ledger(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """Flight-recorder overhead: the same scenario with the recorder off/on.

    ``recorder.off`` runs the open-loop Poisson shape bare;
    ``recorder.on`` repeats it with causal tracing plus an in-memory
    tamper-evident ledger attached.  The ``overhead_x`` scalar is the
    wall-clock ratio and ``delta_exp``/``delta_pair`` pin the recorder's
    group-operation footprint, which must be exactly zero — recording
    copies integers and hashes JSON, it never touches the curve.  (The
    ≤5% wall-overhead gate lives in ``benchmarks/test_ledger_overhead.py``;
    the trajectory only tracks the trend, so a noisy shared runner cannot
    flake the suite.)
    """
    from repro.obs import Ledger, Observability
    from repro.scenarios import ScenarioRunner, scenario_from_dict

    doc = _SCENARIO_SUITE_DOCS["open.poisson"]

    def run_once(recorder: bool):
        obs = Observability.create() if recorder else None
        ledger = Ledger() if recorder else None
        runner = ScenarioRunner(scenario_from_dict(doc), obs=obs, ledger=ledger)
        return runner.run(), ledger

    result_off, _ = run_once(False)
    wall_off = result_off.wall_s
    for _ in range(repeats - 1):
        wall_off = min(wall_off, run_once(False)[0].wall_s)
    result_on, ledger = run_once(True)
    wall_on = result_on.wall_s
    for _ in range(repeats - 1):
        wall_on = min(wall_on, run_once(True)[0].wall_s)
    ops_off, ops_on = result_off.ops, result_on.ops
    phases = [
        make_phase("recorder.off", wall_off, ops_off, repeats=repeats,
                   scalars={"issued": result_off.issued,
                            "completed": result_off.completed}),
        make_phase("recorder.on", wall_on, ops_on, repeats=repeats,
                   scalars={
                       "issued": result_on.issued,
                       "completed": result_on.completed,
                       "overhead_x": wall_on / wall_off if wall_off else 1.0,
                       "delta_exp": (model_equivalent_exp(ops_on)
                                     - model_equivalent_exp(ops_off)),
                       "delta_pair": (ops_on.get("pairings", 0)
                                      - ops_off.get("pairings", 0)),
                       "ledger_entries": ledger.head()["entries"],
                   }),
    ]
    return phases, {"param_set": "toy-64", "k": 4, "shape": "open.poisson"}


#: The slos: block the slo suite grafts onto the open-loop Poisson shape —
#: one objective per signal family so sampling, burn-rate evaluation, and
#: metering all sit on the measured path.
_SLO_SUITE_BLOCK = {
    "objectives": [
        {"name": "availability", "signal": "availability", "target": 0.95},
        {"name": "drops", "signal": "drop_rate", "target": 0.75},
        {"name": "latency-p90", "signal": "latency", "target": 0.90,
         "threshold_s": 1.0},
        {"name": "sign-cost", "signal": "op_budget", "op": "exp",
         "target": 0.99, "budget_per_request": 500.0},
    ],
    "expected_alerts": [],
}


def _suite_slo(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """SLO-engine overhead: the same scenario with the harness off/on.

    ``slo.off`` runs the open-loop Poisson shape bare; ``slo.on`` repeats
    it with four objectives attached — the virtual-time sampler, the
    multi-window burn-rate evaluation, and per-scope metering all armed.
    ``delta_exp``/``delta_pair`` pin the harness's group-operation
    footprint, which must be exactly zero — sampling copies integers,
    alert evaluation divides them, metering diffs counter snapshots; none
    of it touches the curve.  (The ≤5% wall-overhead gate lives in
    ``benchmarks/test_slo_overhead.py``; the trajectory only tracks the
    trend.)
    """
    from repro.scenarios import ScenarioRunner, scenario_from_dict

    doc_off = _SCENARIO_SUITE_DOCS["open.poisson"]
    doc_on = dict(doc_off, slos=_SLO_SUITE_BLOCK)

    def run_once(doc):
        return ScenarioRunner(scenario_from_dict(doc)).run()

    result_off = run_once(doc_off)
    wall_off = result_off.wall_s
    for _ in range(repeats - 1):
        wall_off = min(wall_off, run_once(doc_off).wall_s)
    result_on = run_once(doc_on)
    wall_on = result_on.wall_s
    for _ in range(repeats - 1):
        wall_on = min(wall_on, run_once(doc_on).wall_s)
    ops_off, ops_on = result_off.ops, result_on.ops
    phases = [
        make_phase("slo.off", wall_off, ops_off, repeats=repeats,
                   scalars={"issued": result_off.issued,
                            "completed": result_off.completed}),
        make_phase("slo.on", wall_on, ops_on, repeats=repeats,
                   scalars={
                       "issued": result_on.issued,
                       "completed": result_on.completed,
                       "overhead_x": wall_on / wall_off if wall_off else 1.0,
                       "delta_exp": (model_equivalent_exp(ops_on)
                                     - model_equivalent_exp(ops_off)),
                       "delta_pair": (ops_on.get("pairings", 0)
                                      - ops_off.get("pairings", 0)),
                       "alert_transitions": len(result_on.alerts or []),
                       "metering_records": len(result_on.metering or []),
                   }),
    ]
    return phases, {"param_set": "toy-64", "k": 4, "shape": "open.poisson",
                    "objectives": len(_SLO_SUITE_BLOCK["objectives"])}


def _suite_fleet(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """Erasure-coded fleet: audit rounds, repair cost vs stripe width.

    Phases:

    * ``audit.round`` — one concurrent audit round over a healthy RS(5,3)
      fleet holding two files.  Every (file, slot) slice is challenged and
      the per-server proofs aggregate through one batched verification, so
      the op mix is exact and identical across repeats.
    * ``repair.w{W}`` — kill one server of an RS(W, W-2) fleet, let one
      audit round quarantine it, then time the repair alone: reconstruct
      the lost slot from ``W - 2`` survivors, re-sign through the SEM
      batch path, re-upload to the spare, re-audit.  A fresh fleet per
      repeat keeps the measured state identical; the width sweep pins how
      repair cost scales with the stripe geometry.
    * ``audit.workers{N}`` — the ``audit.round`` phase again with proof
      generation and verification fanned across ``N`` worker processes.
      ``delta_exp``/``delta_pair`` against the serial round must be
      exactly zero: the pool moves work, it never changes the protocol.

    Options: ``workers`` (default 2), ``file_size`` (default 512 bytes).
    """
    import random

    from repro.erasure.fleet import build_demo_fleet

    # The invariance phase needs a real pool; --workers 1 is rounded up.
    workers = max(2, int(options.get("workers") or 2))
    file_size = int(options.get("file_size") or 512)

    def fresh(servers, fan_out=1):
        fleet = build_demo_fleet(servers=servers, parity=2, spares=1,
                                 seed=0, workers=fan_out)
        payload = random.Random(53)
        for i in range(2):
            fleet.store(payload.randbytes(file_size), f"bench-{i}".encode())
        return fleet

    fleet = fresh(5)

    def round_ok():
        assert fleet.audit_round().aggregate_ok, "fleet audit round failed"

    wall_audit, ops_audit = measure_ops_and_wall(fleet.group, round_ok, repeats)
    phases = [
        make_phase("audit.round", wall_audit, ops_audit, repeats=repeats,
                   scalars={"servers": 5, "files": 2}),
    ]

    widths = [4, 6]
    for width in widths:
        best, ops, stripes, rebuilt = None, None, 0, 0
        for _ in range(repeats):
            hurt = fresh(width)
            lost = hurt.active_names[1]
            hurt.set_online(lost, False)
            hurt.audit_round()  # timeouts trip the quarantine breaker
            counter = OperationCounter()
            previous = hurt.group.counter
            hurt.group.attach_counter(counter)
            try:
                before = counter.snapshot()
                start = time.perf_counter()
                report = hurt.repair()
                wall = time.perf_counter() - start
                if ops is None:
                    ops = counter.diff(before)
            finally:
                hurt.group.counter = previous
            assert report.repaired and not report.unrecoverable, (
                f"width-{width} repair did not complete"
            )
            stripes = hurt.placements.get(b"bench-0").stripes
            rebuilt = report.slices_rebuilt
            best = wall if best is None else min(best, wall)
        phases.append(make_phase(
            f"repair.w{width}", best, ops, repeats=repeats,
            scalars={"stripe_width": width, "stripes": stripes,
                     "slices_rebuilt": rebuilt},
        ))

    pooled = fresh(5, fan_out=workers)
    try:
        pooled.audit_round()  # warm the workers outside the timed region

        def pooled_ok():
            assert pooled.audit_round().aggregate_ok, "pooled audit failed"

        wall_w, ops_w = measure_ops_and_wall(pooled.group, pooled_ok, repeats)
    finally:
        pooled.close()
    phases.append(make_phase(
        f"audit.workers{workers}", wall_w, ops_w, repeats=repeats,
        scalars={
            "workers": workers,
            "delta_exp": (model_equivalent_exp(ops_w)
                          - model_equivalent_exp(ops_audit)),
            "delta_pair": (ops_w.get("pairings", 0)
                           - ops_audit.get("pairings", 0)),
        },
    ))
    return phases, {"param_set": "toy-64", "k": 4, "servers": 5, "parity": 2,
                    "files": 2, "file_size": file_size, "widths": widths,
                    "workers": workers}


def _suite_dynamic(repeats: int, options: dict) -> tuple[list[dict], dict]:
    """Update batches vs naive re-sign-all on a 16-block dynamic file (k=4).

    For each batch size K the ``update.k{K}`` phase measures one atomic
    batch of K modifies through :class:`~repro.dynamic.store.DynamicStore`
    — the suite *asserts* the batch re-signs exactly K blocks and costs
    exactly 2 pairings (one Eq. 7 check for the whole K + 1-message
    round) — and the ``naive.k{K}`` phase measures the static-tier
    answer to the same edit: re-sign all n blocks.  The committed
    baseline pins the Exp/Pair gap the EXPERIMENTS.md table reports.
    ``dyn.audit`` measures one c=4 rank-path + root-signature + Eq. 6
    verification and records the proof's wire size next to the bare
    Eq. 6 response a static audit would send.
    """
    import random

    from repro.core.owner import DataOwner
    from repro.core.params import setup
    from repro.core.sem import SecurityMediator
    from repro.dynamic import DynamicAuditor, DynamicStore, UpdateOp

    group = _toy_group()
    params = setup(group, k=4)
    n_blocks = 16
    chunk = params.block_bytes()
    data = _dense(params, n_blocks) + b"\x01" * 8
    chunks = [data[i:i + chunk] for i in range(0, len(data), chunk)][:n_blocks]
    phases = []
    for batch in (1, 4, 8):
        rng = random.Random(31)
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params, sem.pk, rng=rng)
        store = DynamicStore(params, sem, owner)
        store.create(b"bench-dyn", chunks)
        ops_batch = [
            UpdateOp("modify", i, b"edit-%d" % i) for i in range(batch)
        ]

        def _one_batch():
            receipt = store.update(b"bench-dyn", ops_batch)
            assert receipt.signed_blocks == batch, (
                f"update batch of {batch} re-signed {receipt.signed_blocks} blocks"
            )

        wall_up, ops_up = measure_ops_and_wall(group, _one_batch, repeats)
        assert ops_up.get("pairings", 0) == 2, (
            f"update batch must cost exactly 2 pairings (one Eq. 7 check), "
            f"counted {ops_up.get('pairings', 0)}"
        )
        phases.append(make_phase(
            f"update.k{batch}", wall_up, ops_up, repeats=repeats,
            scalars={"batch": batch, "signed_blocks": batch,
                     "n_blocks": n_blocks},
        ))
        naive_owner = DataOwner(params, sem.pk, rng=random.Random(37))
        wall_naive, ops_naive = measure_ops_and_wall(
            group,
            lambda: naive_owner.sign_file(data[:chunk * n_blocks - 8],
                                          b"bench-naive", sem, batch=True),
            repeats,
        )
        phases.append(make_phase(
            f"naive.k{batch}", wall_naive, ops_naive, repeats=repeats,
            scalars={"batch": batch, "signed_blocks": n_blocks,
                     "n_blocks": n_blocks},
        ))
    rng = random.Random(41)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    store = DynamicStore(params, sem, owner)
    receipt = store.create(b"bench-dyn", chunks)
    auditor = DynamicAuditor(params, sem.pk, rng=rng)
    auditor.pin_receipt(receipt)
    challenge = auditor.generate_challenge(b"bench-dyn", sample_size=4)
    proof = store.generate_proof(b"bench-dyn", challenge)
    assert auditor.verify(b"bench-dyn", challenge, proof), (
        "dynamic suite produced a failing proof"
    )
    wall_aud, ops_aud = measure_ops_and_wall(
        group, lambda: auditor.verify(b"bench-dyn", challenge, proof), repeats
    )
    phases.append(make_phase(
        "dyn.audit", wall_aud, ops_aud, repeats=repeats,
        scalars={"challenged": len(challenge), "n_blocks": n_blocks,
                 "proof_bytes": proof.wire_size_bytes(),
                 "static_response_bytes": proof.response.wire_size_bytes()},
    ))
    return phases, {"param_set": "toy-64", "k": 4, "n_blocks": n_blocks,
                    "batches": [1, 4, 8], "challenged": 4}


#: suite name -> builder(repeats, options) -> (phases, config)
SUITES = {
    "table1": _suite_table1,
    "audit": _suite_audit,
    "service": _suite_service,
    "chaos": _suite_chaos,
    "msm": _suite_msm,
    "scenario": _suite_scenario,
    "ledger": _suite_ledger,
    "slo": _suite_slo,
    "fleet": _suite_fleet,
    "dynamic": _suite_dynamic,
}


def run_suite(suite: str, repeats: int = 3, options: dict | None = None) -> dict:
    """Run one registered suite and return its validated run document.

    ``options`` tunes suites that scale (see each builder's docstring);
    unknown keys are ignored by suites that don't use them.
    """
    try:
        builder = SUITES[suite]
    except KeyError:
        raise BenchSchemaError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        ) from None
    phases, config = builder(repeats, dict(options or {}))
    config["repeats"] = repeats
    return validate_run(make_run(suite, phases, config=config))


# ---------------------------------------------------------------------------
# Trajectory files (BENCH_<suite>.json at the repository root)
# ---------------------------------------------------------------------------

def trajectory_path(suite: str, root=".") -> Path:
    return Path(root) / f"BENCH_{suite}.json"


def load_trajectory(path) -> dict | None:
    """Read a trajectory document, validating every run it holds."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "runs" not in doc:
        # A bare run document is accepted as a single-run trajectory.
        validate_run(doc)
        return {"schema_version": SCHEMA_VERSION, "suite": doc["suite"],
                "baseline": doc, "runs": [doc]}
    for run in doc.get("runs", []):
        validate_run(run)
    if doc.get("baseline") is not None:
        validate_run(doc["baseline"])
    return doc


def _write_trajectory(path, doc: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def append_run(path, run: dict, set_baseline: bool = False) -> dict:
    """Append ``run`` to the trajectory at ``path`` (created if missing).

    ``set_baseline=True`` additionally pins this run as the committed
    baseline future ``bench compare`` invocations diff against.
    """
    validate_run(run)
    doc = load_trajectory(path)
    if doc is None:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "suite": run["suite"],
            "baseline": None,
            "runs": [],
        }
    if doc.get("suite") != run["suite"]:
        raise BenchSchemaError(
            f"trajectory {path} holds suite {doc.get('suite')!r}, not {run['suite']!r}"
        )
    doc["runs"].append(run)
    doc["runs"] = doc["runs"][-MAX_TRAJECTORY_RUNS:]
    if set_baseline or doc.get("baseline") is None:
        doc["baseline"] = run
    _write_trajectory(path, doc)
    return doc


def baseline_of(doc: dict | None) -> dict | None:
    """The run a comparison should diff against: pinned baseline, else the
    most recent trajectory entry."""
    if doc is None:
        return None
    if doc.get("baseline") is not None:
        return doc["baseline"]
    runs = doc.get("runs") or []
    return runs[-1] if runs else None


def write_run_file(run: dict, results_dir) -> Path:
    """Persist one run document under ``results_dir`` (per-run JSON)."""
    results = Path(results_dir)
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(run["created_unix"]))
    path = results / f"bench_{run['suite']}_{stamp}.json"
    path.write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")
    return path
