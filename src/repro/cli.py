"""Command-line interface: a file-backed SEM-PDP deployment.

State lives in a directory (default ``./sempdp``) holding the organization
key material, member credentials, and the "cloud" blob store::

    repro-pdp init --param-set test-80 -k 8
    repro-pdp enroll alice
    repro-pdp upload alice ./report.pdf --file-id reports/q2
    repro-pdp audit reports/q2 --sample 16
    repro-pdp tamper reports/q2 --block 0     # simulate cloud misbehaviour
    repro-pdp audit reports/q2               # exit code 1: corruption caught
    repro-pdp info

This is a demonstration harness: the SEM private key sits in the state
directory, so "the SEM" is a role played locally.  A real deployment would
run :class:`~repro.core.sem.SecurityMediator` behind the network layer in
:mod:`repro.net`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from repro.core.cloud import CloudServer
from repro.core.group_mgmt import MemberCredential
from repro.core.owner import DataOwner
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.core.serial import decode_signed_file, encode_signed_file
from repro.core.verifier import PublicVerifier
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

STATE_FILE = "state.json"
CLOUD_DIR = "cloud"
OBS_DIR = "obs"
LAST_RUN_FILE = "last_run.json"
LAST_SLO_FILE = "last_slo.json"
LEDGER_FILE = "ledger.jsonl"


class CliError(Exception):
    """User-facing failure; printed without a traceback."""


# ---------------------------------------------------------------------------
# State handling
# ---------------------------------------------------------------------------

def _state_path(root: Path) -> Path:
    return root / STATE_FILE


def load_state(root: Path) -> dict:
    path = _state_path(root)
    if not path.exists():
        raise CliError(f"no deployment at {root} (run `repro-pdp init` first)")
    return json.loads(path.read_text())


def save_state(root: Path, state: dict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / CLOUD_DIR).mkdir(exist_ok=True)
    _state_path(root).write_text(json.dumps(state, indent=2, sort_keys=True))


def build_runtime(state: dict):
    """Reconstruct (params, sem, cloud, verifier) from persisted state."""
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[state["param_set"]])
    params = setup(group, state["k"], seed=bytes.fromhex(state["seed"]))
    sem = SecurityMediator(group, sk=int(state["sem_sk"]))
    for token in state["members"].values():
        sem.add_member(MemberCredential(token=bytes.fromhex(token)))
    for token in state.get("revoked", []):
        sem.remove_member(MemberCredential(token=bytes.fromhex(token)))
    cloud = CloudServer(params, org_pk=sem.pk)
    verifier = PublicVerifier(params, sem.pk)
    return params, sem, cloud, verifier


def _make_pool(args, params, obs):
    """A worker pool for ``--workers N`` (N > 1), or ``None``.

    Each worker builds its u_1..u_k, g and pk tables in memory, as the
    owner does, so the owner signs with the same lookups at any worker
    count: results and raw op tallies are identical.
    """
    workers = getattr(args, "workers", 1) or 1
    if workers <= 1:
        return None
    from repro.core.parallel import WorkerPool

    return WorkerPool(params, workers, tracer=obs.tracer if obs.enabled else None)


def _blob_path(root: Path, file_id: str) -> Path:
    safe = file_id.replace("/", "__")
    return root / CLOUD_DIR / f"{safe}.spdp"


def _load_stored(root: Path, params, file_id: str):
    path = _blob_path(root, file_id)
    if not path.exists():
        raise CliError(f"no stored file {file_id!r}")
    return decode_signed_file(path.read_bytes(), params)


def _dyn_blob_path(root: Path, file_id: str) -> Path:
    safe = file_id.replace("/", "__")
    return root / CLOUD_DIR / f"{safe}.dyn"


def _load_dynamic(root: Path, params, file_id: str):
    from repro.dynamic.persist import decode_dynamic_file

    path = _dyn_blob_path(root, file_id)
    if not path.exists():
        raise CliError(f"no dynamic file {file_id!r} "
                       "(create one with `repro-pdp dynamic create`)")
    return decode_dynamic_file(path.read_bytes(), params)


def _save_dynamic(root: Path, params, file_id: str, state) -> None:
    from repro.dynamic.persist import encode_dynamic_file

    _dyn_blob_path(root, file_id).write_bytes(encode_dynamic_file(state, params))


# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------

def _add_obs_flags(p) -> None:
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="append protocol-phase spans to PATH as JSON lines")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a Prometheus text metrics dump to PATH")


def _make_obs():
    from repro.obs import Observability

    return Observability.create()


def _write_obs_outputs(args, obs, header: dict | None = None) -> None:
    from repro.obs import write_metrics_text, write_trace_jsonl

    if getattr(args, "trace_out", None):
        write_trace_jsonl(obs.tracer, args.trace_out, header=header)
    if getattr(args, "metrics_out", None):
        write_metrics_text(obs.registry, args.metrics_out)


def _make_ledger(args):
    """A file-backed :class:`~repro.obs.ledger.Ledger` for ``--ledger PATH``."""
    path = getattr(args, "ledger", None)
    if not path:
        return None
    from repro.obs import Ledger, LedgerError

    try:
        return Ledger(path)
    except LedgerError as exc:
        raise CliError(f"--ledger {path}: {exc}") from None


def _deployment_ledger(root: Path, state: dict, org_pk):
    """The deployment's own flight-recorder chain (``<state-dir>/obs/``).

    Genesis pins (param_set, k, setup seed) and a ``verifier_key`` entry
    pins the organization public key, so ``repro-pdp ledger verify`` can
    re-evaluate recorded audit verdicts offline.
    """
    from repro.obs import Ledger

    obs_dir = root / OBS_DIR
    obs_dir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(obs_dir / LEDGER_FILE)
    fresh = ledger.ensure_genesis({
        "param_set": state["param_set"],
        "k": state["k"],
        "setup_seed": state["seed"],
    })
    if fresh:
        ledger.pin_verifier("cli", org_pk)
    return ledger


def _print_flight_recorder(result) -> None:
    """Ledger head + critical-path attribution lines of a scenario result."""
    if result.ledger is not None:
        print(f"  ledger: {result.ledger['entries']} entries "
              f"(epoch {result.ledger['epoch']}), "
              f"head {result.ledger['hash'][:16]}…")
    path = result.critical_path
    if path is not None and path.get("dominant"):
        dominant = path["dominant"]
        print(f"  critical path (p{int(path['quantile'] * 100)} exemplar "
              f"trace {path['trace']}, {path['latency_s']:.3f}s): "
              f"{dominant['kind']} {dominant['name']} dominates "
              f"({dominant['duration_s']:.3f}s, "
              f"{dominant['share'] * 100:.0f}% of the causal chain)")


def _print_slo_summary(result) -> None:
    """Alerts + error-budget lines of an SLO-enabled scenario result."""
    if result.fired_alerts is None:
        return
    fired = ", ".join(result.fired_alerts) or "none"
    print(f"  alerts fired: {fired}")
    if result.expected_alerts:
        print(f"  alerts expected: {', '.join(result.expected_alerts)}")
    for row in result.error_budgets or []:
        print(f"    budget {row['objective']} ({row['signal']}): "
              f"{row['budget_remaining'] * 100:.1f}% remaining "
              f"(spent {row['budget_spent'] * 100:.1f}%)")
    if result.metering:
        scopes = sorted({r["scope"] for r in result.metering})
        print(f"  metering: {len(result.metering)} record(s) across "
              f"{len(scopes)} scope(s): {', '.join(scopes)}")


def _write_alerts_out(args, result) -> None:
    """``--alerts-out PATH``: the alert timeline as JSONL."""
    path = getattr(args, "alerts_out", None)
    if not path or result.alerts is None:
        return
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(
        json.dumps(event, sort_keys=True) + "\n" for event in result.alerts
    ))
    print(f"  alert timeline: {path}")


def _persist_last_slo(args, scenario, result) -> None:
    """Record the SLO verdict for ``repro-pdp info`` (SLO runs only)."""
    if result.fired_alerts is None:
        return
    payload = {
        "scenario": scenario.name,
        "fired": result.fired_alerts,
        "expected": list(result.expected_alerts or []),
        "error_budgets": result.error_budgets,
    }
    obs_dir = Path(args.state_dir) / OBS_DIR
    obs_dir.mkdir(parents=True, exist_ok=True)
    (obs_dir / LAST_SLO_FILE).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _maybe_profile(args, obs) -> None:
    """Print the measured hot-path profile of this run's spans."""
    if not getattr(args, "profile", False):
        return
    from repro.obs import render_profile

    print(render_profile(obs.tracer))


def _persist_last_run(root: Path, command: str, obs) -> None:
    """Record this run's op counts and phase totals for ``repro-pdp info``."""
    phases = {
        name: {
            "count": entry["count"],
            "duration_s": entry["duration"],
            "ops": entry["ops"],
        }
        for name, entry in sorted(obs.tracer.phase_totals().items())
    }
    payload = {
        "command": command,
        "ops": {k: v for k, v in obs.counter.snapshot().items() if v},
        "phases": phases,
    }
    obs_dir = root / OBS_DIR
    obs_dir.mkdir(parents=True, exist_ok=True)
    (obs_dir / LAST_RUN_FILE).write_text(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_init(args) -> int:
    root = Path(args.state_dir)
    if _state_path(root).exists() and not args.force:
        raise CliError(f"{root} already initialized (use --force to overwrite)")
    if args.param_set not in TYPE_A_PARAM_SETS:
        raise CliError(f"unknown param set {args.param_set!r}; "
                       f"choose from {sorted(TYPE_A_PARAM_SETS)}")
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[args.param_set])
    rng = random.Random(args.seed) if args.seed is not None else None
    sem = SecurityMediator(group, rng=rng)
    state = {
        "param_set": args.param_set,
        "k": args.k,
        "seed": b"repro-cli-params-v1".hex(),
        "sem_sk": str(sem._sk),
        "members": {},
        "revoked": [],
        "files": {},
    }
    save_state(root, state)
    print(f"initialized {args.param_set} deployment (k={args.k}) in {root}")
    return 0


def cmd_enroll(args) -> int:
    root = Path(args.state_dir)
    state = load_state(root)
    if args.member in state["members"]:
        raise CliError(f"member {args.member!r} already enrolled")
    credential = MemberCredential.fresh()
    state["members"][args.member] = credential.token.hex()
    save_state(root, state)
    print(f"enrolled {args.member}")
    return 0


def cmd_revoke(args) -> int:
    root = Path(args.state_dir)
    state = load_state(root)
    token = state["members"].pop(args.member, None)
    if token is None:
        raise CliError(f"member {args.member!r} is not enrolled")
    state["revoked"].append(token)
    save_state(root, state)
    print(f"revoked {args.member}; stored files remain auditable")
    return 0


def cmd_upload(args) -> int:
    root = Path(args.state_dir)
    state = load_state(root)
    params, sem, _, _ = build_runtime(state)
    token = state["members"].get(args.member)
    if token is None:
        raise CliError(f"member {args.member!r} is not enrolled")
    credential = MemberCredential(token=bytes.fromhex(token))
    data = Path(args.path).read_bytes()
    obs = _make_obs()
    obs.observe_group(params.group)
    pool = _make_pool(args, params, obs)
    owner = DataOwner(params, sem.pk, credential=credential, pool=pool)
    try:
        with obs.tracer.span("upload", bytes=len(data)):
            with obs.tracer.span("sign", optimized=not args.no_batch) as span:
                signed = owner.sign_file(
                    data, args.file_id.encode(), sem, batch=not args.no_batch
                )
                span.set(
                    n_blocks=len(signed.blocks),
                    bytes_to_sem=params.group.g1_element_bytes() * len(signed.blocks),
                    bytes_from_sem=params.group.g1_element_bytes() * len(signed.blocks),
                )
    finally:
        if pool is not None:
            pool.close()
    _blob_path(root, args.file_id).write_bytes(encode_signed_file(signed, params))
    state["files"][args.file_id] = {
        "blocks": len(signed.blocks),
        "bytes": len(data),
        "encrypted": signed.encrypted,
    }
    save_state(root, state)
    ledger = _deployment_ledger(root, state, sem.pk)
    ledger.append("upload", {
        "file": args.file_id.encode().hex(),
        "member": args.member,
        "blocks": len(signed.blocks),
        "bytes": len(data),
    })
    _write_obs_outputs(args, obs)
    _persist_last_run(root, "upload", obs)
    print(f"stored {args.file_id!r}: {len(data)} bytes as {len(signed.blocks)} blocks")
    _maybe_profile(args, obs)
    return 0


def cmd_audit(args) -> int:
    root = Path(args.state_dir)
    state = load_state(root)
    params, sem, cloud, verifier = build_runtime(state)
    signed = _load_stored(root, params, args.file_id)
    cloud.store(signed)
    obs = _make_obs()
    obs.observe_group(params.group)
    from repro.obs import bind_verifier_cache

    bind_verifier_cache(obs.registry, verifier)
    pool = _make_pool(args, params, obs)
    cloud.pool = pool
    verifier.pool = pool
    ledger = _deployment_ledger(root, state, sem.pk)
    file_id = args.file_id.encode()
    try:
        with obs.tracer.span("audit"):
            with obs.tracer.span("challenge", n_blocks=len(signed.blocks)) as span:
                challenge = verifier.generate_challenge(
                    file_id, len(signed.blocks), sample_size=args.sample
                )
                span.set(challenged=len(challenge))
            ledger.append("challenge", {
                "verifier": "cli",
                "file": file_id.hex(),
                "blocks": len(challenge),
                "indices": [int(i) for i in challenge.indices],
            })
            with obs.tracer.span("proofgen", challenged=len(challenge)):
                proof = cloud.generate_proof(file_id, challenge)
            before = obs.counter.snapshot()
            with obs.tracer.span(
                "proofverify", challenged=len(challenge), k=params.k
            ) as span:
                ok = verifier.verify(challenge, proof)
                span.set(ok=ok)
            after = obs.counter.snapshot()
    finally:
        if pool is not None:
            pool.close()
    from repro.obs.ledger import audit_record

    ledger.append(*audit_record("cli", file_id, challenge, proof, ok,
                                ops=(before, after)))
    _write_obs_outputs(args, obs)
    _persist_last_run(root, "audit", obs)
    scope = f"{len(challenge)} of {len(signed.blocks)} blocks"
    print(f"audit {args.file_id!r} ({scope}): {'PASS' if ok else 'FAIL'}")
    if args.trace_out or args.metrics_out:
        from repro.obs import cost_table

        print(cost_table(obs.tracer, params.k))
    _maybe_profile(args, obs)
    return 0 if ok else 1


def cmd_tamper(args) -> int:
    root = Path(args.state_dir)
    state = load_state(root)
    params, _, _, _ = build_runtime(state)
    signed = _load_stored(root, params, args.file_id)
    if not 0 <= args.block < len(signed.blocks):
        raise CliError(f"block index out of range (file has {len(signed.blocks)})")
    blocks = list(signed.blocks)
    from dataclasses import replace

    elements = list(blocks[args.block].elements)
    elements[0] = (elements[0] + 1) % params.order
    blocks[args.block] = replace(blocks[args.block], elements=tuple(elements))
    tampered = replace(signed, blocks=tuple(blocks))
    _blob_path(root, args.file_id).write_bytes(encode_signed_file(tampered, params))
    print(f"tampered with block {args.block} of {args.file_id!r}")
    return 0


# ---------------------------------------------------------------------------
# Dynamic files (rank-authenticated updates, batched re-signing)
# ---------------------------------------------------------------------------

def _dynamic_owner(params, sem, state: dict, member: str) -> DataOwner:
    token = state["members"].get(member)
    if token is None:
        raise CliError(f"member {member!r} is not enrolled")
    credential = MemberCredential(token=bytes.fromhex(token))
    return DataOwner(params, sem.pk, credential=credential)


def _pin_dynamic(state: dict, file_id: str, receipt) -> None:
    """Persist the TPA pin (epoch, root, count) for a dynamic file."""
    state.setdefault("dynamic", {})[file_id] = {
        "epoch": receipt.epoch_after,
        "root": receipt.root_after.hex(),
        "count": receipt.count,
    }


def cmd_dynamic_create(args) -> int:
    """Chunk a local file into dynamic blocks, sign, and pin epoch 0."""
    from repro.dynamic import DynamicStore

    root = Path(args.state_dir)
    state = load_state(root)
    params, sem, _, _ = build_runtime(state)
    if args.file_id in state.get("dynamic", {}):
        raise CliError(f"dynamic file {args.file_id!r} already exists")
    chunk_bytes = args.block_bytes or params.block_bytes()
    if not 0 < chunk_bytes <= params.block_bytes():
        raise CliError(f"--block-bytes must be in 1..{params.block_bytes()}")
    data = Path(args.path).read_bytes()
    chunks = [data[i:i + chunk_bytes] for i in range(0, len(data), chunk_bytes)]
    if not chunks:
        raise CliError(f"{args.path} is empty")
    owner = _dynamic_owner(params, sem, state, args.member)
    ledger = _deployment_ledger(root, state, sem.pk)
    store = DynamicStore(params, sem, owner, ledger=ledger)
    receipt = store.create(args.file_id.encode(), chunks)
    _save_dynamic(root, params, args.file_id,
                  store.file_state(args.file_id.encode()))
    _pin_dynamic(state, args.file_id, receipt)
    save_state(root, state)
    print(f"created dynamic file {args.file_id!r}: {len(data)} bytes as "
          f"{receipt.count} blocks, epoch 0, root {receipt.root_after.hex()[:16]}…")
    return 0


def _parse_update_ops(args) -> list:
    """CLI flags -> one atomic batch.

    Ops apply sequentially in a fixed order — all ``--modify``, then all
    ``--insert``, then all ``--delete``, then all ``--append`` — and each
    position is interpreted against the file as already mutated by the
    earlier ops in the batch.
    """
    from repro.dynamic import UpdateOp

    def _pos_payload(spec: str, flag: str) -> tuple[int, bytes]:
        pos, sep, text = spec.partition(":")
        if not sep:
            raise CliError(f"{flag} wants POS:TEXT, got {spec!r}")
        try:
            return int(pos), text.encode()
        except ValueError:
            raise CliError(f"{flag} position {pos!r} is not an integer") from None

    ops = []
    for spec in args.modify or []:
        position, payload = _pos_payload(spec, "--modify")
        ops.append(UpdateOp("modify", position, payload))
    for spec in args.insert or []:
        position, payload = _pos_payload(spec, "--insert")
        ops.append(UpdateOp("insert", position, payload))
    for spec in args.delete or []:
        try:
            ops.append(UpdateOp("delete", int(spec)))
        except ValueError:
            raise CliError(f"--delete position {spec!r} is not an integer") from None
    for text in args.append_block or []:
        ops.append(UpdateOp("append", payload=text.encode()))
    if not ops:
        raise CliError("nothing to do: give at least one of "
                       "--modify/--insert/--delete/--append")
    return ops


def cmd_update(args) -> int:
    """Apply one atomic update batch to a dynamic file (k + 1 signatures)."""
    from repro.dynamic import DynamicFileError, DynamicStore

    root = Path(args.state_dir)
    state = load_state(root)
    params, sem, _, _ = build_runtime(state)
    ops = _parse_update_ops(args)
    owner = _dynamic_owner(params, sem, state, args.member)
    ledger = _deployment_ledger(root, state, sem.pk)
    store = DynamicStore(params, sem, owner, ledger=ledger)
    store.adopt(_load_dynamic(root, params, args.file_id))
    try:
        receipt = store.update(args.file_id.encode(), ops)
    except DynamicFileError as exc:
        raise CliError(str(exc)) from None
    _save_dynamic(root, params, args.file_id, store.file_state(args.file_id.encode()))
    _pin_dynamic(state, args.file_id, receipt)
    save_state(root, state)
    print(f"updated {args.file_id!r}: {receipt.ops} op(s), "
          f"{receipt.signed_blocks} block(s) re-signed (+1 root), "
          f"epoch {receipt.epoch_before} -> {receipt.epoch_after}, "
          f"{receipt.count} blocks, root {receipt.root_after.hex()[:16]}…")
    return 0


def cmd_dynamic_audit(args) -> int:
    """Audit a dynamic file: rank paths + root signature + Eq. 6 together."""
    from repro.dynamic import DynamicAuditor, DynamicStore

    root = Path(args.state_dir)
    state = load_state(root)
    params, sem, _, _ = build_runtime(state)
    pin = state.get("dynamic", {}).get(args.file_id)
    if pin is None:
        raise CliError(f"no dynamic file {args.file_id!r}")
    obs = _make_obs()
    obs.observe_group(params.group)
    store = DynamicStore(params, sem, owner=None)  # answers challenges, signs nothing
    store.adopt(_load_dynamic(root, params, args.file_id))
    auditor = DynamicAuditor(params, sem.pk)
    file_id = args.file_id.encode()
    auditor.pin(file_id, int(pin["epoch"]), bytes.fromhex(pin["root"]),
                int(pin["count"]))
    ledger = _deployment_ledger(root, state, sem.pk)
    with obs.tracer.span("dynamic-audit"):
        with obs.tracer.span("challenge", n_blocks=int(pin["count"])) as span:
            challenge = auditor.generate_challenge(file_id, sample_size=args.sample)
            span.set(challenged=len(challenge))
        with obs.tracer.span("proofgen", challenged=len(challenge)):
            proof = store.generate_proof(file_id, challenge)
        before = obs.counter.snapshot()
        with obs.tracer.span("proofverify", challenged=len(challenge)) as span:
            ok = auditor.verify(file_id, challenge, proof)
            span.set(ok=ok)
        after = obs.counter.snapshot()
    from repro.obs.ledger import audit_record

    ledger.append(*audit_record("cli", file_id, challenge, proof, ok,
                                ops=(before, after)))
    _write_obs_outputs(args, obs)
    _persist_last_run(root, "dynamic-audit", obs)
    scope = f"{len(challenge)} of {pin['count']} blocks"
    print(f"dynamic audit {args.file_id!r} (epoch {proof.epoch}, {scope}): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_dynamic_status(args) -> int:
    """List dynamic files with their pinned epoch, root, and block count."""
    root = Path(args.state_dir)
    state = load_state(root)
    dynamic = state.get("dynamic", {})
    if not dynamic:
        print("no dynamic files")
        return 0
    for file_id, pin in sorted(dynamic.items()):
        print(f"{file_id}: epoch {pin['epoch']}, {pin['count']} blocks, "
              f"root {pin['root'][:16]}…")
    return 0


def cmd_dynamic(args) -> int:
    return args.dynamic_fn(args)


def cmd_serve_sim(args) -> int:
    """Run the batched signing service under the discrete-event simulator.

    Two front doors, one engine: ``--scenario FILE`` executes a declarative
    scenario document, while the legacy flag set (``--chaos`` included) is
    synthesized into an equivalent in-memory scenario and compiled and run
    through the same :class:`~repro.scenarios.runner.ScenarioRunner`.
    """
    from repro.scenarios import (
        ScenarioError,
        load_scenario,
        scenario_from_legacy_args,
        warn_if_mixed,
    )

    if args.scenario:
        warn_if_mixed(args, vars(build_parser().parse_args(["serve-sim"])))
        try:
            scenario = load_scenario(args.scenario)
        except (OSError, ScenarioError) as exc:
            raise CliError(str(exc)) from None
        return _run_scenario(args, scenario)
    try:
        scenario = scenario_from_legacy_args(args)
    except (OSError, ValueError) as exc:  # --chaos file, or the schema
        raise CliError(str(exc)) from None
    (sem_group,) = scenario.topology.sem_groups
    if getattr(args, "slo", False):
        import dataclasses

        from repro.scenarios.slo_wiring import default_slo_spec

        scenario = dataclasses.replace(scenario, slos=default_slo_spec())
    journal = None
    if args.journal:
        from repro.service import SigningJournal

        group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[args.param_set])
        journal = SigningJournal(args.journal, group=group)
    runner, result = _drive_scenario(args, scenario, journal=journal)
    stats = result.services[sem_group.name]
    print(f"serve-sim: {args.param_set}, k={args.k}, "
          f"{sem_group.w} SEM(s) (t={sem_group.t}, {args.crash} crashed), "
          f"{args.clients} client(s) x {args.requests} request(s)")
    print(f"  completed {result.completed}, failed {result.failed}, "
          f"lost {result.lost} in {result.virtual_duration_s:.3f}s virtual time "
          f"({result.bytes_on_wire} bytes on the wire)")
    print(f"  batches: {stats['batches']} (mean size {stats['batch_size_mean']:.1f}), "
          f"signatures: {stats['signatures_produced']}")
    print(f"  queue high watermark: {stats['queue_high_watermark']}, "
          f"retries: {stats['retries']}, failovers: {stats['failovers']}")
    print(f"  latency p50 {stats['latency_p50_s']:.3f}s, "
          f"p99 {stats['latency_p99_s']:.3f}s (virtual)")
    if args.chaos:
        injected = ", ".join(
            f"{kind} {count}" for kind, count in sorted(result.fault_counts.items())
        ) or "none fired"
        settings = scenario.settings
        print(f"  chaos plan {settings.fault_plan_name or args.chaos!r} "
              f"(seed {settings.fault_seed}): {injected}")
        print(f"  health: {stats['quarantine_trips']} quarantine trip(s), "
              f"{stats['probes']} probe(s), "
              f"{stats['invalid_share_batches']} invalid share batch(es)")
    if journal is not None:
        jsummary = journal.summary()
        print(f"  journal: {jsummary['accepted']} accepted, "
              f"{jsummary['completed']} completed, "
              f"{jsummary['pending']} pending, {runner.replayed} replayed")
    _print_flight_recorder(result)
    _print_slo_summary(result)
    _write_run_outputs(args, runner, result)
    return 0 if result.completed == result.issued else 1


# ---------------------------------------------------------------------------
# Scenario engine commands
# ---------------------------------------------------------------------------

def _drive_scenario(args, scenario, journal=None):
    """Run one scenario with the CLI's obs bundle, ``--ledger`` and
    ``--watch`` dashboard; returns ``(runner, result)``."""
    from repro.scenarios import ScenarioRunner

    runner = ScenarioRunner(scenario, obs=_make_obs(), journal=journal,
                            ledger=_make_ledger(args),
                            max_events=getattr(args, "max_events", None))
    dashboard = None
    if getattr(args, "watch", False):
        from repro.obs import Dashboard

        compiled = runner.compile()
        dashboard = Dashboard(
            runner.obs.registry, clock=lambda: compiled.sim.now,
            interval_s=getattr(args, "watch_interval", 0.05),
        )
        dashboard.exemplar_source = lambda: [
            pair for node in compiled.cohorts.values()
            for pair in node.exemplars
        ]
        if runner.slo is not None:
            dashboard.slo_source = runner.slo.engine.panel
        dashboard.attach(compiled.sim)
    result = runner.run()
    if dashboard is not None:
        dashboard.tick()  # final frame: the run's end state
    return runner, result


def _write_run_outputs(args, runner, result) -> None:
    """``--alerts-out``, the persisted SLO summary, ``--trace-out`` and
    ``--metrics-out`` of a finished scenario run."""
    from repro.obs import trace_header

    scenario = runner.scenario
    _write_alerts_out(args, result)
    _persist_last_slo(args, scenario, result)
    _write_obs_outputs(args, runner.obs, header=trace_header(
        scenario=scenario.name, seed=scenario.settings.seed,
        digest=result.digest(),
    ))


def _run_scenario(args, scenario) -> int:
    """Execute one scenario, print its verdict, optionally write the report.

    Shared by ``repro-pdp scenario run`` and ``serve-sim --scenario``.
    Exit codes: 0 envelope pass, 1 envelope fail.
    """
    import dataclasses

    seed_override = getattr(args, "seed_override", None)
    if seed_override is not None:
        scenario = dataclasses.replace(
            scenario,
            settings=dataclasses.replace(scenario.settings, seed=seed_override),
        )
    if getattr(args, "slo", False) and scenario.slos is None:
        raise CliError(
            f"--slo: scenario '{scenario.name}' declares no slos: component"
        )
    runner, result = _drive_scenario(args, scenario)
    workload = scenario.workload
    print(f"scenario '{scenario.name}': {scenario.settings.param_set}, "
          f"k={scenario.settings.k}, seed {scenario.settings.seed}, "
          f"{len(scenario.topology.sem_groups)} group(s), "
          f"{len(workload.cohorts)} cohort(s), "
          f"{workload.total_members} member(s)")
    print(f"  issued {result.issued}, completed {result.completed}, "
          f"failed {result.failed}, lost {result.lost} "
          f"in {result.virtual_duration_s:.3f}s virtual time "
          f"({result.bytes_on_wire} bytes on the wire)")
    print(f"  latency p50 {result.latency_p50_s:.3f}s, "
          f"p99 {result.latency_p99_s:.3f}s (virtual); "
          f"ops/request: Exp {result.ops_per_request('exp'):.1f}, "
          f"Pair {result.ops_per_request('pair'):.1f}")
    for name, stats in sorted(result.verifiers.items()):
        print(f"  tpa {name}: {stats['audits_passed']} audit(s) passed, "
              f"{stats['audits_failed']} failed over "
              f"{stats['files_watched']} file(s)")
    if result.fault_counts:
        fired = ", ".join(f"{k} {v}" for k, v in sorted(result.fault_counts.items()))
        print(f"  faults: {fired}")
    _print_flight_recorder(result)
    _print_slo_summary(result)
    print(f"  digest: {result.digest()}")
    if result.passed:
        checked = len(scenario.settings.envelope.checks)
        print(f"  envelope: PASS ({checked} check(s))")
    else:
        print("  envelope: FAIL")
        for violation in result.violations:
            print(f"    {violation.render()}")
    report_out = getattr(args, "report_out", None)
    if report_out:
        Path(report_out).parent.mkdir(parents=True, exist_ok=True)
        Path(report_out).write_text(
            json.dumps(result.to_report(), indent=2, sort_keys=True) + "\n"
        )
        print(f"  report: {report_out}")
    _write_run_outputs(args, runner, result)
    return 0 if result.passed else 1


def cmd_scenario_run(args) -> int:
    from repro.scenarios import ScenarioError, load_scenario

    try:
        scenario = load_scenario(args.path)
    except (OSError, ScenarioError) as exc:
        raise CliError(str(exc)) from None
    return _run_scenario(args, scenario)


def cmd_scenario_validate(args) -> int:
    """Validate document(s); exit 1 if any fail, printing every diagnosis."""
    from repro.scenarios import ScenarioError, load_scenario

    failures = 0
    for path in args.paths:
        try:
            scenario = load_scenario(path)
        except (OSError, ScenarioError) as exc:
            failures += 1
            print(f"{path}: INVALID — {exc}")
            continue
        print(f"{path}: ok — '{scenario.name}' "
              f"({len(scenario.workload.cohorts)} cohort(s), "
              f"{scenario.workload.total_members} member(s), "
              f"{len(scenario.settings.envelope.checks)} envelope check(s))")
    return 1 if failures else 0


def cmd_scenario_list(args) -> int:
    """List the scenario corpus in a directory (default ``scenarios/``)."""
    from repro.scenarios import ScenarioError, discover_scenarios, load_scenario

    paths = discover_scenarios(Path(args.dir))
    if not paths:
        print(f"no scenario documents under {args.dir}")
        return 0
    for path in paths:
        try:
            scenario = load_scenario(path)
        except (OSError, ScenarioError) as exc:
            print(f"{path.name}: INVALID — {exc}")
            continue
        summary = scenario.description or "(no description)"
        print(f"{path.name}: '{scenario.name}' — {summary}")
        print(f"    {scenario.workload.total_members} member(s) in "
              f"{len(scenario.workload.cohorts)} cohort(s), "
              f"{len(scenario.topology.sem_groups)} SEM group(s), "
              f"duration {scenario.settings.duration_s}s, "
              f"budget {scenario.total_requests_budget} request(s)")
    return 0


def cmd_scenario(args) -> int:
    return args.scenario_fn(args)


def _bench_suites(args) -> list[str]:
    from repro.obs.bench import SUITES

    if args.suite == "all":
        return sorted(SUITES)
    if args.suite not in SUITES:
        raise CliError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    return [args.suite]


def _bench_options(args) -> dict:
    """Suite scaling knobs from the command line (unset flags omitted)."""
    options = {}
    for key in ("workers", "challenged", "blocks", "msm_terms"):
        value = getattr(args, key, None)
        if value:
            options["n_blocks" if key == "blocks" else key] = value
    if getattr(args, "bench_param_set", None):
        options["param_set"] = args.bench_param_set
    return options


def _print_run_summary(run: dict) -> None:
    for phase in run["phases"]:
        print(
            f"  {phase['name']:<22} Exp {phase['exp']:>6}  Pair {phase['pair']:>4}"
            f"  {phase['wall_s'] * 1000:>9.2f} ms"
        )


def cmd_bench_run(args) -> int:
    """Measure suite(s); append to the trajectory and write per-run JSON."""
    from repro.obs.bench import append_run, run_suite, trajectory_path, write_run_file

    set_baseline = getattr(args, "set_baseline", False)
    options = _bench_options(args)
    for suite in _bench_suites(args):
        run = run_suite(suite, repeats=args.repeats, options=options)
        path = trajectory_path(suite, args.trajectory_dir)
        append_run(path, run, set_baseline=set_baseline)
        run_file = write_run_file(run, args.results_dir)
        verb = "baseline" if set_baseline else "run"
        print(f"bench {verb} {suite}: {len(run['phases'])} phase(s) -> {path}")
        print(f"  per-run copy: {run_file}")
        _print_run_summary(run)
    return 0


def cmd_bench_baseline(args) -> int:
    """Like ``bench run`` but pins the fresh run as the committed baseline."""
    args.set_baseline = True
    return cmd_bench_run(args)


def cmd_bench_compare(args) -> int:
    """Run suite(s) fresh and diff against the committed baselines.

    Exit codes: 0 clean (or ``--report-only``), 1 regression,
    2 missing/invalid baseline.  Only deterministic op-count regressions
    fail by default; wall-time drift is reported as a warning unless
    ``--fail-on-wall`` (see DESIGN.md §6.2 for why).
    """
    from repro.obs.bench import (
        baseline_of,
        load_trajectory,
        run_suite,
        trajectory_path,
    )
    from repro.obs.regress import (
        VERDICT_NO_BASELINE,
        VERDICT_OK,
        RegressionConfig,
        compare_runs,
    )

    suites = _bench_suites(args)
    if args.baseline and len(suites) != 1:
        raise CliError("--baseline PATH only applies to a single --suite")
    config = RegressionConfig(
        wall_tolerance=args.wall_tolerance, fail_on_wall=args.fail_on_wall
    )
    reports = {}
    worst = 0
    options = _bench_options(args)
    for suite in suites:
        baseline_path = args.baseline or trajectory_path(suite, args.trajectory_dir)
        baseline = baseline_of(load_trajectory(baseline_path))
        current = run_suite(suite, repeats=args.repeats, options=options)
        report = compare_runs(baseline, current, config)
        reports[suite] = report
        print(report.table())
        print()
        if report.verdict == VERDICT_OK:
            code = 0
        elif report.verdict == VERDICT_NO_BASELINE:
            code = 2
        else:
            code = 1 if report.verdict == "regression" else 2
        worst = max(worst, code)
    if args.json_out:
        payload = {suite: report.to_dict() for suite, report in reports.items()}
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return 0 if args.report_only else worst


def cmd_bench(args) -> int:
    from repro.obs.bench import BenchSchemaError

    try:
        return args.bench_fn(args)
    except BenchSchemaError as exc:
        raise CliError(str(exc)) from None


# ---------------------------------------------------------------------------
# Ledger commands
# ---------------------------------------------------------------------------

def cmd_ledger_verify(args) -> int:
    """Re-walk a ledger chain offline; exit 1 on any tamper evidence."""
    from repro.obs import verify_ledger

    report = verify_ledger(args.path, expect_head=args.expect_head,
                           recheck=not args.no_recheck)
    verdict = "PASS" if report.ok else "FAIL"
    print(f"ledger verify {args.path}: {verdict}")
    print(f"  {report.entries} entries, head {report.head[:16]}…")
    kinds = ", ".join(f"{kind} {count}"
                      for kind, count in sorted(report.counts.items()))
    if kinds:
        print(f"  kinds: {kinds}")
    if not args.no_recheck:
        print(f"  audits rechecked offline: {report.audits_rechecked} "
              f"({report.audit_mismatches} mismatch(es)), "
              f"{report.audit_batches} batch check(s)")
    if report.repairs_checked:
        print(f"  repair records checked: {report.repairs_checked}")
    if report.open_repairs:
        print(f"  open repairs (crashed mid-repair, resumable): "
              f"{', '.join(report.open_repairs)}")
    if report.updates_checked:
        print(f"  dynamic update records replayed: {report.updates_checked}")
    if report.open_updates:
        print(f"  open update batches (crashed mid-batch, resumable): "
              f"{', '.join(report.open_updates)}")
    if report.torn_tail:
        print("  torn tail: final line truncated mid-append (tolerated)")
    for error in report.errors:
        print(f"  error: {error}")
    return 0 if report.ok else 1


def cmd_ledger_show(args) -> int:
    """Print ledger entries (filter by ``--kind``, trim with ``--tail``)."""
    from repro.obs import LedgerError, read_ledger

    try:
        entries, torn = read_ledger(args.path)
    except (OSError, LedgerError) as exc:
        raise CliError(str(exc)) from None
    if args.kind:
        entries = [e for e in entries if e.get("kind") == args.kind]
    if args.tail:
        entries = entries[-args.tail:]
    for entry in entries:
        body = json.dumps(entry.get("body", {}), sort_keys=True)
        print(f"{entry.get('seq', '?'):>6}  t={entry.get('t', 0):<12} "
              f"{entry.get('kind', '?'):<16} {body}")
    if torn:
        print("(torn tail: final line truncated mid-append)", file=sys.stderr)
    return 0


def cmd_ledger_head(args) -> int:
    """Print the chain head hash alone (script-friendly: pin it out-of-band)."""
    from repro.obs import LedgerError, ledger_head

    try:
        head = ledger_head(args.path)
    except (OSError, LedgerError) as exc:
        raise CliError(str(exc)) from None
    if head is None:
        raise CliError(f"empty ledger {args.path}")
    print(head["hash"])
    return 0


def cmd_ledger(args) -> int:
    return args.ledger_fn(args)


# ---------------------------------------------------------------------------
# SLO commands (offline: they read a recorded verdict report)
# ---------------------------------------------------------------------------

def _load_slo_block(path) -> tuple[dict, dict]:
    """(report, slo block) of a recorded verdict report; CliError if absent."""
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None
    slo = report.get("slo")
    if not isinstance(slo, dict):
        raise CliError(
            f"{path}: no 'slo' block — record the run from a scenario "
            "that declares an slos: component (scenario run --report-out)"
        )
    return report, slo


def cmd_slo_check(args) -> int:
    """Re-evaluate a recorded run's SLO verdicts offline; exit 1 on mismatch.

    Independently re-checks the alert state machine's transition legality,
    recomputes the fired set from the timeline, re-derives the error-budget
    arithmetic, and enforces expected-alerts exactness — all without
    re-running the scenario.
    """
    from repro.obs.slo import check_slo_report

    report, slo = _load_slo_block(args.path)
    problems = check_slo_report(slo)
    verdict = "PASS" if not problems else "FAIL"
    print(f"slo check {args.path}: {verdict}")
    print(f"  scenario '{report.get('scenario', '?')}', "
          f"{len(slo.get('alerts') or [])} transition(s), "
          f"{len(slo.get('fired') or [])} alert(s) fired, "
          f"{len(slo.get('error_budgets') or [])} objective(s)")
    for problem in problems:
        print(f"  problem: {problem}")
    return 0 if not problems else 1


def cmd_slo_report(args) -> int:
    """Print a recorded run's alert timeline, budgets, and metering."""
    report, slo = _load_slo_block(args.path)
    print(f"slo report for scenario '{report.get('scenario', '?')}' "
          f"(seed {report.get('seed', '?')})")
    objectives = slo.get("objectives") or []
    for obj in objectives:
        print(f"  objective {obj['name']}: {obj['signal']}, "
              f"target {obj['target']}")
    fired = ", ".join(slo.get("fired") or []) or "none"
    expected = ", ".join(slo.get("expected_alerts") or []) or "none"
    print(f"  alerts fired: {fired} (expected: {expected})")
    for event in slo.get("alerts") or []:
        print(f"    t={event['t']:<12} {event['alert']:<24} "
              f"{event['state']:<9} burn long x{event['burn_long']:.2f} "
              f"short x{event['burn_short']:.2f} "
              f"(threshold x{event['burn_threshold']})")
    for row in slo.get("error_budgets") or []:
        print(f"  budget {row['objective']} ({row['signal']}): "
              f"bad ratio {row['bad_ratio']:.6f}, "
              f"spent {row['budget_spent'] * 100:.1f}%, "
              f"remaining {row['budget_remaining'] * 100:.1f}%")
    metering = slo.get("metering") or []
    if metering:
        print(f"  metering ({len(metering)} record(s)):")
        for record in metering:
            delta = ", ".join(f"{k}={v}" for k, v in
                              sorted(record["delta"].items()) if v)
            print(f"    epoch {record['epoch']:<3} {record['scope']:<20} "
                  f"{delta or 'idle'}")
    close = slo.get("metering_close")
    if close:
        for scope, totals in sorted(close.get("totals", {}).items()):
            rendered = ", ".join(f"{k}={v}" for k, v in
                                 sorted(totals.items()) if v)
            print(f"  metered total {scope:<20} {rendered}")
    return 0


def cmd_slo(args) -> int:
    return args.slo_fn(args)


# ---------------------------------------------------------------------------
# Fleet commands (ephemeral seeded demo of the erasure-coded cloud fleet)
# ---------------------------------------------------------------------------

def _build_cli_fleet(args):
    """A seeded in-memory fleet with files stored and optional kills applied."""
    from repro.erasure import build_demo_fleet
    from repro.obs.ledger import Ledger

    ledger = Ledger(path=args.ledger) if args.ledger else None
    fleet = build_demo_fleet(
        servers=args.servers, parity=args.parity, spares=args.spares,
        seed=args.seed, param_set=args.fleet_param_set, k=args.k,
        workers=args.workers, ledger=ledger,
    )
    import hashlib as _hashlib
    import random as _random

    rng = _random.Random(int.from_bytes(_hashlib.sha256(
        b"repro-fleet-cli-payload" + str(args.seed).encode()).digest()[:8], "big"))
    for i in range(args.files):
        fleet.store(rng.randbytes(args.file_size), f"fleet-file-{i:04d}".encode())
    for name in (args.kill or "").split(","):
        name = name.strip()
        if name:
            if name not in fleet.handles:
                raise CliError(f"unknown fleet server {name!r} "
                               f"(servers: {', '.join(fleet.handles)})")
            fleet.set_online(name, False)
    return fleet


def _print_audit_report(report) -> None:
    agg = ("-" if report.aggregate_ok is None
           else ("ok" if report.aggregate_ok else "FAILED"))
    print(f"round {report.round}: {report.checks} slice checks, "
          f"{report.failures} invalid, {report.timeouts} timeouts, "
          f"aggregate {agg}"
          + (f", skipped quarantined: {', '.join(report.skipped_servers)}"
             if report.skipped_servers else ""))
    for verdict in report.verdicts:
        if verdict.status != "ok":
            print(f"  {verdict.server}: slot {verdict.slot} of "
                  f"{verdict.file_id.decode(errors='replace')} -> {verdict.status}")


def cmd_fleet_audit(args) -> int:
    fleet = _build_cli_fleet(args)
    try:
        failed = False
        for _ in range(args.rounds):
            report = fleet.audit_round(sample_size=args.sample_size)
            _print_audit_report(report)
            failed = failed or not report.passed
        quarantined = fleet.scoreboard.quarantined_names()
        if quarantined:
            print(f"quarantined: {', '.join(quarantined)}")
        return 1 if failed else 0
    finally:
        fleet.close()


def cmd_fleet_repair(args) -> int:
    fleet = _build_cli_fleet(args)
    try:
        report = fleet.audit_round(sample_size=args.sample_size)
        _print_audit_report(report)
        repair = fleet.repair()
        print(f"repair: {len(repair.tasks)} task(s), "
              f"{len(repair.completed)} completed, "
              f"{len(repair.unrecoverable)} unrecoverable, "
              f"{repair.slices_rebuilt} slices rebuilt, "
              f"{repair.blocks_resigned} blocks re-signed, "
              f"{repair.reaudits_passed} post-repair audits passed")
        for task in repair.completed:
            print(f"  {task.file_id.decode(errors='replace')} slot {task.slot}: "
                  f"{task.source} -> {task.target}")
        for task in repair.unrecoverable:
            print(f"  {task.file_id.decode(errors='replace')} slot {task.slot}: "
                  f"UNRECOVERABLE (lost {task.source})")
        return 0 if repair.repaired else 1
    finally:
        fleet.close()


def cmd_fleet_status(args) -> int:
    fleet = _build_cli_fleet(args)
    try:
        fleet.audit_round(sample_size=args.sample_size)
        print(json.dumps(fleet.status(), indent=2, sort_keys=True))
        for file_id in fleet.placements.files():
            placement = fleet.placements.get(file_id)
            ok = fleet.reconstructible(file_id)
            print(f"{file_id.decode(errors='replace')}: "
                  f"RS({placement.width},{placement.data_shards}) x "
                  f"{placement.stripes} stripes on "
                  f"{', '.join(placement.servers)} — "
                  f"{'reconstructible' if ok else 'UNRECOVERABLE'}")
        return 0
    finally:
        fleet.close()


def cmd_fleet(args) -> int:
    return args.fleet_fn(args)


def cmd_info(args) -> int:
    root = Path(args.state_dir)
    state = load_state(root)
    print(f"deployment: {state['param_set']}, k={state['k']}")
    print(f"members ({len(state['members'])}): {', '.join(sorted(state['members'])) or '-'}")
    print(f"revoked credentials: {len(state['revoked'])}")
    print(f"stored files ({len(state['files'])}):")
    for file_id, meta in sorted(state["files"].items()):
        print(f"  {file_id}: {meta['bytes']} bytes, {meta['blocks']} blocks")
    dynamic = state.get("dynamic", {})
    if dynamic:
        print(f"dynamic files ({len(dynamic)}):")
        for file_id, pin in sorted(dynamic.items()):
            print(f"  {file_id}: epoch {pin['epoch']}, {pin['count']} blocks, "
                  f"root {pin['root'][:16]}…")
    last_run_path = root / OBS_DIR / LAST_RUN_FILE
    if last_run_path.exists():
        last = json.loads(last_run_path.read_text())
        ops = ", ".join(f"{k}={v}" for k, v in sorted(last.get("ops", {}).items()))
        print(f"last run: {last.get('command', '?')} ({ops or 'no group operations'})")
        for name, entry in last.get("phases", {}).items():
            phase_ops = ", ".join(
                f"{k}={v}" for k, v in sorted(entry.get("ops", {}).items())
            )
            print(f"  {name}: x{entry['count']}, {entry['duration_s']:.4f}s"
                  + (f" ({phase_ops})" if phase_ops else ""))
    last_slo_path = root / OBS_DIR / LAST_SLO_FILE
    if last_slo_path.exists():
        last = json.loads(last_slo_path.read_text())
        fired = ", ".join(last.get("fired") or []) or "none"
        print(f"last slo run ('{last.get('scenario', '?')}'): "
              f"alerts fired: {fired}")
        for row in last.get("error_budgets") or []:
            print(f"  budget {row['objective']} ({row['signal']}): "
                  f"{row['budget_remaining'] * 100:.1f}% remaining")
    ledger_path = root / OBS_DIR / LEDGER_FILE
    if ledger_path.exists():
        from repro.obs import LedgerError, ledger_head

        try:
            head = ledger_head(ledger_path)
        except (OSError, LedgerError) as exc:
            print(f"ledger: UNREADABLE — {exc}")
        else:
            if head is not None:
                print(f"ledger: {head['entries']} entries "
                      f"(epoch {head['epoch']}), head {head['hash'][:16]}… "
                      f"— verify with `repro-pdp ledger verify {ledger_path}`")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pdp",
        description="SEM-PDP: security-mediated provable data possession",
    )
    parser.add_argument("--state-dir", default="sempdp", help="deployment directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a deployment")
    p.add_argument("--param-set", default="test-80")
    p.add_argument("-k", type=int, default=8, help="elements per block")
    p.add_argument("--seed", type=int, default=None, help="deterministic keys")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_init)

    p = sub.add_parser("enroll", help="enroll a member")
    p.add_argument("member")
    p.set_defaults(fn=cmd_enroll)

    p = sub.add_parser("revoke", help="revoke a member (instant)")
    p.add_argument("member")
    p.set_defaults(fn=cmd_revoke)

    p = sub.add_parser("upload", help="sign a file via the SEM and store it")
    p.add_argument("member")
    p.add_argument("path")
    p.add_argument("--file-id", required=True)
    p.add_argument("--no-batch", action="store_true", help="verify Eq. 4 per signature")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="fan blinding/unblinding across N worker processes "
                        "(identical signatures and op counts at any N)")
    _add_obs_flags(p)
    p.add_argument("--profile", action="store_true",
                   help="print a measured hot-path profile of this run")
    p.set_defaults(fn=cmd_upload)

    p = sub.add_parser("audit", help="run a public integrity audit")
    p.add_argument("file_id")
    p.add_argument("--sample", type=int, default=None, help="challenge only c blocks")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="fan proof generation/verification across N worker "
                        "processes (identical proofs and op counts at any N)")
    _add_obs_flags(p)
    p.add_argument("--profile", action="store_true",
                   help="print a measured hot-path profile of this run")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser(
        "update",
        help="apply one atomic update batch to a dynamic file",
        description="Ops apply in order --modify, --insert, --delete, "
                    "--append; each position sees the file as already "
                    "mutated by the earlier ops in the batch.  The whole "
                    "batch costs one blind-sign round: k touched blocks "
                    "plus the new epoch-stamped root.",
    )
    p.add_argument("member", help="enrolled member whose credential signs")
    p.add_argument("file_id", help="dynamic file to mutate")
    p.add_argument("--modify", action="append", metavar="POS:TEXT",
                   help="replace the block at POS (repeatable)")
    p.add_argument("--insert", action="append", metavar="POS:TEXT",
                   help="insert a block before POS (repeatable)")
    p.add_argument("--delete", action="append", metavar="POS",
                   help="delete the block at POS (repeatable)")
    p.add_argument("--append", action="append", dest="append_block",
                   metavar="TEXT", help="append a block at the end (repeatable)")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser(
        "dynamic", help="dynamic files: create / audit / status"
    )
    dynamic_sub = p.add_subparsers(dest="dynamic_command", required=True)

    dp = dynamic_sub.add_parser(
        "create", help="chunk a local file into dynamic blocks and sign them"
    )
    dp.add_argument("member", help="enrolled member whose credential signs")
    dp.add_argument("file_id", help="identifier for the dynamic file")
    dp.add_argument("path", help="local file to chunk and store")
    dp.add_argument("--block-bytes", type=int, default=None,
                    help="payload bytes per block (default: the parameter "
                         "set's full block capacity)")
    dp.set_defaults(fn=cmd_dynamic, dynamic_fn=cmd_dynamic_create)

    dp = dynamic_sub.add_parser(
        "audit",
        help="audit a dynamic file (rank paths + root signature + Eq. 6)",
    )
    dp.add_argument("file_id", help="dynamic file to audit")
    dp.add_argument("--sample", type=int, default=None,
                    help="challenge only N random positions")
    _add_obs_flags(dp)
    dp.set_defaults(fn=cmd_dynamic, dynamic_fn=cmd_dynamic_audit)

    dp = dynamic_sub.add_parser(
        "status", help="list dynamic files and their pinned roots"
    )
    dp.set_defaults(fn=cmd_dynamic, dynamic_fn=cmd_dynamic_status)

    p = sub.add_parser("tamper", help="corrupt a stored block (demo)")
    p.add_argument("file_id")
    p.add_argument("--block", type=int, required=True)
    p.set_defaults(fn=cmd_tamper)

    p = sub.add_parser(
        "serve-sim", help="run the batched signing service in the simulator"
    )
    p.add_argument("--scenario", metavar="FILE", default=None,
                   help="run a declarative scenario document instead of the "
                        "legacy flag set (legacy flags below are then ignored)")
    p.add_argument("--param-set", default="toy-64")
    p.add_argument("-k", type=int, default=4, help="elements per block")
    p.add_argument("--threshold", type=int, default=None,
                   help="deploy w = 2t-1 SEMs with threshold t (default: one SEM)")
    p.add_argument("--clients", type=int, default=2)
    p.add_argument("--requests", type=int, default=2, help="requests per client")
    p.add_argument("--file-bytes", type=int, default=64)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-wait", type=float, default=0.02, help="flush age trigger (s)")
    p.add_argument("--timeout", type=float, default=0.5, help="per-SEM deadline (s)")
    p.add_argument("--latency", type=float, default=0.005, help="channel latency (s)")
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--crash", type=int, default=0, help="crash the first N SEMs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chaos", metavar="PLAN.json", default=None,
                   help="install a seeded fault plan (repro.net.faults)")
    p.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                   help="override the plan's own seed for this run")
    p.add_argument("--round-deadline", type=float, default=None, metavar="S",
                   help="whole-round failover budget (fail closed past it)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="append-only signing journal; pending requests in an "
                        "existing journal are replayed on startup")
    p.add_argument("--watch", action="store_true",
                   help="render a live dashboard frame on an interval of virtual time")
    p.add_argument("--watch-interval", type=float, default=0.05, metavar="S",
                   help="virtual seconds between dashboard frames")
    p.add_argument("--ledger", metavar="PATH", default=None,
                   help="append a tamper-evident hash-chained ledger of every "
                        "protocol decision to PATH (audit offline with "
                        "`repro-pdp ledger verify`)")
    p.add_argument("--slo", action="store_true",
                   help="attach the stock SLO objectives to a legacy run "
                        "(burn-rate alerting + per-scope metering); with "
                        "--scenario, require the document to declare slos:")
    p.add_argument("--alerts-out", metavar="PATH", default=None,
                   help="write the alert-transition timeline to PATH as JSONL")
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_serve_sim)

    p = sub.add_parser("info", help="show deployment state")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser(
        "scenario", help="declarative scenario engine (validate / run / list)"
    )
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)

    sp = scenario_sub.add_parser("validate", help="schema-check document(s)")
    sp.add_argument("paths", nargs="+", metavar="FILE")
    sp.set_defaults(fn=cmd_scenario, scenario_fn=cmd_scenario_validate)

    sp = scenario_sub.add_parser(
        "run", help="execute a scenario and judge its acceptance envelope"
    )
    sp.add_argument("path", metavar="FILE")
    sp.add_argument("--seed", type=int, default=None, dest="seed_override",
                    metavar="N", help="override the document's seed")
    sp.add_argument("--report-out", metavar="PATH", default=None,
                    help="write the machine-readable verdict report to PATH")
    sp.add_argument("--max-events", type=int, default=None, metavar="N",
                    help="hard cap on simulator events (runaway guard)")
    sp.add_argument("--ledger", metavar="PATH", default=None,
                    help="append a tamper-evident hash-chained ledger of every "
                         "protocol decision to PATH (audit offline with "
                         "`repro-pdp ledger verify`)")
    sp.add_argument("--slo", action="store_true",
                    help="require the document to declare an slos: component "
                         "(it is evaluated whenever declared)")
    sp.add_argument("--alerts-out", metavar="PATH", default=None,
                    help="write the alert-transition timeline to PATH as JSONL")
    _add_obs_flags(sp)
    sp.set_defaults(fn=cmd_scenario, scenario_fn=cmd_scenario_run)

    sp = scenario_sub.add_parser("list", help="describe the scenario corpus")
    sp.add_argument("--dir", default="scenarios", metavar="DIR",
                    help="directory holding scenario documents")
    sp.set_defaults(fn=cmd_scenario, scenario_fn=cmd_scenario_list)

    p = sub.add_parser(
        "ledger", help="tamper-evident flight recorder (verify / show / head)"
    )
    ledger_sub = p.add_subparsers(dest="ledger_command", required=True)

    lp = ledger_sub.add_parser(
        "verify", help="re-walk the hash chain and re-check Eq. 6 verdicts offline"
    )
    lp.add_argument("path", metavar="FILE")
    lp.add_argument("--expect-head", default=None, metavar="HASH",
                    help="fail unless the chain head matches HASH (catches "
                         "whole-suffix truncation and total re-chain forgery)")
    lp.add_argument("--no-recheck", action="store_true",
                    help="chain integrity only; skip the offline Eq. 6 "
                         "re-evaluation of recorded audit verdicts")
    lp.set_defaults(fn=cmd_ledger, ledger_fn=cmd_ledger_verify)

    lp = ledger_sub.add_parser("show", help="print ledger entries")
    lp.add_argument("path", metavar="FILE")
    lp.add_argument("--kind", default=None, metavar="K",
                    help="only entries of this kind (audit, round, quarantine, …)")
    lp.add_argument("--tail", type=int, default=None, metavar="N",
                    help="only the last N entries (after --kind filtering)")
    lp.set_defaults(fn=cmd_ledger, ledger_fn=cmd_ledger_show)

    lp = ledger_sub.add_parser(
        "head", help="print the chain head hash (pin it out-of-band)"
    )
    lp.add_argument("path", metavar="FILE")
    lp.set_defaults(fn=cmd_ledger, ledger_fn=cmd_ledger_head)

    p = sub.add_parser(
        "slo", help="offline SLO verdicts of a recorded run (check / report)"
    )
    slo_sub = p.add_subparsers(dest="slo_command", required=True)

    xp = slo_sub.add_parser(
        "check", help="re-evaluate a recorded run's alerts and budgets offline"
    )
    xp.add_argument("path", metavar="REPORT.json",
                    help="verdict report written by `scenario run --report-out`")
    xp.set_defaults(fn=cmd_slo, slo_fn=cmd_slo_check)

    xp = slo_sub.add_parser(
        "report", help="print the alert timeline, budgets, and metering"
    )
    xp.add_argument("path", metavar="REPORT.json",
                    help="verdict report written by `scenario run --report-out`")
    xp.set_defaults(fn=cmd_slo, slo_fn=cmd_slo_report)

    p = sub.add_parser(
        "fleet", help="erasure-coded multi-cloud fleet (audit / repair / status)"
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    def _add_fleet_common(fp) -> None:
        fp.add_argument("--servers", type=int, default=5,
                        help="active servers (one coded slot each)")
        fp.add_argument("--parity", type=int, default=2,
                        help="tolerated whole-server losses (RS parity)")
        fp.add_argument("--spares", type=int, default=2,
                        help="warm spare servers repairs re-home onto")
        fp.add_argument("--files", type=int, default=2,
                        help="seeded files to stripe across the fleet")
        fp.add_argument("--file-size", type=int, default=512, metavar="BYTES")
        fp.add_argument("--seed", type=int, default=0)
        fp.add_argument("--fleet-param-set", default="toy-64", metavar="NAME")
        fp.add_argument("-k", type=int, default=4, help="elements per block")
        fp.add_argument("--sample-size", type=int, default=None, metavar="C",
                        help="challenge size per slice (default: all stripes)")
        fp.add_argument("--kill", default="", metavar="NAME[,NAME…]",
                        help="take these servers offline before auditing")
        fp.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker pool fan-out; op counts invariant under N")
        fp.add_argument("--ledger", default=None, metavar="FILE",
                        help="record audits/quarantines/repairs on this ledger")

    fp = fleet_sub.add_parser(
        "audit", help="concurrent per-server audit rounds with aggregation"
    )
    _add_fleet_common(fp)
    fp.add_argument("--rounds", type=int, default=1)
    fp.set_defaults(fn=cmd_fleet, fleet_fn=cmd_fleet_audit)

    fp = fleet_sub.add_parser(
        "repair", help="audit once, then reconstruct + re-sign lost slots"
    )
    _add_fleet_common(fp)
    fp.set_defaults(fn=cmd_fleet, fleet_fn=cmd_fleet_repair)

    fp = fleet_sub.add_parser("status", help="fleet health + placement map")
    _add_fleet_common(fp)
    fp.set_defaults(fn=cmd_fleet, fleet_fn=cmd_fleet_status)

    p = sub.add_parser(
        "bench", help="continuous performance tracking (run / compare / baseline)"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def _add_bench_common(bp) -> None:
        bp.add_argument("--suite", default="all",
                        help="suite name or 'all' (table1, audit, service, "
                             "chaos, msm, scenario, ledger, slo, fleet, "
                             "dynamic)")
        bp.add_argument("--repeats", type=int, default=3,
                        help="wall time is best-of-N per phase")
        bp.add_argument("--trajectory-dir", default=".", metavar="DIR",
                        help="where BENCH_<suite>.json trajectory files live")
        bp.add_argument("--results-dir", default="benchmarks/results", metavar="DIR",
                        help="where per-run JSON documents are written")
        bp.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for suites that fan out (audit); "
                             "op counts are invariant under N")
        bp.add_argument("--challenged", type=int, default=None, metavar="C",
                        help="challenge size for the audit suite")
        bp.add_argument("--blocks", type=int, default=None, metavar="N",
                        help="blocks to sign for the audit suite")
        bp.add_argument("--msm-terms", type=int, default=None, metavar="N",
                        help="extra term count to probe in the msm suite")
        bp.add_argument("--bench-param-set", default=None, metavar="NAME",
                        help="override the suite's curve parameter set")

    bp = bench_sub.add_parser("run", help="measure and append to the trajectory")
    _add_bench_common(bp)
    bp.set_defaults(fn=cmd_bench, bench_fn=cmd_bench_run, set_baseline=False)

    bp = bench_sub.add_parser(
        "baseline", help="measure and pin the run as the committed baseline"
    )
    _add_bench_common(bp)
    bp.set_defaults(fn=cmd_bench, bench_fn=cmd_bench_baseline)

    bp = bench_sub.add_parser(
        "compare", help="measure and diff against the committed baseline"
    )
    _add_bench_common(bp)
    bp.add_argument("--baseline", default=None, metavar="PATH",
                    help="explicit baseline file (single --suite only)")
    bp.add_argument("--wall-tolerance", type=float, default=0.25,
                    help="wall-time ratio band before warning (default 25%%)")
    bp.add_argument("--fail-on-wall", action="store_true",
                    help="treat wall-time regressions as failures too")
    bp.add_argument("--report-only", action="store_true",
                    help="always exit 0; print the diff table only")
    bp.add_argument("--json-out", default=None, metavar="PATH",
                    help="write the machine-readable verdict(s) to PATH")
    bp.set_defaults(fn=cmd_bench, bench_fn=cmd_bench_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
