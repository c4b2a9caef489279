"""The deprecation shim: legacy ``serve-sim`` flags as a scenario.

``repro-pdp serve-sim`` predates the scenario engine; its flag set
(``--clients/--requests/--threshold/--crash/--chaos/...``) describes
exactly one shape of run — a single SEM group, one batch-arrival cohort,
everything issued at t = 0.  :func:`scenario_from_legacy_args`
synthesizes that as an ordinary in-memory
:class:`~repro.scenarios.schema.Scenario`, so the flag path and
``--scenario FILE`` compile and run through the same
:func:`~repro.scenarios.compile.compile_scenario` and
:class:`~repro.scenarios.runner.ScenarioRunner`.
"""

from __future__ import annotations

import dataclasses
import warnings

from repro.net.faults import FaultPlan
from repro.scenarios.schema import (
    ArrivalSpec,
    BatchSpec,
    CohortSpec,
    FailoverSpec,
    LinkParams,
    RunSettings,
    Scenario,
    SEMGroupSpec,
    SizeSpec,
    TopologySpec,
    WorkloadSpec,
)

#: serve-sim flags subsumed by the scenario document — mixing them with
#: --scenario is detected (and warned about) against the parser's defaults.
LEGACY_FLAGS = (
    "param_set", "k", "threshold", "clients", "requests", "file_bytes",
    "max_batch", "max_wait", "timeout", "latency", "drop_rate", "crash",
    "seed", "round_deadline", "chaos", "chaos_seed",
)

_warned_mixed = False


def warn_if_mixed(args, defaults) -> list[str]:
    """Warn (once per process) when legacy flags accompany ``--scenario``.

    ``defaults`` maps each flag to the serve-sim parser's default.  Returns
    the non-default flag names, so callers can test the detection without
    capturing warnings.
    """
    global _warned_mixed
    overridden = [flag for flag in LEGACY_FLAGS
                  if getattr(args, flag) != defaults[flag]]
    if overridden and not _warned_mixed:
        _warned_mixed = True
        warnings.warn(
            "serve-sim: legacy flags ("
            + ", ".join("--" + f.replace("_", "-") for f in sorted(overridden))
            + ") are ignored when --scenario is given; move them into the "
            "scenario document",
            DeprecationWarning,
            stacklevel=3,
        )
    return overridden


def _retarget(name: str) -> str:
    """A ``--chaos`` plan node name on the scenario naming contract.

    Plans written for :func:`~repro.service.simnodes.build_service_network`
    name its nodes ``service``, ``sem-<j>`` and ``client-<i>``; here they
    are ``svc-main``, ``sem-main-<j>`` and the one cohort ``c-clients``.
    Other names (and ``*``) pass through, for schema validation to judge.
    """
    if name == "service":
        return "svc-main"
    if name.startswith("sem-"):
        return "sem-main-" + name[len("sem-"):]
    if name.startswith("client-"):
        return "c-clients"
    return name


def _chaos_faults(plan: FaultPlan) -> tuple:
    return tuple(
        dataclasses.replace(
            fault,
            node=None if fault.node is None else _retarget(fault.node),
            links=tuple((_retarget(a), _retarget(b)) for a, b in fault.links),
        )
        for fault in plan.faults
    )


def scenario_from_legacy_args(args) -> Scenario:
    """The legacy flag set as a validated in-memory scenario document.

    ``--chaos PLAN.json`` lands in ``settings.faults`` (seeded by the plan,
    or by ``--chaos-seed``), so fault targets are schema-checked like any
    scenario's.
    """
    plan = (FaultPlan.from_file(args.chaos, seed=args.chaos_seed)
            if args.chaos else FaultPlan())
    threshold = args.threshold if args.threshold and args.threshold > 1 else None
    t = threshold or 1
    w = 1 if threshold is None else 2 * threshold - 1
    link = LinkParams(latency_s=args.latency, drop_rate=args.drop_rate)
    return Scenario(
        name="serve-sim-legacy",
        description="synthesized from legacy serve-sim flags",
        workload=WorkloadSpec(cohorts=(
            CohortSpec(
                name="clients",
                members=args.clients,
                target="main",
                arrival=ArrivalSpec(kind="batch",
                                    requests_per_member=args.requests),
                file_sizes=SizeSpec(kind="fixed", bytes=args.file_bytes,
                                    max_bytes=args.file_bytes),
            ),
        )),
        topology=TopologySpec(
            sem_groups=(
                SEMGroupSpec(name="main", w=w, t=t,
                             initial_crashed=args.crash, sem_link=link),
            ),
            default_link=link,
        ),
        settings=RunSettings(
            duration_s=3600.0,  # legacy runs drain the queue, not a clock
            seed=args.seed,
            param_set=args.param_set,
            k=args.k,
            max_requests=max(1, args.clients * args.requests),
            batch=BatchSpec(max_batch=args.max_batch, max_wait_s=args.max_wait),
            failover=FailoverSpec(timeout_s=args.timeout,
                                  round_deadline_s=args.round_deadline),
            faults=_chaos_faults(plan),
            fault_seed=plan.seed if args.chaos else None,
            fault_plan_name=plan.name,
        ),
    )
