"""Declarative scenario engine: one document fully describes a run.

A scenario is three independent, schema-validated components — a
**workload** model (cohorts of up to millions of members with arrival
processes and file-size distributions), a **topology** graph (SEM
groups, clouds, TPA verifiers, links), and **run settings** (duration,
seeds, fault plans, acceptance envelopes).  The loader fails fast with
the path to any offending field; the compiler maps the document onto the
deterministic simulator with hash-derived independent RNG streams; the
runner executes, judges the envelope, and emits a verdict report.

Entry points: ``repro-pdp scenario validate|run|list``,
``repro-pdp serve-sim --scenario FILE``, and the ``serve-sim`` flag set,
which :mod:`repro.scenarios.legacy` turns into an ordinary scenario for
the same compiler and runner.
"""

from repro.scenarios.arrivals import (
    ArrivalProcess,
    DiurnalProcess,
    MMPPProcess,
    ParetoProcess,
    PoissonProcess,
    make_arrival_process,
)
from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.legacy import scenario_from_legacy_args, warn_if_mixed
from repro.scenarios.loader import (
    discover_scenarios,
    load_scenario,
    parse_scenario,
    scenario_from_dict,
)
from repro.scenarios.population import Population, sample_size_bytes
from repro.scenarios.rng import derive_rng, derive_seed
from repro.scenarios.runner import (
    VERDICT_SCHEMA,
    EnvelopeViolation,
    ScenarioResult,
    ScenarioRunner,
    check_envelope,
    run_scenario,
)
from repro.scenarios.schema import (
    ArrivalSpec,
    BatchSpec,
    BurnWindowSpec,
    CloudSpec,
    CohortSpec,
    EnvelopeSpec,
    FailoverSpec,
    FleetSpec,
    LinkParams,
    LinkSpec,
    ObjectiveSpec,
    RunSettings,
    Scenario,
    ScenarioError,
    SEMGroupSpec,
    SizeSpec,
    SLOSpec,
    TopologySpec,
    VerifierSpec,
    WorkloadSpec,
)

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "BatchSpec",
    "BurnWindowSpec",
    "CloudSpec",
    "CohortSpec",
    "CompiledScenario",
    "DiurnalProcess",
    "EnvelopeSpec",
    "EnvelopeViolation",
    "FailoverSpec",
    "FleetSpec",
    "LinkParams",
    "LinkSpec",
    "MMPPProcess",
    "ObjectiveSpec",
    "ParetoProcess",
    "PoissonProcess",
    "Population",
    "RunSettings",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "SEMGroupSpec",
    "SizeSpec",
    "SLOSpec",
    "TopologySpec",
    "VERDICT_SCHEMA",
    "VerifierSpec",
    "WorkloadSpec",
    "check_envelope",
    "compile_scenario",
    "derive_rng",
    "derive_seed",
    "discover_scenarios",
    "load_scenario",
    "make_arrival_process",
    "parse_scenario",
    "run_scenario",
    "sample_size_bytes",
    "scenario_from_dict",
    "scenario_from_legacy_args",
    "warn_if_mixed",
]
