"""The three-component scenario contract: workload, topology, settings.

One document fully describes a run (DESIGN.md §9):

* **workload** — who generates traffic: cohorts of simulated members
  (scaling to millions; the cohort is the simulated unit, members are a
  population model), each with an arrival process and a file-size
  distribution;
* **topology** — what the traffic hits: SEM groups with (w, t)
  thresholds, cloud stores, TPA verifiers, and the links between them;
* **settings** — how the run executes and is judged: duration, seed,
  request budget, batching/failover knobs, fault plans
  (:mod:`repro.net.faults` actions as just another axis), and an
  *acceptance envelope* the runner checks after the run.

Everything is validated fail-fast at construction: dangling references,
illegal thresholds (t > w), negative rates, and unknown fault kinds are
rejected with the path to the offending field, so by the time a
:class:`Scenario` exists the compiler and runner need no defensive checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.net.faults import Fault, NODE_KINDS

#: Open-loop arrival kinds (interarrival-time processes) plus the
#: closed-loop and batch models handled by the cohort driver directly.
ARRIVAL_KINDS = frozenset({"poisson", "mmpp", "pareto", "diurnal", "closed", "batch"})
SIZE_KINDS = frozenset({"fixed", "uniform", "lognormal", "pareto"})

#: Metric groups a scenario may ask the runner to collect/report.
METRIC_GROUPS = frozenset({"latency", "throughput", "ops", "faults", "cohorts", "clouds"})


class ScenarioError(ValueError):
    """A scenario document failed schema validation."""

    def __init__(self, path: str, problem: str):
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}")


def _require(condition: bool, path: str, problem: str) -> None:
    if not condition:
        raise ScenarioError(path, problem)


def _valid_name(name, path: str) -> str:
    _require(isinstance(name, str) and name != "", path, "needs a non-empty name")
    _require(
        all(c.isalnum() or c in "-_." for c in name),
        path, f"name {name!r} may only use alphanumerics, '-', '_', '.'",
    )
    return name


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalSpec:
    """How one cohort's requests arrive.

    ``rate_rps`` is the cohort's *aggregate* arrival rate; alternatively
    ``per_user_rps`` scales with the cohort's member count, which is how a
    million-member cohort stays describable (1M members x 0.0002 rps each
    = 200 rps aggregate — the simulated unit is the cohort, so cost
    follows the request budget, not the population).

    Kinds:

    ========  ==========================================================
    poisson   memoryless open loop: exponential interarrivals
    mmpp      2-state Markov-modulated Poisson (bursty): base rate with
              exponential bursts at ``burst_rate_rps``
    pareto    heavy-tailed interarrivals with tail index ``alpha`` > 1,
              scaled to the requested mean rate
    diurnal   sinusoidal rate modulation with period ``period_s`` and
              peak ``peak_ratio`` x the mean rate (thinning sampler)
    closed    closed loop: ``concurrency`` members in lockstep, each
              thinking ``think_time_s`` between response and next request
    batch     all requests issued at t=0 (the serve-sim flag model)
    ========  ==========================================================
    """

    kind: str
    rate_rps: float | None = None
    per_user_rps: float | None = None
    # mmpp
    burst_rate_rps: float | None = None
    mean_burst_s: float = 0.5
    mean_idle_s: float = 2.0
    # pareto
    alpha: float = 1.5
    # diurnal
    peak_ratio: float = 2.0
    period_s: float = 10.0
    phase: float = 0.0
    # closed
    concurrency: int = 1
    think_time_s: float = 0.0
    # batch
    requests_per_member: int = 1

    def validate(self, path: str, members: int) -> None:
        _require(self.kind in ARRIVAL_KINDS, path,
                 f"unknown arrival kind {self.kind!r}; choose from {sorted(ARRIVAL_KINDS)}")
        if self.kind in ("poisson", "mmpp", "pareto", "diurnal"):
            _require((self.rate_rps is None) != (self.per_user_rps is None), path,
                     "set exactly one of rate_rps / per_user_rps")
            rate = self.rate_rps if self.rate_rps is not None else self.per_user_rps
            _require(rate > 0, path, f"arrival rate must be positive, got {rate}")
        if self.kind == "mmpp":
            _require(self.burst_rate_rps is not None, path,
                     "mmpp needs burst_rate_rps")
            _require(self.burst_rate_rps > 0, path, "burst_rate_rps must be positive")
            _require(self.burst_rate_rps >= self.effective_rate(members), path,
                     "burst_rate_rps must be >= the base rate (it is the burst state)")
            _require(self.mean_burst_s > 0 and self.mean_idle_s > 0, path,
                     "mmpp sojourn means must be positive")
        if self.kind == "pareto":
            _require(self.alpha > 1.0, path,
                     f"pareto tail index alpha must exceed 1 (finite mean), got {self.alpha}")
        if self.kind == "diurnal":
            _require(self.peak_ratio >= 1.0, path, "peak_ratio must be >= 1")
            _require(self.period_s > 0, path, "period_s must be positive")
            _require(0.0 <= self.phase < 1.0, path, "phase must be in [0, 1)")
        if self.kind == "closed":
            _require(self.concurrency >= 1, path, "concurrency must be >= 1")
            _require(self.think_time_s >= 0, path, "think_time_s must be non-negative")
            _require(self.concurrency <= members, path,
                     f"concurrency {self.concurrency} exceeds the cohort's "
                     f"{members} member(s)")
        if self.kind == "batch":
            _require(self.requests_per_member >= 1, path,
                     "requests_per_member must be >= 1")

    def effective_rate(self, members: int) -> float:
        """Aggregate arrivals/second for a cohort of ``members`` users."""
        if self.rate_rps is not None:
            return self.rate_rps
        if self.per_user_rps is not None:
            return self.per_user_rps * members
        return 0.0


@dataclass(frozen=True)
class SizeSpec:
    """Per-cohort file-size distribution (bytes per uploaded file).

    ``max_bytes`` clamps every sampler — a heavy-tailed draw must not make
    one request arbitrarily expensive to sign in a bounded CI run.
    """

    kind: str = "fixed"
    bytes: int = 64                 # fixed
    min_bytes: int = 32             # uniform / pareto scale
    max_bytes: int = 4096           # clamp for every kind
    median_bytes: int = 128         # lognormal
    sigma: float = 0.5              # lognormal shape
    alpha: float = 1.8              # pareto tail index

    def validate(self, path: str) -> None:
        _require(self.kind in SIZE_KINDS, path,
                 f"unknown size kind {self.kind!r}; choose from {sorted(SIZE_KINDS)}")
        _require(self.max_bytes >= 1, path, "max_bytes must be >= 1")
        if self.kind == "fixed":
            _require(1 <= self.bytes <= self.max_bytes, path,
                     f"fixed bytes must be in [1, max_bytes], got {self.bytes}")
        if self.kind in ("uniform", "pareto"):
            _require(self.min_bytes >= 1, path, "min_bytes must be >= 1")
        if self.kind == "uniform":
            _require(self.min_bytes <= self.max_bytes, path,
                     "uniform needs min_bytes <= max_bytes")
        if self.kind == "lognormal":
            _require(self.median_bytes >= 1, path, "median_bytes must be >= 1")
            _require(self.sigma > 0, path, "sigma must be positive")
        if self.kind == "pareto":
            _require(self.alpha > 1.0, path,
                     f"pareto tail index alpha must exceed 1, got {self.alpha}")


@dataclass(frozen=True)
class CohortSpec:
    """One population of simulated members sharing traffic behaviour."""

    name: str
    members: int
    target: str                     # SEM group the cohort signs through
    arrival: ArrivalSpec = field(default_factory=lambda: ArrivalSpec(kind="poisson", rate_rps=10.0))
    file_sizes: SizeSpec = field(default_factory=SizeSpec)
    max_requests: int | None = None  # per-cohort cap (settings cap global)
    upload_to: tuple[str, ...] = ()  # cloud names, striped round-robin

    def validate(self, path: str) -> None:
        _valid_name(self.name, path)
        _require(self.members >= 1, path, f"members must be >= 1, got {self.members}")
        _require(isinstance(self.target, str) and self.target, path,
                 "cohort needs a target SEM group")
        self.arrival.validate(f"{path}.arrival", self.members)
        self.file_sizes.validate(f"{path}.file_sizes")
        if self.max_requests is not None:
            _require(self.max_requests >= 1, path, "max_requests must be >= 1")


#: Update-mix profiles the dynamic drill knows how to drive.
DYNAMIC_PROFILES = ("churn", "log_append", "hot_block")


@dataclass(frozen=True)
class DynamicSpec:
    """A dynamic-file update workload (rank-authenticated batches).

    Drives :class:`~repro.scenarios.dynamic_drill.DynamicDrill`: ``files``
    dynamic files of ``initial_blocks`` blocks each receive ``batches``
    update batches of ``ops_per_batch`` ops on a fixed virtual period,
    with a full audit (rank paths + root signature + Eq. 6) after every
    ``audit_every``-th batch.  The ``profile`` picks the op mix:
    ``churn`` (versioned-doc edits: modify/insert/delete/append),
    ``log_append`` (append-only tail growth), or ``hot_block`` (modify
    storms on a small hot set of positions).
    """

    profile: str
    target: str                      # SEM group that blind-signs the batches
    files: int = 2
    initial_blocks: int = 8
    block_bytes: int = 16            # payload bytes per dynamic block
    batches: int = 6                 # update batches per file
    ops_per_batch: int = 4
    update_period_s: float = 0.25
    audit_every: int = 2             # audit after every Nth batch (0 = never)
    sample_size: int | None = None   # challenge size per audit (None = all)
    hot_blocks: int = 2              # hot-set size (hot_block profile only)

    def validate(self, path: str) -> None:
        _require(self.profile in DYNAMIC_PROFILES, path,
                 f"profile must be one of {', '.join(DYNAMIC_PROFILES)}, "
                 f"got {self.profile!r}")
        _require(isinstance(self.target, str) and self.target, path,
                 "dynamic workload needs a target SEM group")
        _require(self.files >= 1, path, "files must be >= 1")
        _require(self.initial_blocks >= 1, path, "initial_blocks must be >= 1")
        _require(self.block_bytes >= 1, path, "block_bytes must be >= 1")
        _require(self.batches >= 1, path, "batches must be >= 1")
        _require(self.ops_per_batch >= 1, path, "ops_per_batch must be >= 1")
        _require(self.update_period_s > 0, path,
                 "update_period_s must be positive")
        _require(self.audit_every >= 0, path, "audit_every must be >= 0")
        if self.sample_size is not None:
            _require(self.sample_size >= 1, path, "sample_size must be >= 1")
        _require(self.hot_blocks >= 1, path, "hot_blocks must be >= 1")


@dataclass(frozen=True)
class WorkloadSpec:
    cohorts: tuple[CohortSpec, ...] = ()
    dynamic: DynamicSpec | None = None

    def validate(self, path: str = "workload") -> None:
        _require(len(self.cohorts) >= 1 or self.dynamic is not None, path,
                 "needs at least one cohort (or a dynamic workload)")
        seen: set[str] = set()
        for i, cohort in enumerate(self.cohorts):
            cohort.validate(f"{path}.cohorts[{i}]")
            _require(cohort.name not in seen, f"{path}.cohorts[{i}]",
                     f"duplicate cohort name {cohort.name!r}")
            seen.add(cohort.name)
        if self.dynamic is not None:
            self.dynamic.validate(f"{path}.dynamic")

    @property
    def total_members(self) -> int:
        return sum(c.members for c in self.cohorts)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkParams:
    """Latency/loss/bandwidth parameters of one (class of) link."""

    latency_s: float = 0.005
    bandwidth_bps: float | None = None
    drop_rate: float = 0.0

    def validate(self, path: str) -> None:
        _require(self.latency_s >= 0, path, "latency_s must be non-negative")
        _require(0.0 <= self.drop_rate < 1.0, path,
                 f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.bandwidth_bps is not None:
            _require(self.bandwidth_bps > 0, path, "bandwidth_bps must be positive")


@dataclass(frozen=True)
class SEMGroupSpec:
    """A (w, t)-threshold mediator group behind one signing service.

    ``w`` mediators hold Shamir shares; any ``t`` reconstruct.  The paper
    deploys w = 2t − 1 (tolerates t − 1 unavailable); other w >= t
    choices are legal deployments too.  ``initial_crashed`` starts that
    many mediators fail-silent at t = 0 (the serve-sim ``--crash`` axis).
    """

    name: str
    w: int = 1
    t: int = 1
    initial_crashed: int = 0
    sem_link: LinkParams = field(default_factory=LinkParams)

    def validate(self, path: str) -> None:
        _valid_name(self.name, path)
        _require(self.w >= 1, path, f"w must be >= 1, got {self.w}")
        _require(self.t >= 1, path, f"t must be >= 1, got {self.t}")
        _require(self.t <= self.w, path,
                 f"threshold t={self.t} exceeds group size w={self.w}")
        _require(0 <= self.initial_crashed <= self.w, path,
                 f"initial_crashed must be in [0, w], got {self.initial_crashed}")
        _require(self.w - self.initial_crashed >= self.t, path,
                 f"crashing {self.initial_crashed} of w={self.w} leaves fewer "
                 f"than t={self.t} live mediators — the group can never sign")
        self.sem_link.validate(f"{path}.sem_link")


@dataclass(frozen=True)
class CloudSpec:
    """One cloud store; cohorts may stripe uploads across several."""

    name: str

    def validate(self, path: str) -> None:
        _valid_name(self.name, path)


@dataclass(frozen=True)
class VerifierSpec:
    """A TPA re-auditing one cloud's stored files on a period."""

    name: str
    audits: str                     # cloud name
    period_s: float = 0.5
    sample_size: int | None = None

    def validate(self, path: str) -> None:
        _valid_name(self.name, path)
        _require(isinstance(self.audits, str) and self.audits, path,
                 "verifier needs an 'audits' cloud name")
        _require(self.period_s > 0, path, "period_s must be positive")
        if self.sample_size is not None:
            _require(self.sample_size >= 1, path, "sample_size must be >= 1")


@dataclass(frozen=True)
class FleetSpec:
    """An erasure-coded cloud fleet: striped storage + audit-driven repair.

    ``servers`` active servers each host one coded slot per file
    (stripe width = ``servers``, data shards = ``servers - parity``), so
    the fleet survives the loss of up to ``parity`` whole servers;
    ``spares`` extra servers stand by as repair targets.  Servers are
    named ``<name_prefix>-s<j>`` (actives first, spares after) — the
    names chaos fault plans target.
    """

    servers: int
    parity: int
    spares: int = 0
    files: int = 2
    file_size: int = 1024            # payload bytes per stored file
    audit_period_s: float = 0.2
    sample_size: int | None = None
    quarantine_threshold: int = 1
    quarantine_rounds: int = 2
    auto_repair: bool = True         # repair quarantined servers each round
    name_prefix: str = "fleet"

    def validate(self, path: str) -> None:
        _require(self.servers >= 2, path,
                 f"servers must be >= 2, got {self.servers}")
        _require(0 <= self.parity < self.servers, path,
                 f"parity must be in [0, servers), got {self.parity}")
        _require(self.spares >= 0, path, "spares must be non-negative")
        _require(self.files >= 1, path, "files must be >= 1")
        _require(self.file_size >= 1, path, "file_size must be >= 1")
        _require(self.audit_period_s > 0, path,
                 "audit_period_s must be positive")
        if self.sample_size is not None:
            _require(self.sample_size >= 1, path, "sample_size must be >= 1")
        _require(self.quarantine_threshold >= 1, path,
                 "quarantine_threshold must be >= 1")
        _require(self.quarantine_rounds >= 1, path,
                 "quarantine_rounds must be >= 1")
        _valid_name(self.name_prefix, path)

    def server_names(self) -> tuple[str, ...]:
        return tuple(f"{self.name_prefix}-s{j}"
                     for j in range(self.servers + self.spares))


@dataclass(frozen=True)
class LinkSpec:
    """Parameters for the directed link class ``src -> dst``.

    ``src``/``dst`` name a cohort, SEM group, cloud, or verifier declared
    elsewhere in the document (dangling references are rejected).
    """

    src: str
    dst: str
    params: LinkParams = field(default_factory=LinkParams)

    def validate(self, path: str) -> None:
        _require(isinstance(self.src, str) and self.src, path, "link needs src")
        _require(isinstance(self.dst, str) and self.dst, path, "link needs dst")
        self.params.validate(path)


@dataclass(frozen=True)
class TopologySpec:
    sem_groups: tuple[SEMGroupSpec, ...] = ()
    clouds: tuple[CloudSpec, ...] = ()
    verifiers: tuple[VerifierSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    default_link: LinkParams = field(default_factory=LinkParams)
    fleet: FleetSpec | None = None

    def validate(self, path: str = "topology") -> None:
        _require(len(self.sem_groups) >= 1 or self.fleet is not None, path,
                 "needs at least one SEM group (or a fleet)")
        names: set[str] = set()
        for kind, entries in (("sem_groups", self.sem_groups),
                              ("clouds", self.clouds),
                              ("verifiers", self.verifiers)):
            for i, entry in enumerate(entries):
                entry.validate(f"{path}.{kind}[{i}]")
                _require(entry.name not in names, f"{path}.{kind}[{i}]",
                         f"duplicate topology name {entry.name!r}")
                names.add(entry.name)
        if self.fleet is not None:
            self.fleet.validate(f"{path}.fleet")
            for server in self.fleet.server_names():
                _require(server not in names, f"{path}.fleet",
                         f"fleet server name {server!r} collides with "
                         "another topology name")
                names.add(server)
        cloud_names = {c.name for c in self.clouds}
        for i, verifier in enumerate(self.verifiers):
            _require(verifier.audits in cloud_names, f"{path}.verifiers[{i}]",
                     f"audits unknown cloud {verifier.audits!r}")
        self.default_link.validate(f"{path}.default_link")
        for i, link in enumerate(self.links):
            link.validate(f"{path}.links[{i}]")

    @property
    def names(self) -> set[str]:
        return ({g.name for g in self.sem_groups}
                | {c.name for c in self.clouds}
                | {v.name for v in self.verifiers})


# ---------------------------------------------------------------------------
# Run settings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeSpec:
    """Acceptance envelope the runner judges a finished run against.

    ``None`` disables a check.  ``max_exp_per_request`` /
    ``max_pair_per_request`` bound the *model-equivalent* Exp and pairing
    operations per issued request (the paper's Table I units), so a
    regression in protocol cost fails the scenario even when wall time
    stays quiet.
    """

    max_p99_latency_s: float | None = None
    max_p50_latency_s: float | None = None
    max_drop_rate: float | None = None
    max_failed: int | None = None
    min_completed: int | None = None
    max_exp_per_request: float | None = None
    max_pair_per_request: float | None = None
    max_virtual_duration_s: float | None = None
    # Durability envelope (fleet scenarios): how much loss is acceptable
    # and how fast repair must land.
    max_unrecoverable_files: int | None = None
    min_repaired_slices: int | None = None
    max_post_repair_audit_failures: int | None = None
    max_repair_duration_s: float | None = None
    # Dynamic-update envelope (dynamic scenarios): how much churn must
    # land, and how tightly batching must bound the re-sign cost.
    min_update_batches: int | None = None
    max_resigned_blocks_per_batch: int | None = None
    min_dynamic_audits: int | None = None

    def validate(self, path: str) -> None:
        for name in self.checks:
            value = getattr(self, name)
            _require(value >= 0, path, f"{name} must be non-negative, got {value}")
        if self.max_drop_rate is not None:
            _require(self.max_drop_rate <= 1.0, path, "max_drop_rate must be <= 1")

    @property
    def checks(self) -> list[str]:
        """The enabled checks, in declaration order."""
        return [f.name for f in fields(self) if getattr(self, f.name) is not None]


@dataclass(frozen=True)
class BatchSpec:
    max_batch: int = 16
    max_wait_s: float = 0.02

    def validate(self, path: str) -> None:
        _require(self.max_batch >= 1, path, "max_batch must be >= 1")
        _require(self.max_wait_s > 0, path, "max_wait_s must be positive")


@dataclass(frozen=True)
class FailoverSpec:
    timeout_s: float = 0.5
    round_deadline_s: float | None = None

    def validate(self, path: str) -> None:
        _require(self.timeout_s > 0, path, "timeout_s must be positive")
        if self.round_deadline_s is not None:
            _require(self.round_deadline_s > 0, path,
                     "round_deadline_s must be positive")


@dataclass(frozen=True)
class RunSettings:
    duration_s: float = 1.0
    seed: int = 0
    param_set: str = "toy-64"
    k: int = 4
    max_requests: int = 1000         # global budget across every cohort
    batch: BatchSpec = field(default_factory=BatchSpec)
    failover: FailoverSpec = field(default_factory=FailoverSpec)
    faults: tuple[Fault, ...] = ()
    fault_seed: int | None = None    # None: derived from the scenario seed
    fault_plan_name: str = ""
    envelope: EnvelopeSpec = field(default_factory=EnvelopeSpec)
    metrics: tuple[str, ...] = ("latency", "throughput", "ops")

    def validate(self, path: str = "settings") -> None:
        _require(self.duration_s > 0, path, "duration_s must be positive")
        _require(self.k >= 1, path, "k must be >= 1")
        _require(self.max_requests >= 1, path, "max_requests must be >= 1")
        from repro.pairing import TYPE_A_PARAM_SETS

        _require(self.param_set in TYPE_A_PARAM_SETS, path,
                 f"unknown param_set {self.param_set!r}; "
                 f"choose from {sorted(TYPE_A_PARAM_SETS)}")
        self.batch.validate(f"{path}.batch")
        self.failover.validate(f"{path}.failover")
        self.envelope.validate(f"{path}.envelope")
        for i, metric in enumerate(self.metrics):
            _require(metric in METRIC_GROUPS, f"{path}.metrics[{i}]",
                     f"unknown metric group {metric!r}; "
                     f"choose from {sorted(METRIC_GROUPS)}")


# ---------------------------------------------------------------------------
# SLOs (optional fourth component)
# ---------------------------------------------------------------------------

#: Signal kinds an SLO objective may declare (see repro.obs.slo).
SLO_SIGNAL_KINDS = frozenset(
    {"availability", "latency", "drop_rate", "op_budget", "quarantine"})
ALERT_SEVERITY_KINDS = frozenset({"page", "ticket"})


@dataclass(frozen=True)
class BurnWindowSpec:
    """One explicit burn-rate window pair (overrides the scaled defaults)."""

    long_s: float
    short_s: float
    burn_rate: float
    severity: str = "page"

    def validate(self, path: str) -> None:
        _require(self.short_s > 0, path, "short_s must be positive")
        _require(self.long_s > self.short_s, path,
                 f"long_s ({self.long_s}) must exceed short_s ({self.short_s})")
        _require(self.burn_rate > 0, path, "burn_rate must be positive")
        _require(self.severity in ALERT_SEVERITY_KINDS, path,
                 f"unknown severity {self.severity!r}; "
                 f"choose from {sorted(ALERT_SEVERITY_KINDS)}")


@dataclass(frozen=True)
class ObjectiveSpec:
    """One declarative SLO objective over the run's virtual clock."""

    name: str
    signal: str
    target: float = 0.99
    threshold_s: float | None = None      # latency
    op: str = "exp"                       # op_budget: "exp" | "pair"
    budget_per_request: float | None = None  # op_budget
    windows: tuple[BurnWindowSpec, ...] = ()

    def validate(self, path: str) -> None:
        _valid_name(self.name, path)
        _require(self.signal in SLO_SIGNAL_KINDS, path,
                 f"unknown SLO signal {self.signal!r}; "
                 f"choose from {sorted(SLO_SIGNAL_KINDS)}")
        _require(0.0 < self.target < 1.0, path,
                 f"target must be in (0, 1), got {self.target}")
        if self.signal == "latency":
            _require(self.threshold_s is not None, path,
                     "latency objective needs threshold_s")
            _require(self.threshold_s > 0, path, "threshold_s must be positive")
        else:
            _require(self.threshold_s is None, path,
                     f"threshold_s only applies to latency, not {self.signal}")
        if self.signal == "op_budget":
            _require(self.op in ("exp", "pair"), path,
                     f"op must be 'exp' or 'pair', got {self.op!r}")
            _require(self.budget_per_request is not None, path,
                     "op_budget objective needs budget_per_request")
            _require(self.budget_per_request > 0, path,
                     "budget_per_request must be positive")
        else:
            _require(self.budget_per_request is None, path,
                     f"budget_per_request only applies to op_budget, "
                     f"not {self.signal}")
        for i, window in enumerate(self.windows):
            window.validate(f"{path}.windows[{i}]")


@dataclass(frozen=True)
class SLOSpec:
    """The optional ``slos:`` component: objectives + alert expectations.

    ``expected_alerts`` entries are ``"<objective>"`` (any severity) or
    ``"<objective>:<severity>"``; the runner fails the run unless exactly
    the expected alerts fired.  ``sample_interval_s`` / ``epoch_s``
    default to fractions of the run duration at compile time.
    """

    objectives: tuple[ObjectiveSpec, ...]
    sample_interval_s: float | None = None
    epoch_s: float | None = None
    expected_alerts: tuple[str, ...] = ()

    def validate(self, path: str = "slos") -> None:
        _require(len(self.objectives) >= 1, path,
                 "needs at least one objective")
        seen: set[str] = set()
        for i, objective in enumerate(self.objectives):
            objective.validate(f"{path}.objectives[{i}]")
            _require(objective.name not in seen, f"{path}.objectives[{i}]",
                     f"duplicate objective name {objective.name!r}")
            seen.add(objective.name)
        if self.sample_interval_s is not None:
            _require(self.sample_interval_s > 0, path,
                     "sample_interval_s must be positive")
        if self.epoch_s is not None:
            _require(self.epoch_s > 0, path, "epoch_s must be positive")
        for i, expected in enumerate(self.expected_alerts):
            epath = f"{path}.expected_alerts[{i}]"
            _require(isinstance(expected, str) and expected, epath,
                     "expected alert must be a non-empty string")
            name, _, severity = expected.partition(":")
            _require(name in seen, epath,
                     f"references unknown objective {name!r} "
                     f"(declared: {', '.join(sorted(seen))})")
            if severity:
                _require(severity in ALERT_SEVERITY_KINDS, epath,
                         f"unknown severity {severity!r}; "
                         f"choose from {sorted(ALERT_SEVERITY_KINDS)}")


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One fully-described run.  Construction validates everything."""

    name: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    topology: TopologySpec
    settings: RunSettings = field(default_factory=RunSettings)
    description: str = ""
    slos: SLOSpec | None = None

    def __post_init__(self):
        self.validate()

    # -- compiled node naming (the contract fault plans target) -------------
    def node_names(self) -> set[str]:
        """Every simulator node name this scenario compiles to.

        Naming contract: SEM ``j`` of group ``G`` is ``sem-<G>-<j>``, the
        group's service front end is ``svc-<G>``, cohort ``C`` drives
        traffic from ``c-<C>``, and clouds/verifiers keep their declared
        names.  Fault plans address these names.
        """
        names: set[str] = set()
        for group in self.topology.sem_groups:
            names.add(f"svc-{group.name}")
            names.update(f"sem-{group.name}-{j}" for j in range(group.w))
        names.update(f"c-{c.name}" for c in self.workload.cohorts)
        names.update(c.name for c in self.topology.clouds)
        names.update(v.name for v in self.topology.verifiers)
        if self.topology.fleet is not None:
            names.update(self.topology.fleet.server_names())
        return names

    def validate(self) -> None:
        _valid_name(self.name, "scenario")
        if self.topology.fleet is None or self.workload.cohorts:
            # A pure fleet drill needs no signing workload; anything else
            # (including a fleet riding alongside cohorts) validates the
            # workload as usual.
            self.workload.validate()
        self.topology.validate()
        self.settings.validate()
        if self.slos is not None:
            self.slos.validate()
        group_names = {g.name for g in self.topology.sem_groups}
        cloud_names = {c.name for c in self.topology.clouds}
        if self.workload.dynamic is not None:
            _require(self.workload.dynamic.target in group_names,
                     "workload.dynamic",
                     f"target references unknown SEM group "
                     f"{self.workload.dynamic.target!r}")
            _require(self.slos is None, "workload.dynamic",
                     "dynamic drills do not support slos: yet — drop one")
            _require(not self.workload.cohorts, "workload.dynamic",
                     "a dynamic drill replaces the cohort workload — "
                     "declare cohorts or dynamic, not both")
        for i, cohort in enumerate(self.workload.cohorts):
            path = f"workload.cohorts[{i}]"
            _require(cohort.target in group_names, path,
                     f"target references unknown SEM group {cohort.target!r}")
            for cloud in cohort.upload_to:
                _require(cloud in cloud_names, path,
                         f"upload_to references unknown cloud {cloud!r}")
        # A cloud stores files under one organizational key, so every cohort
        # striping to it must sign through the same SEM group — otherwise the
        # cloud's (and its TPA's) verification key is ambiguous.
        cloud_signer: dict[str, tuple[str, str]] = {}
        for i, cohort in enumerate(self.workload.cohorts):
            path = f"workload.cohorts[{i}]"
            for cloud in cohort.upload_to:
                prior = cloud_signer.setdefault(cloud, (cohort.target, cohort.name))
                _require(prior[0] == cohort.target, path,
                         f"cloud {cloud!r} receives uploads signed by group "
                         f"{cohort.target!r} here but by {prior[0]!r} from "
                         f"cohort {prior[1]!r} — one cloud, one signing group")
        endpoint_names = self.topology.names | {c.name for c in self.workload.cohorts}
        for i, link in enumerate(self.topology.links):
            path = f"topology.links[{i}]"
            for end in (link.src, link.dst):
                _require(end in endpoint_names, path,
                         f"link references unknown endpoint {end!r}")
        node_names = self.node_names()
        for i, fault in enumerate(self.settings.faults):
            path = f"settings.faults[{i}]"
            if fault.kind in NODE_KINDS:
                _require(fault.node in node_names, path,
                         f"fault targets unknown node {fault.node!r} "
                         f"(known: {', '.join(sorted(node_names))})")
            for src, dst in fault.links:
                for end in (src, dst):
                    _require(end == "*" or end in node_names, path,
                             f"fault link pattern references unknown node {end!r}")

    @property
    def total_requests_budget(self) -> int:
        """The hard cap on issued requests (global and per-cohort caps)."""
        per_cohort = sum(
            c.max_requests if c.max_requests is not None else self.settings.max_requests
            for c in self.workload.cohorts
        )
        return min(self.settings.max_requests, per_cohort)
