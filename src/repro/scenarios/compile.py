"""Compile a validated scenario onto the discrete-event simulator.

The compiler is the bridge between the declarative contract
(:mod:`repro.scenarios.schema`) and the existing runtime: SEM groups
become :class:`~repro.service.simnodes.SEMServiceNode` deployments,
cohorts become driver nodes feeding requests through their arrival
process, clouds become storage nodes and verifiers become
:class:`~repro.net.audit_service.AuditServiceNode` auditors (stopping at
the scenario horizon, recording to the run's ledger), links become
per-direction :class:`~repro.net.channel.Channel` instances, and fault
plans install through :mod:`repro.net.faults` unchanged.

Every random stream is derived by name from the scenario seed
(:mod:`repro.scenarios.rng`): per-cohort arrival/population/payload
streams, per-directed-link channel streams, per-group key material.  No
``random.Random`` instance is ever shared between two components, so
adding or reordering components cannot perturb the others — the property
the determinism tests pin down.

Request ids are run-local (a fresh counter per compilation) rather than
process-global, so two runs of one scenario in the same process produce
bit-identical traffic — including message byte sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.blocks import encode_data
from repro.core.cloud import CloudServer
from repro.core.owner import SignedFile
from repro.core.params import setup
from repro.core.verifier import PublicVerifier
from repro.net.actors import CloudNode
from repro.net.audit_service import AuditServiceNode
from repro.net.channel import Channel
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter
from repro.scenarios.arrivals import make_arrival_process
from repro.scenarios.population import Population
from repro.scenarios.rng import derive_rng, derive_seed
from repro.scenarios.schema import CohortSpec, LinkParams, Scenario, ScenarioError
from repro.service.api import SignRequest, SignResponse
from repro.service.batcher import BatchConfig
from repro.service.failover import FailoverConfig
from repro.service.simnodes import SEMServiceNode, add_sem_group


class RequestBudget:
    """The global cap on issued requests, shared by every cohort driver."""

    def __init__(self, limit: int):
        self.limit = limit
        self.issued = 0

    def take(self) -> bool:
        if self.issued >= self.limit:
            return False
        self.issued += 1
        return True


class CohortNode(Node):
    """One cohort's driver: its members' requests, aggregated.

    Open-loop kinds schedule the next arrival from the interarrival
    process; ``closed`` keeps ``concurrency`` requests in flight with a
    think-time gap; ``batch`` issues everything at t = 0.  Arrivals stop
    at the scenario horizon or when a budget (global or per-cohort) runs
    out — the simulator then drains naturally.
    """

    def __init__(
        self,
        cohort: CohortSpec,
        params,
        service_name: str,
        seed: int,
        horizon_s: float,
        budget: RequestBudget,
        request_ids,
        clouds: list[str] | None = None,
    ):
        super().__init__(f"c-{cohort.name}")
        self.cohort = cohort
        self.params = params
        self.service_name = service_name
        self.horizon_s = horizon_s
        self.budget = budget
        self._ids = request_ids
        self.clouds = list(clouds or cohort.upload_to)
        self._stripe = 0
        self.population = Population(cohort, derive_rng(seed, "population", cohort.name))
        self._payload_rng = derive_rng(seed, "payload", cohort.name)
        self._arrival_rng = derive_rng(seed, "arrival", cohort.name)
        self.process = None
        if cohort.arrival.kind not in ("closed", "batch"):
            self.process = make_arrival_process(
                cohort.arrival, cohort.members, self._arrival_rng
            )
        self.issued = 0
        self.completed: list[int] = []
        self.failed: list[int] = []
        self.latencies: list[float] = []
        self.exemplars: list[tuple[float, int]] = []  # (latency, trace id)
        self.uploads_acked = 0
        self._sent_at: dict[int, float] = {}
        self._pending_blocks: dict[int, tuple] = {}
        self._seq = 0
        self.on("svc_sign_response", self._handle_response)
        self.on("upload_ack", self._handle_upload_ack)

    # -- arrivals ------------------------------------------------------------
    def start(self) -> list[Message]:
        """Arm the arrival schedule; returns any t = 0 messages to send."""
        kind = self.cohort.arrival.kind
        if kind == "batch":
            out = []
            for _ in range(self.cohort.members * self.cohort.arrival.requests_per_member):
                message = self._next_request()
                if message is None:
                    break
                out.append(message)
            return out
        if kind == "closed":
            for slot in range(self.cohort.arrival.concurrency):
                self.sim.schedule(self._think_gap(initial=True), self._fire)
            return []
        self.sim.schedule(self.process.next_interarrival(), self._fire)
        return []

    def _think_gap(self, initial: bool = False) -> float:
        think = self.cohort.arrival.think_time_s
        if think <= 0:
            return 0.0
        if initial:
            # Stagger the closed-loop slots so they don't arrive in lockstep.
            return self._arrival_rng.uniform(0.0, think)
        return self._arrival_rng.expovariate(1.0 / think)

    def _fire(self):
        if self.crashed or self.sim.now > self.horizon_s:
            return None
        message = self._next_request()
        if message is None:
            return None
        if self.process is not None:  # open loop: arm the next arrival
            self.sim.schedule(self.process.next_interarrival(), self._fire)
        return message

    def _exhausted(self) -> bool:
        cap = self.cohort.max_requests
        return cap is not None and self.issued >= cap

    def _next_request(self) -> Message | None:
        if self._exhausted() or not self.budget.take():
            return None
        member, size = self.population.next_request()
        data = self._payload_rng.randbytes(size)
        file_id = f"{self.cohort.name}/{self._seq}-m{member}".encode()
        self._seq += 1
        blocks = tuple(encode_data(data, self.params, file_id))
        request = SignRequest(
            request_id=next(self._ids),
            owner=self.name,
            blocks=blocks,
            submitted_at=self.sim.now if self.sim else 0.0,
        )
        self.issued += 1
        self._sent_at[request.request_id] = self.sim.now if self.sim else 0.0
        if self.clouds:
            self._pending_blocks[request.request_id] = (file_id, blocks)
        message = self.make_message(self.service_name, "svc_sign_request", request)
        if self.sim is not None:
            # Root a fresh causal tree per request: closed-loop requests
            # fire from inside the previous response's handler, and the
            # ambient context would chain them into one ever-deeper trace.
            self.sim.start_trace(message)
        return message

    # -- responses -----------------------------------------------------------
    def _handle_response(self, message: Message):
        response: SignResponse = message.payload
        sent = self._sent_at.pop(response.request_id, None)
        if sent is not None:
            self.latencies.append(self.sim.now - sent)
            if message.trace is not None:
                self.exemplars.append((self.sim.now - sent, message.trace.trace_id))
        out = []
        if response.ok:
            self.completed.append(response.request_id)
            pending = self._pending_blocks.pop(response.request_id, None)
            if pending is not None:
                file_id, blocks = pending
                signed = SignedFile(
                    file_id=file_id, blocks=blocks, signatures=response.signatures
                )
                cloud = self.clouds[self._stripe % len(self.clouds)]
                self._stripe += 1
                out.append(self.make_message(cloud, "upload", signed))
        else:
            self.failed.append(response.request_id)
            self._pending_blocks.pop(response.request_id, None)
        if self.cohort.arrival.kind == "closed" and self.sim.now <= self.horizon_s:
            self.sim.schedule(self._think_gap(), self._fire)
        return out or None

    def _handle_upload_ack(self, message: Message):
        self.uploads_acked += 1
        return None

    def stats(self) -> dict:
        return {
            **self.population.stats(),
            "issued": self.issued,
            "completed": len(self.completed),
            "failed": len(self.failed),
            "uploads_acked": self.uploads_acked,
        }


class ScenarioCloudNode(CloudNode):
    """A cloud store that registers new files with its TPA watchers."""

    def __init__(self, name: str, server: CloudServer):
        super().__init__(name, server)
        self.watchers: list[AuditServiceNode] = []

    def _handle_upload(self, message: Message):
        reply = super()._handle_upload(message)
        signed: SignedFile = message.payload
        for watcher in self.watchers:
            watcher.watch(signed.file_id, len(signed.blocks))
        return reply


@dataclass
class CompiledScenario:
    """Everything a runner needs to execute and account for one scenario."""

    scenario: Scenario
    sim: Simulator
    params: object
    counter: OperationCounter
    services: dict[str, SEMServiceNode] = field(default_factory=dict)
    cohorts: dict[str, CohortNode] = field(default_factory=dict)
    clouds: dict[str, ScenarioCloudNode] = field(default_factory=dict)
    verifiers: dict[str, AuditServiceNode] = field(default_factory=dict)
    budget: RequestBudget | None = None
    injector: object = None
    replayed: int = 0  # journaled requests re-queued at startup

    def start_workload(self) -> None:
        """Arm cohort arrival schedules and TPA audit ticks."""
        for cohort in self.cohorts.values():
            for message in cohort.start():
                self.sim.send(message)
        for tpa in self.verifiers.values():
            tpa.start()

    def assert_independent_streams(self) -> None:
        """Every compiled channel must own a distinct RNG instance.

        A shared ``random.Random`` across links would correlate drop
        decisions that the schema declares independent; this is the
        cheap structural audit the determinism tests lean on.
        """
        rngs = [ch.rng for ch in self.sim._channels.values() if ch.rng is not None]
        if len(rngs) != len({id(r) for r in rngs}):
            raise AssertionError("compiled channels share an RNG instance")


def _link_params_for(scenario: Scenario, src: str, dst: str) -> LinkParams:
    """The declared parameters of ``src -> dst`` (either direction), or the
    topology default."""
    for link in scenario.topology.links:
        if (link.src, link.dst) in ((src, dst), (dst, src)):
            return link.params
    return scenario.topology.default_link


def _channel(params: LinkParams, seed: int, src: str, dst: str) -> Channel:
    rng = derive_rng(seed, "link", src, dst) if params.drop_rate > 0 else None
    return Channel(
        latency_s=params.latency_s,
        bandwidth_bps=params.bandwidth_bps,
        drop_rate=params.drop_rate,
        rng=rng,
    )


def _connect(sim: Simulator, scenario: Scenario, seed: int,
             spec_a: str, node_a: str, spec_b: str, node_b: str) -> None:
    """Wire both directions of one pair with independent derived channels."""
    params = _link_params_for(scenario, spec_a, spec_b)
    sim.connect(node_a, node_b, _channel(params, seed, node_a, node_b),
                bidirectional=False)
    sim.connect(node_b, node_a, _channel(params, seed, node_b, node_a),
                bidirectional=False)


def compile_scenario(scenario: Scenario, obs=None, ledger=None,
                     journal=None) -> CompiledScenario:
    """Build the simulator network for a scenario.

    ``journal`` (a :class:`~repro.service.journal.SigningJournal`) backs
    the one SEM group's service; its pending requests are re-queued once
    the network is wired.  A journal belongs to one service, so it is
    refused for any other topology.
    """
    if journal is not None and len(scenario.topology.sem_groups) != 1:
        raise ScenarioError("topology.sem_groups",
                            "a signing journal needs exactly one SEM group, "
                            f"got {len(scenario.topology.sem_groups)}")
    settings = scenario.settings
    seed = settings.seed
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[settings.param_set])
    params = setup(group, settings.k)
    if obs is not None and obs.enabled:
        obs.observe_group(group)
        counter = obs.counter
    else:
        counter = OperationCounter()
        group.attach_counter(counter)
    sim = Simulator()
    if obs is not None and obs.enabled:
        obs.tracer.clock = lambda: sim.now
        sim.tracer = obs.tracer  # message deliveries become causal spans
    if ledger is not None:
        ledger.clock = lambda: sim.now
        # Genesis pins everything `ledger verify` needs to rebuild the
        # crypto context offline: the parameter universe is a pure
        # function of (param_set, k, setup seed).
        ledger.ensure_genesis({
            "scenario": scenario.name,
            "seed": seed,
            "param_set": settings.param_set,
            "k": settings.k,
            "setup_seed": params.seed.hex(),
        })
    compiled = CompiledScenario(scenario=scenario, sim=sim, params=params,
                                counter=counter)
    batch_config = BatchConfig(max_batch=settings.batch.max_batch,
                               max_wait_s=settings.batch.max_wait_s)
    failover_config = FailoverConfig(
        timeout_s=settings.failover.timeout_s,
        round_deadline_s=settings.failover.round_deadline_s,
    )
    group_pks: dict[str, object] = {}
    for spec in scenario.topology.sem_groups:
        service_name = f"svc-{spec.name}"
        endpoints, org_pk, org_pk_g1 = add_sem_group(
            sim, group, [f"sem-{spec.name}-{j}" for j in range(spec.w)], spec.t,
            derive_rng(seed, "group", spec.name))
        service = SEMServiceNode(
            service_name,
            params,
            endpoints,
            spec.t,
            org_pk,
            org_pk_g1=org_pk_g1,
            batch_config=batch_config,
            failover_config=failover_config,
            rng=derive_rng(seed, "service", spec.name),
            journal=journal,
            obs=obs,
            ledger=ledger,
        )
        sim.add_node(service)
        compiled.services[spec.name] = service
        group_pks[spec.name] = org_pk
        for endpoint in endpoints:
            params_link = spec.sem_link
            sim.connect(service_name, endpoint.name,
                        _channel(params_link, seed, service_name, endpoint.name),
                        bidirectional=False)
            sim.connect(endpoint.name, service_name,
                        _channel(params_link, seed, endpoint.name, service_name),
                        bidirectional=False)
    # Clouds store files signed by the single group that uploads to them
    # (schema validation guarantees the mapping is unambiguous).
    cloud_group: dict[str, str] = {}
    for cohort in scenario.workload.cohorts:
        for cloud in cohort.upload_to:
            cloud_group.setdefault(cloud, cohort.target)
    for spec in scenario.topology.clouds:
        org_pk = group_pks.get(cloud_group.get(spec.name, ""),
                               next(iter(group_pks.values())))
        node = ScenarioCloudNode(
            spec.name, CloudServer(params, org_pk=org_pk,
                                   rng=derive_rng(seed, "cloud", spec.name))
        )
        sim.add_node(node)
        compiled.clouds[spec.name] = node
    for spec in scenario.topology.verifiers:
        org_pk = group_pks.get(cloud_group.get(spec.audits, ""),
                               next(iter(group_pks.values())))
        verifier = PublicVerifier(params, org_pk,
                                  rng=derive_rng(seed, "tpa", spec.name))
        if ledger is not None:
            ledger.pin_verifier(spec.name, org_pk)
        node = AuditServiceNode(spec.name, verifier, cloud_name=spec.audits,
                                period_s=spec.period_s, sample_size=spec.sample_size,
                                horizon_s=settings.duration_s, ledger=ledger)
        sim.add_node(node)
        compiled.verifiers[spec.name] = node
        compiled.clouds[spec.audits].watchers.append(node)
        _connect(sim, scenario, seed, spec.name, spec.name, spec.audits, spec.audits)
    compiled.budget = RequestBudget(settings.max_requests)
    request_ids = itertools.count(1)
    for cohort in scenario.workload.cohorts:
        node = CohortNode(
            cohort,
            params,
            f"svc-{cohort.target}",
            seed,
            settings.duration_s,
            compiled.budget,
            request_ids,
        )
        sim.add_node(node)
        compiled.cohorts[cohort.name] = node
        _connect(sim, scenario, seed, cohort.name, node.name,
                 cohort.target, f"svc-{cohort.target}")
        for cloud in cohort.upload_to:
            _connect(sim, scenario, seed, cohort.name, node.name, cloud, cloud)
    if settings.faults:
        fault_seed = settings.fault_seed
        if fault_seed is None:
            fault_seed = derive_seed(seed, "faults") % (1 << 31)
        plan = FaultPlan(
            faults=list(settings.faults),
            seed=fault_seed,
            name=settings.fault_plan_name or scenario.name,
        )
        compiled.injector = plan.install(sim)
    for spec in scenario.topology.sem_groups:
        for j in range(spec.initial_crashed):
            sim.nodes[f"sem-{spec.name}-{j}"].crash()
    if journal is not None:
        (service,) = compiled.services.values()
        compiled.replayed = service.recover()
    if obs is not None and obs.enabled:
        from repro.obs import bind_sim_run

        # The service and health gauges carry no group label, so only a
        # single-group run can export them without collisions.
        services = list(compiled.services.values())
        bind_sim_run(obs.registry, sim,
                     service=services[0] if len(services) == 1 else None,
                     injector=compiled.injector, ledger=ledger)
    compiled.assert_independent_streams()
    return compiled
