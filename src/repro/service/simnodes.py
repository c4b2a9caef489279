"""The signing service as discrete-event simulator nodes.

Wiring (an organizational deployment of Figure 1's left half)::

    client-i --svc_sign_request--> service --sign_request--> sem-j (x w)
    sem-j    --sign_response--> service                      (shares)
    service  --svc_sign_response--> client-i                 (signatures)

:class:`SEMServiceNode` runs the :class:`~repro.service.batcher.\
BatchingSEMService` admission/coalescing logic on virtual time: requests
queue until the size or age trigger fires (age via simulator timers), and
each flush becomes one fan-out round driven by the
:class:`~repro.service.failover.SigningRound` state machine — per-SEM
timeout timers, retry-with-backoff, Lagrange reconstruction as soon as t
share batches arrive.  Seeded experiments inject latency and drops through
:class:`~repro.net.channel.Channel` parameters and SEM crashes through
``Node.crash()`` / ``SEMNode`` failure modes, and the service's metrics
(queue depth, batch-size histogram, p50/p99 latency in *virtual* time)
come out of ``service.metrics``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.params import SystemParams
from repro.crypto.threshold import distribute_key
from repro.net.channel import Channel
from repro.net.message import Message
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.service.api import ResponseStatus, SignRequest, SignResponse, next_request_id
from repro.service.batcher import BatchConfig, BatchingSEMService
from repro.service.failover import (
    ArmRoundDeadline,
    ArmTimer,
    FailoverConfig,
    HealthScoreboard,
    SEMEndpoint,
    SendRequest,
    SigningRound,
    round_key,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pipeline import SigningPipeline


@dataclass
class _Round:
    """One in-flight fan-out round and the envelopes awaiting it."""

    round_id: int
    machine: SigningRound
    prepared: object = None  # PreparedBatch
    envelopes: list = field(default_factory=list)
    started_at: float = 0.0
    batch_size: int = 0
    timer_ids: list = field(default_factory=list)  # cancelled at completion


class SEMServiceNode(Node):
    """The organizational signing service, batched and fault-tolerant.

    In single-SEM mode (``endpoints`` has one entry with threshold 1) the
    same machinery degenerates gracefully: one fan-out, t = 1, and the
    "combination" is the identity Lagrange basis.
    """

    def __init__(
        self,
        name: str,
        params: SystemParams,
        endpoints: list[SEMEndpoint],
        t: int,
        org_pk,
        batch_config: BatchConfig | None = None,
        failover_config: FailoverConfig | None = None,
        membership=None,
        rng=None,
        journal=None,
        obs=None,
        ledger=None,
    ):
        super().__init__(name)
        self.params = params
        self.group = params.group
        self.endpoints = endpoints
        self.t = t
        self.failover_config = failover_config or FailoverConfig()
        self._rng = rng
        self.metrics = ServiceMetrics()
        # Round-spanning endpoint health: byzantine SEMs get quarantined
        # instead of being re-contacted (and re-rejected) every round.
        self.health = HealthScoreboard.from_config(len(endpoints), self.failover_config)
        # Flight recorder: admission, round outcomes, and quarantine
        # decisions become hash-chained ledger entries.
        self.ledger = ledger
        if ledger is not None:
            self.health.on_invalid.append(self._ledger_invalid)
            self.health.on_trip.append(self._ledger_quarantine)
        # The pipeline's signer is this node: its message fan-out rounds
        # check their results against verified_pk, so they are final (no
        # second Eq. 7; another key than org_pk raises here).  The
        # pipeline aggregates, blinds and unblinds.
        self.verified_pk = round_key(self.group, endpoints, t)
        self._pipeline = SigningPipeline(params, sem=self, org_pk=org_pk, rng=rng, obs=obs)
        self.obs = self._pipeline.obs
        self.service = BatchingSEMService(
            params,
            self._pipeline,
            config=batch_config,
            membership=membership,
            clock=lambda: self.sim.now if self.sim else 0.0,
            metrics=self.metrics,
            journal=journal,
        )
        self._rounds: dict[int, _Round] = {}
        self._round_ids = iter(range(1, 1 << 62))
        self._inflight: dict[int, tuple[int, int]] = {}  # msg_id -> (round, endpoint)
        self._requesters: dict[int, str] = {}  # request_id -> client node name
        self._trace_ctx: dict = {}  # request_id -> inbound TraceContext
        self._flush_timer: int | None = None
        self.on("svc_sign_request", self._handle_request)
        self.on("sign_response", self._handle_share_response)

    # -- admission ----------------------------------------------------------
    def _handle_request(self, message: Message):
        request: SignRequest = message.payload
        immediate = self.service.submit(request)
        if self.ledger is not None:
            self.ledger.append("sign_request", {
                "id": request.request_id,
                "owner": request.owner,
                "blocks": len(request.blocks) if request.blocks else 0,
                "accepted": immediate is None,
            })
        if immediate is not None:  # rejected / overloaded at the door
            return self.make_message(message.sender, "svc_sign_response", immediate)
        self._requesters[request.request_id] = message.sender
        if message.trace is not None:
            # Batched replies must rejoin *this* request's causal tree, not
            # whichever request triggered the flush.
            self._trace_ctx[request.request_id] = message.trace
        out = []
        if self.service.queue.depth >= self.service.config.max_batch:
            out.extend(self._start_round() or [])
        self._arm_flush_timer()
        return out or None

    def _arm_flush_timer(self) -> None:
        """Keep a flush scheduled while anything is queued."""
        if self._flush_timer is None and self.sim is not None and self.service.queue.depth:
            self._flush_timer = self.sim.schedule(
                self.service.config.max_wait_s, self._on_flush_timer
            )

    def _on_flush_timer(self):
        self._flush_timer = None
        if self.crashed or not self.service.queue.depth:
            return None
        out = self._start_round()
        self._arm_flush_timer()
        return out

    # -- one fan-out round ----------------------------------------------------
    def _start_round(self):
        envelopes = self.service.queue.take(self.service.config.max_batch)
        if not envelopes:
            return None
        now = self.sim.now if self.sim else 0.0
        self.metrics.on_batch(len(envelopes), self.service.queue.depth)
        requests = [e.request for e in envelopes]
        prepared = self._pipeline.prepare_batch(requests)
        machine = SigningRound(
            self.group,
            self.endpoints,
            self.t,
            prepared.blinded,
            key=self.verified_pk,
            config=self.failover_config,
            rng=self._rng,
            obs=self.obs,
            health=self.health,
        )
        round_ = _Round(
            round_id=next(self._round_ids),
            machine=machine,
            prepared=prepared,
            envelopes=envelopes,
            started_at=now,
            batch_size=len(envelopes),
        )
        self._rounds[round_.round_id] = round_
        return self._perform(round_, machine.start())

    def _perform(self, round_: _Round, actions) -> list[Message]:
        """Map state-machine actions onto simulator messages and timers."""
        out: list[Message] = []
        for action in actions:
            if isinstance(action, SendRequest):
                endpoint = self.endpoints[action.endpoint_index]
                message = self.make_message(
                    endpoint.name, "sign_request", round_.machine.blinded
                )
                # Responses carry reply_to=msg_id; this maps them back.
                self._inflight[message.msg_id] = (round_.round_id, action.endpoint_index)
                if action.delay_s and self.sim is not None:
                    self.sim.schedule(action.delay_s, lambda m=message: m)
                else:
                    out.append(message)
            elif isinstance(action, ArmTimer):
                round_.timer_ids.append(self.sim.schedule(
                    action.delay_s,
                    lambda r=round_.round_id, i=action.endpoint_index: self._on_sem_timeout(r, i),
                ))
            elif isinstance(action, ArmRoundDeadline):
                round_.timer_ids.append(self.sim.schedule(
                    action.delay_s,
                    lambda r=round_.round_id: self._on_round_deadline(r),
                ))
        self._after_event(round_)
        return out

    def _on_sem_timeout(self, round_id: int, endpoint_index: int):
        round_ = self._rounds.get(round_id)
        if round_ is None or self.crashed:
            return None
        return self._perform(round_, round_.machine.on_timeout(endpoint_index)) or None

    def _on_round_deadline(self, round_id: int):
        """The whole-round budget expired: fail the round closed."""
        round_ = self._rounds.get(round_id)
        if round_ is None or self.crashed:
            return None
        round_.machine.on_deadline()
        self._after_event(round_)
        return None

    def _handle_share_response(self, message: Message):
        located = self._inflight.pop(message.reply_to, None)
        if located is None:
            return None  # stale response of a finished round
        round_id, endpoint_index = located
        round_ = self._rounds.get(round_id)
        if round_ is None:
            return None
        actions = round_.machine.on_response(endpoint_index, message.payload)
        return self._perform(round_, actions) or None

    # -- completion -----------------------------------------------------------
    def _after_event(self, round_: _Round) -> None:
        machine = round_.machine
        if not machine.done or round_.round_id not in self._rounds:
            return
        del self._rounds[round_.round_id]
        # Stale-timer hygiene: a completed round must not fire leftover
        # per-SEM or deadline timers (they would double-count timeouts).
        for timer_id in round_.timer_ids:
            self.sim.cancel_timer(timer_id)
        round_.timer_ids.clear()
        self._inflight = {
            k: v for k, v in self._inflight.items() if v[0] != round_.round_id
        }
        self.metrics.retries += machine.retries
        if machine.used_failover and machine.result is not None:
            self.metrics.failovers += 1
        now = self.sim.now if self.sim else 0.0
        if self.ledger is not None:
            outcome = {
                "round": round_.round_id,
                "batch": round_.batch_size,
                "ok": machine.result is not None,
                "retries": machine.retries,
                "failover": bool(machine.used_failover),
            }
            if machine.result is None and machine.failed_reason:
                outcome["error"] = machine.failed_reason
            self.ledger.append("round", outcome)
        replies: list[Message] = []
        if machine.result is not None:
            results = self._pipeline.finish_batch(round_.prepared, machine.result)
            for envelope, result in zip(round_.envelopes, results):
                queue_wait = round_.started_at - envelope.enqueued_at
                service_time = now - round_.started_at
                if result.ok:
                    response = SignResponse(
                        request_id=result.request_id,
                        status=ResponseStatus.OK,
                        signatures=result.signatures,
                        queue_wait_s=queue_wait,
                        service_time_s=service_time,
                        batch_size=round_.batch_size,
                    )
                    self.metrics.on_complete(len(result.signatures), queue_wait, service_time)
                else:
                    self.metrics.failed += 1
                    response = SignResponse(
                        request_id=result.request_id,
                        status=ResponseStatus.FAILED,
                        error=result.error,
                        queue_wait_s=queue_wait,
                        service_time_s=service_time,
                        batch_size=round_.batch_size,
                    )
                replies.append(self._reply(envelope, response))
        else:
            for envelope in round_.envelopes:
                self.metrics.failed += 1
                replies.append(
                    self._reply(
                        envelope,
                        SignResponse(
                            request_id=envelope.request.request_id,
                            status=ResponseStatus.FAILED,
                            error=machine.failed_reason,
                            queue_wait_s=round_.started_at - envelope.enqueued_at,
                            service_time_s=now - round_.started_at,
                            batch_size=round_.batch_size,
                        ),
                    )
                )
        for reply in replies:
            self.sim.send(reply)

    def _reply(self, envelope, response: SignResponse) -> Message:
        # The fan-out path bypasses BatchingSEMService._finish, so terminal
        # journaling (crash recovery's "done" record) happens here instead.
        if self.service.journal is not None:
            self.service.journal.record_terminal(response)
            self.service._inflight_ids.discard(response.request_id)
        if self.ledger is not None:
            self.ledger.append("sign_response", {
                "id": response.request_id,
                "ok": response.ok,
                "status": response.status.value,
                "batch": response.batch_size,
            })
        requester = self._requesters.pop(envelope.request.request_id, envelope.request.owner)
        message = self.make_message(requester, "svc_sign_response", response)
        ctx = self._trace_ctx.pop(envelope.request.request_id, None)
        if ctx is not None and self.sim is not None:
            message.trace = self.sim.child_context(ctx)
        return message

    # -- flight recorder -----------------------------------------------------
    def _ledger_invalid(self, index: int, round_no: int, streak: int) -> None:
        self.ledger.append("share_invalid", {
            "endpoint": self.endpoints[index].name,
            "round": round_no,
            "streak": streak,
        })

    def _ledger_quarantine(self, index: int, round_no: int, streak: int) -> None:
        self.ledger.append("quarantine", {
            "endpoint": self.endpoints[index].name,
            "round": round_no,
            "streak": streak,
            "until_round": round_no + self.health.quarantine_rounds,
        })

    # -- crash recovery -------------------------------------------------------
    def recover(self) -> int:
        """Replay the journal's in-flight requests into a fresh round.

        Called once after constructing a replacement node over the crashed
        instance's journal: pending requests re-enter the queue (dedup by
        request id) and the flush timer is armed so they get signed.
        Responses route to each request's ``owner`` node.
        """
        replayed = self.service.recover()
        if replayed:
            self._arm_flush_timer()
        return replayed


class ServiceClientNode(Node):
    """A data owner submitting files to the signing service."""

    def __init__(self, name: str, params: SystemParams, service_name: str,
                 credential=None):
        super().__init__(name)
        self.params = params
        self.service_name = service_name
        self.credential = credential
        self.responses: dict[int, SignResponse] = {}
        self.completed: list[int] = []
        self.failed: list[int] = []
        self.latencies: list[float] = []
        self.exemplars: list[tuple[float, int]] = []  # (latency, trace id)
        self._sent_at: dict[int, float] = {}
        self.on("svc_sign_response", self._handle_response)

    def request_for_data(self, data: bytes, file_id: bytes) -> Message:
        """Build a blocks-kind request for ``data`` and address the service."""
        from repro.core.blocks import encode_data

        blocks = tuple(encode_data(data, self.params, file_id))
        request = SignRequest(
            request_id=next_request_id(),
            owner=self.name,
            blocks=blocks,
            credential=self.credential,
            submitted_at=self.sim.now if self.sim else 0.0,
        )
        self._sent_at[request.request_id] = self.sim.now if self.sim else 0.0
        message = self.make_message(self.service_name, "svc_sign_request", request)
        if self.sim is not None:
            self.sim.start_trace(message)  # each request roots its own tree
        return message

    def _handle_response(self, message: Message):
        response: SignResponse = message.payload
        self.responses[response.request_id] = response
        if response.ok:
            self.completed.append(response.request_id)
        else:
            self.failed.append(response.request_id)
        sent = self._sent_at.pop(response.request_id, None)
        if sent is not None and self.sim is not None:
            self.latencies.append(self.sim.now - sent)
            if message.trace is not None:
                self.exemplars.append((self.sim.now - sent, message.trace.trace_id))
        return None


def add_sem_group(sim: Simulator, group, names: list[str], t: int, rng):
    """Key one SEM group and add its SEM nodes to ``sim``.

    One name with ``t = 1`` is the paper's single SEM holding y itself;
    otherwise the ``w = len(names)`` SEMs hold Shamir shares of y with
    threshold ``t`` (Eq. 8).  Returns ``(endpoints, org_pk)``; each key is
    computed once, here or by the dealer.
    """
    from repro.net.actors import SEMNode

    if len(names) == 1 and t == 1:
        sk = group.random_nonzero_scalar(rng)
        pk = group.g1() ** sk
        sim.add_node(SEMNode(names[0], group, sk))
        return [SEMEndpoint(name=names[0], x=1, share_pk=pk)], pk
    shares = distribute_key(group, len(names), t, rng=rng)
    endpoints = []
    for name, share, share_pk in zip(names, shares.shares, shares.share_pks):
        sim.add_node(SEMNode(name, group, share.y))
        endpoints.append(SEMEndpoint(name=name, x=share.x, share_pk=share_pk))
    return endpoints, shares.master_pk


def build_service_network(
    params: SystemParams,
    threshold: int | None = None,
    n_clients: int = 2,
    rng=None,
    batch_config: BatchConfig | None = None,
    failover_config: FailoverConfig | None = None,
    client_service_channel: Channel | None = None,
    service_sem_channel: Channel | None = None,
    journal=None,
    obs=None,
    ledger=None,
) -> tuple[Simulator, SEMServiceNode, list[ServiceClientNode]]:
    """Wire clients → service → SEM(s) into a fresh simulator.

    ``threshold=None`` deploys one SEM; ``threshold=t`` deploys the
    paper's w = 2t − 1 mediators holding Shamir shares.  Returns
    ``(simulator, service_node, client_nodes)``; SEM nodes are reachable
    as ``sim.nodes["sem-j"]`` for fault injection.

    When ``obs`` is given, its tracer is re-clocked to *virtual* time
    (``sim.now``) and its registry mirrors the simulator's per-channel
    traffic and the service's metrics at every scrape.
    """
    group = params.group
    rng = rng or random.Random(0)
    sim = Simulator()
    if ledger is not None:
        ledger.clock = lambda: sim.now
    if obs is not None and obs.enabled:
        obs.observe_group(group)
        obs.tracer.clock = lambda: sim.now
        sim.tracer = obs.tracer  # message deliveries become causal spans
    t = 1 if threshold is None else threshold
    endpoints, org_pk = add_sem_group(
        sim, group, [f"sem-{j}" for j in range(2 * t - 1)], t, rng)
    service = SEMServiceNode(
        "service",
        params,
        endpoints,
        t,
        org_pk,
        batch_config=batch_config,
        failover_config=failover_config,
        rng=rng,
        journal=journal,
        obs=obs,
        ledger=ledger,
    )
    sim.add_node(service)
    if obs is not None and obs.enabled:
        from repro.obs import bind_sim_run

        bind_sim_run(obs.registry, sim, service=service, ledger=ledger)
    clients = []
    for i in range(n_clients):
        client = ServiceClientNode(f"client-{i}", params, "service")
        sim.add_node(client)
        clients.append(client)
        if client_service_channel is not None:
            sim.connect(client.name, "service", client_service_channel.clone())
    if service_sem_channel is not None:
        for endpoint in endpoints:
            sim.connect("service", endpoint.name, service_sem_channel.clone())
    return sim, service, clients
