"""The four paper entities as message-driven simulator nodes.

Message flow (Figure 1 of the paper):

    owner    --sign_request(blinded)-->      SEM(s)
    SEM      --sign_response(σ̃)-->           owner          (1)+(2)
    owner    --upload(blocks, σ)-->          cloud
    verifier --challenge(C)-->               cloud           (3)
    cloud    --proof(R)-->                   verifier        (4)

:func:`build_protocol_network` wires a complete deployment (single- or
multi-SEM) into a :class:`~repro.net.simulator.Simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import Block, encode_data
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner, SignedFile
from repro.core.params import SystemParams
from repro.core.verifier import PublicVerifier
from repro.net.channel import Channel
from repro.net.message import Message
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.service.failover import ArmTimer, FailoverConfig, SendRequest, SigningRound, round_key


@dataclass
class _PendingUpload:
    file_id: bytes
    blocks: list[Block]
    states: list
    round: SigningRound
    inflight: dict[int, int] = field(default_factory=dict)  # msg_id -> endpoint index
    timer_ids: list = field(default_factory=list)  # cancelled once they are moot
    upload_retries: int = 0
    signed: SignedFile | None = None

    @property
    def retries(self) -> int:
        """Signing re-asks plus upload retransmits."""
        return self.round.retries + self.upload_retries


class SEMNode(Node):
    """A mediator node answering sign_request with sign_response.

    Failure injection for service-layer experiments: ``crash()`` makes the
    node fail-silent (inherited), ``fail_mode="byzantine"`` returns
    well-formed shares under a perturbed key, and ``service_delay_s``
    models a slow mediator — replies are deferred by that much virtual
    time, which is how failover timeouts get exercised without losing the
    message.
    """

    def __init__(self, name: str, group, sk: int, service_delay_s: float = 0.0):
        super().__init__(name)
        self.group = group
        self._sk = sk
        self.fail_mode: str | None = None  # None | "byzantine"
        self.service_delay_s = service_delay_s
        self.signed_batches = 0
        self.on("sign_request", self._handle_sign_request)

    def _handle_sign_request(self, message: Message):
        blinded = message.payload
        sk = self._sk
        if self.fail_mode == "byzantine":
            sk = (self._sk + 1) % self.group.order
        signatures = [m**sk for m in blinded]
        self.signed_batches += 1
        reply = self.make_message(
            message.sender, "sign_response", signatures, reply_to=message.msg_id
        )
        if self.service_delay_s > 0 and self.sim is not None:
            self.sim.schedule(self.service_delay_s, lambda r=reply: r)
            return None
        return reply


class OwnerNode(Node):
    """A data owner: blinds blocks, collects signatures, uploads.

    Blinding and unblinding are its :class:`~repro.core.owner.DataOwner`'s
    steps, through that owner's fixed-base tables.

    ``endpoints`` name each SEM with its Shamir abscissa and share public
    key (:class:`~repro.service.failover.SEMEndpoint`).  Each upload runs
    one :class:`~repro.service.failover.SigningRound`: the first
    ``threshold`` share batches are interpolated and the result is checked
    once against ``verified_pk`` (with one SEM, t = 1 and the basis is
    [1]).  The result is final (no second Eq. 7); a round key other than
    ``org_pk`` raises :class:`~repro.crypto.blind_bls.BlindSignatureError`
    here.

    With ``retry_timeout_s`` set, an unanswered SEM is re-asked every
    ``retry_timeout_s`` up to ``max_retries`` times, and an upload whose
    ack does not arrive is retransmitted on the same cadence and bound.
    A round that ends with an invalid share batch raises ``ValueError``;
    one that ends only for want of answers stalls, and nothing reaches
    the cloud.
    """

    def __init__(
        self,
        name: str,
        params: SystemParams,
        org_pk,
        endpoints: list,
        threshold: int = 1,
        cloud_name: str = "cloud",
        rng=None,
        retry_timeout_s: float | None = None,
        max_retries: int = 3,
    ):
        super().__init__(name)
        self.params = params
        self.group = params.group
        self.endpoints = list(endpoints)
        self.sem_names = [endpoint.name for endpoint in self.endpoints]
        self.threshold = threshold
        self.cloud_name = cloud_name
        self._rng = rng
        self.owner = DataOwner(params, org_pk, rng=rng)
        self.verified_pk = round_key(self.group, self.endpoints, threshold)
        self.owner.trusts(self)
        self.retry_timeout_s = retry_timeout_s
        self.max_retries = max_retries
        # A fixed re-ask cadence: no backoff, no jitter.
        self.failover_config = FailoverConfig(
            timeout_s=retry_timeout_s or 0.0,
            max_attempts=max_retries + 1,
            backoff_base_s=0.0,
            backoff_jitter=False,
        )
        self._pending: _PendingUpload | None = None
        self.completed_uploads: list[bytes] = []
        self.on("sign_response", self._handle_sign_response)
        self.on("upload_ack", self._handle_upload_ack)

    def start_upload(self, data: bytes, file_id: bytes) -> list[Message]:
        """Blind all blocks and produce sign_request messages for the SEMs."""
        if self._pending is not None:
            raise RuntimeError("an upload is already in flight")
        blocks = encode_data(data, self.params, file_id)
        states = self.owner.blind_all(blocks)
        round_ = SigningRound(self.group, self.endpoints, self.threshold,
                              [s.blinded for s in states], key=self.verified_pk,
                              config=self.failover_config, rng=self._rng)
        self._pending = _PendingUpload(file_id, blocks, states, round_)
        return self._perform(self._pending, round_.start())

    # -- the signing round ---------------------------------------------------
    def _perform(self, pending: _PendingUpload, actions) -> list[Message]:
        """Map round actions onto sign_requests (backoff is zero, so every
        send is immediate) and re-ask timers."""
        out = []
        for action in actions:
            if isinstance(action, SendRequest):
                endpoint = self.endpoints[action.endpoint_index]
                message = self.make_message(endpoint.name, "sign_request",
                                            pending.round.blinded)
                # Responses carry reply_to=msg_id; this maps them back.
                pending.inflight[message.msg_id] = action.endpoint_index
                out.append(message)
            elif (isinstance(action, ArmTimer) and self.retry_timeout_s is not None
                  and self.sim is not None):
                pending.timer_ids.append(self.sim.schedule(
                    action.delay_s,
                    lambda i=action.endpoint_index: self._on_sign_timeout(pending, i),
                ))
        return out

    def _on_sign_timeout(self, pending: _PendingUpload, endpoint_index: int):
        if self._pending is not pending:
            return None
        return self._advance(pending, pending.round.on_timeout(endpoint_index))

    def _handle_sign_response(self, message: Message):
        pending = self._pending
        if pending is None:
            return None
        endpoint_index = pending.inflight.pop(message.reply_to, None)
        if endpoint_index is None:
            return None  # stray, duplicate, or not asked by this upload
        return self._advance(pending,
                             pending.round.on_response(endpoint_index, message.payload))

    def _advance(self, pending: _PendingUpload, actions):
        """Send the round's actions; on completion unblind and upload."""
        out = self._perform(pending, actions)
        round_ = pending.round
        if round_.done and pending.signed is None:
            # A finished round must not leave re-ask timers behind.
            self._cancel_timers(pending)
        if round_.failed_reason is not None and round_.invalid_endpoints:
            self._pending = None
            raise ValueError(f"signing round failed at owner: {round_.failed_reason}")
        if round_.result is None or pending.signed is not None:
            return out or None
        signatures = tuple(self.owner.unblind_all(pending.states, round_.result))
        pending.signed = SignedFile(
            file_id=pending.file_id, blocks=tuple(pending.blocks), signatures=signatures
        )
        self._arm_upload_timer(pending)
        out.append(self.make_message(self.cloud_name, "upload", pending.signed))
        return out

    def _cancel_timers(self, pending: _PendingUpload) -> None:
        for timer_id in pending.timer_ids:
            self.sim.cancel_timer(timer_id)
        pending.timer_ids.clear()

    # -- upload retransmission (tolerates a lost ack) ---------------------------
    def _arm_upload_timer(self, pending: _PendingUpload) -> None:
        if self.retry_timeout_s is not None and self.sim is not None:
            pending.timer_ids.append(self.sim.schedule(
                self.retry_timeout_s, lambda: self._on_upload_timeout(pending)))

    def _on_upload_timeout(self, pending: _PendingUpload):
        if self._pending is not pending or pending.upload_retries >= self.max_retries:
            return None
        pending.upload_retries += 1
        self._arm_upload_timer(pending)
        return self.make_message(self.cloud_name, "upload", pending.signed)

    def _handle_upload_ack(self, message: Message):
        if self._pending is not None and message.payload == self._pending.file_id:
            self.completed_uploads.append(self._pending.file_id)
            self._cancel_timers(self._pending)
            self._pending = None
        return None


class CloudNode(Node):
    """The cloud server: stores uploads, answers challenges."""

    def __init__(self, name: str, server: CloudServer):
        super().__init__(name)
        self.server = server
        self.on("upload", self._handle_upload)
        self.on("challenge", self._handle_challenge)

    def _handle_upload(self, message: Message):
        signed: SignedFile = message.payload
        self.server.store(signed)
        return self.make_message(message.sender, "upload_ack", signed.file_id)

    def _handle_challenge(self, message: Message):
        file_id, challenge = message.payload
        response = self.server.generate_proof(file_id, challenge)
        return self.make_message(message.sender, "proof", (file_id, challenge, response))


class VerifierNode(Node):
    """A public verifier issuing challenges and checking proofs."""

    def __init__(self, name: str, verifier: PublicVerifier, cloud_name: str = "cloud"):
        super().__init__(name)
        self.verifier = verifier
        self.cloud_name = cloud_name
        self.audit_results: dict[bytes, bool] = {}
        self.on("proof", self._handle_proof)

    def start_audit(self, file_id: bytes, n_blocks: int, sample_size: int | None = None) -> Message:
        challenge = self.verifier.generate_challenge(file_id, n_blocks, sample_size=sample_size)
        return self.make_message(self.cloud_name, "challenge", (file_id, challenge))

    def _handle_proof(self, message: Message):
        file_id, challenge, response = message.payload
        self.audit_results[file_id] = self.verifier.verify(challenge, response)
        return None


def build_protocol_network(
    params: SystemParams,
    threshold: int | None = None,
    rng=None,
    owner_sem_channel: Channel | None = None,
    verifier_cloud_channel: Channel | None = None,
    retry_timeout_s: float | None = None,
    max_retries: int = 3,
) -> tuple[Simulator, OwnerNode, VerifierNode]:
    """Wire a complete deployment into a fresh simulator.

    Returns ``(simulator, owner_node, verifier_node)``; SEM and cloud nodes
    are reachable through ``simulator.nodes``.
    """
    from repro.service.simnodes import add_sem_group

    sim = Simulator()
    t = 1 if threshold is None else threshold
    endpoints, org_pk = add_sem_group(
        sim, params.group, [f"sem-{j}" for j in range(2 * t - 1)], t, rng)
    cloud = CloudNode("cloud", CloudServer(params, org_pk=org_pk, rng=rng))
    owner = OwnerNode(
        "owner",
        params,
        org_pk,
        endpoints,
        threshold=t,
        rng=rng,
        retry_timeout_s=retry_timeout_s,
        max_retries=max_retries,
    )
    verifier = VerifierNode("verifier", PublicVerifier(params, org_pk, rng=rng))
    sim.add_node(cloud)
    sim.add_node(owner)
    sim.add_node(verifier)
    if owner_sem_channel is not None:
        for name in owner.sem_names:
            sim.connect("owner", name, owner_sem_channel)
    if verifier_cloud_channel is not None:
        sim.connect("verifier", "cloud", verifier_cloud_channel)
    return sim, owner, verifier
