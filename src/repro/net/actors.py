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

from dataclasses import dataclass

from repro.core.blocks import Block, encode_data
from repro.core.cloud import CloudServer
from repro.core.owner import SignedFile
from repro.core.params import SystemParams
from repro.core.verifier import PublicVerifier
from repro.crypto.blind_bls import batch_unblind_verify, blind, unblind
from repro.crypto.threshold import combine_shares, verify_share
from repro.mathkit.poly import lagrange_basis_at_zero
from repro.net.channel import Channel
from repro.net.message import Message
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.core.blocks import aggregate_block


@dataclass
class _PendingUpload:
    file_id: bytes
    blocks: list[Block]
    states: list
    shares: dict[str, list]  # sem name -> blind signature list
    uploaded: bool = False
    retries: int = 0
    signed: SignedFile | None = None


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
        self.pk = group.g2() ** sk
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

    ``endpoints`` name each SEM with its Shamir abscissa and share public
    key (:class:`~repro.service.failover.SEMEndpoint`); with more than one,
    the first ``threshold`` shares that verify are interpolated.
    """

    def __init__(
        self,
        name: str,
        params: SystemParams,
        org_pk,
        org_pk_g1,
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
        self.org_pk = org_pk
        self.org_pk_g1 = org_pk_g1
        self.endpoints = {endpoint.name: endpoint for endpoint in endpoints}
        self.sem_names = list(self.endpoints)
        self.threshold = threshold
        self.cloud_name = cloud_name
        self._rng = rng
        self.retry_timeout_s = retry_timeout_s
        self.max_retries = max_retries
        self._pending: _PendingUpload | None = None
        self.completed_uploads: list[bytes] = []
        self.on("sign_response", self._handle_sign_response)
        self.on("upload_ack", self._handle_upload_ack)

    def start_upload(self, data: bytes, file_id: bytes) -> list[Message]:
        """Blind all blocks and produce sign_request messages for the SEMs."""
        if self._pending is not None:
            raise RuntimeError("an upload is already in flight")
        blocks = encode_data(data, self.params, file_id)
        states = [
            blind(self.group, aggregate_block(self.params, block), self._rng)
            for block in blocks
        ]
        self._pending = _PendingUpload(
            file_id=file_id, blocks=blocks, states=states, shares={}
        )
        blinded = [s.blinded for s in states]
        self._arm_retry_timer()
        return [
            self.make_message(sem, "sign_request", blinded) for sem in self.sem_names
        ]

    # -- retransmission (tolerates lossy channels) ---------------------------
    def _arm_retry_timer(self) -> None:
        if self.retry_timeout_s is not None and self.sim is not None:
            self.sim.schedule(self.retry_timeout_s, self._on_retry_timeout)

    def _on_retry_timeout(self):
        pending = self._pending
        if pending is None or pending.retries >= self.max_retries:
            return None
        pending.retries += 1
        self._arm_retry_timer()
        blinded = [s.blinded for s in pending.states]
        if not pending.uploaded:
            # Re-request signatures from SEMs that have not answered yet.
            missing = [s for s in self.sem_names if s not in pending.shares]
            if missing:
                return [self.make_message(s, "sign_request", blinded) for s in missing]
            return None
        # Signatures are in but the upload_ack never arrived: retransmit.
        return self._build_upload_message(pending)

    def _handle_sign_response(self, message: Message):
        pending = self._pending
        if pending is None or pending.uploaded:
            return None
        pending.shares[message.sender] = message.payload
        if len(pending.shares) < self.threshold:
            return None
        blinded = [s.blinded for s in pending.states]
        if len(self.sem_names) == 1:
            blind_signatures = pending.shares[self.sem_names[0]]
        else:
            blind_signatures = self._combine(blinded, pending.shares)
            if blind_signatures is None:
                return None  # wait for more shares
        if not batch_unblind_verify(self.group, blinded, blind_signatures, self.org_pk, self._rng):
            raise ValueError("batch verification failed at owner")
        signatures = tuple(
            unblind(self.group, s, bs, self.org_pk, pk1=self.org_pk_g1, check=False)
            for s, bs in zip(pending.states, blind_signatures)
        )
        pending.signed = SignedFile(
            file_id=pending.file_id, blocks=tuple(pending.blocks), signatures=signatures
        )
        pending.uploaded = True
        return self._build_upload_message(pending)

    def _build_upload_message(self, pending: _PendingUpload) -> Message:
        return self.make_message(self.cloud_name, "upload", pending.signed)

    def _combine(self, blinded, shares_by_sem):
        """Pick t SEMs whose shares all verify, then interpolate."""
        valid = [
            name for name, shares in shares_by_sem.items()
            if all(verify_share(self.group, m, s, self.endpoints[name].share_pk)
                   for m, s in zip(blinded, shares))
        ]
        if len(valid) < self.threshold:
            return None
        chosen = valid[: self.threshold]
        xs = [self.endpoints[name].x for name in chosen]
        basis = lagrange_basis_at_zero(xs, self.group.order)
        combined = []
        for i in range(len(blinded)):
            pairs = [(xs[pos], shares_by_sem[name][i]) for pos, name in enumerate(chosen)]
            combined.append(combine_shares(self.group, pairs, basis=basis))
        return combined

    def _handle_upload_ack(self, message: Message):
        if self._pending is not None and message.payload == self._pending.file_id:
            self.completed_uploads.append(self._pending.file_id)
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
    endpoints, org_pk, org_pk_g1 = add_sem_group(
        sim, params.group, [f"sem-{j}" for j in range(2 * t - 1)], t, rng)
    cloud = CloudNode("cloud", CloudServer(params, org_pk=org_pk, rng=rng))
    owner = OwnerNode(
        "owner",
        params,
        org_pk,
        org_pk_g1,
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
