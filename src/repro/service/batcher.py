"""The batch aggregator: coalesce pending requests into signing passes.

:class:`BatchingSEMService` is the service's admission-and-dispatch core.
It is deliberately **poll-driven and sans-I/O**: callers submit validated
requests into a bounded queue, and some driver — a simulator node's flush
timer (:mod:`repro.service.simnodes`), a benchmark loop, the CLI — decides
*when* to call :meth:`flush`.  A flush is due when either

* ``max_batch`` requests are waiting (size trigger), or
* the oldest waiting request has aged ``max_wait_s`` (latency trigger),

the classic throughput/latency coalescing trade: large batches amortize
the pipeline's fixed costs (one transport round trip, 2 Eq. 7 pairings,
table-driven exponentiations), the wait bound keeps p99 latency finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import SystemParams
from repro.service.api import (
    RequestEnvelope,
    RequestValidationError,
    ResponseStatus,
    SignRequest,
    SignResponse,
)
from repro.service.failover import InsufficientSharesError
from repro.service.metrics import ServiceMetrics
from repro.service.pipeline import PipelineError, SigningPipeline
from repro.service.queues import BoundedQueue, QueueFullError


@dataclass(frozen=True)
class BatchConfig:
    """Coalescing and admission policy of one service instance."""

    max_batch: int = 64  # requests per signing pass
    max_wait_s: float = 0.05  # age bound on the oldest queued request
    queue_capacity: int = 1024
    queue_policy: str = "reject"

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")


def _same_payload(a: SignRequest, b: SignRequest) -> bool:
    """Whether two requests ask for the same signatures from the same owner."""
    return (a.owner, a.blocks, a.blinded) == (b.owner, b.blocks, b.blinded)


class BatchingSEMService:
    """Bounded queue + batch aggregator in front of a signing pipeline.

    Args:
        params: system parameters (requests are validated against them).
        pipeline: the vectorized signing pass.
        config: batching and admission policy.
        membership: optional callable ``credential -> bool``; when set,
            requests failing it are rejected at the door (the service
            enforces the SEM's member list before queueing work).
        clock: returns the current time — virtual under the simulator,
            ``time.monotonic``-like otherwise.  Queue-wait and latency
            metrics are measured with it.
        journal: optional :class:`~repro.service.journal.SigningJournal`.
            When set, admitted requests are journaled before queueing and
            terminal responses afterwards, so a crashed service instance
            can :meth:`recover` its in-flight requests; re-submitting an
            already-completed request returns the journaled response
            without re-signing (exactly-once per request), while reusing
            a journaled id for another owner or payload is rejected.
        obs: observability bundle; defaults to the pipeline's, so one
            bundle wired at pipeline construction covers the whole service.
    """

    def __init__(
        self,
        params: SystemParams,
        pipeline: SigningPipeline,
        config: BatchConfig | None = None,
        membership=None,
        clock=None,
        metrics: ServiceMetrics | None = None,
        journal=None,
        obs=None,
    ):
        self.params = params
        self.pipeline = pipeline
        self.config = config or BatchConfig()
        self.membership = membership
        self.clock = clock or (lambda: 0.0)
        self.metrics = metrics or ServiceMetrics()
        self.journal = journal
        self._inflight_ids: set[int] = set()  # queued/signing in THIS process
        self.obs = obs if obs is not None else pipeline.obs
        self.queue = BoundedQueue(
            self.config.queue_capacity, policy=self.config.queue_policy
        )

    # -- admission ----------------------------------------------------------
    def submit(self, request: SignRequest, on_complete=None) -> SignResponse | None:
        """Admit one request.

        Returns a terminal :class:`SignResponse` immediately when the
        request is rejected (validation, membership) or bounced
        (backpressure); returns ``None`` when the request is queued — its
        response is produced by a later :meth:`flush` and handed to
        ``on_complete`` (when given) as well as returned from that flush.
        """
        now = self.clock()
        if self.journal is not None:
            journaled = self.journal.accepted_request(request.request_id)
            if journaled is not None and not _same_payload(journaled, request):
                # Ids are only unique per client process: a reused id for
                # other data must never be answered with the old signatures.
                self.metrics.rejected += 1
                return SignResponse(
                    request_id=request.request_id,
                    status=ResponseStatus.REJECTED,
                    error=f"request id {request.request_id} is journaled "
                          "for a different request",
                )
            cached = self.journal.completed_response(request.request_id)
            if cached is not None:
                return cached  # exactly-once: already signed, replay the reply
            if request.request_id in self._inflight_ids:
                return None  # duplicate of a request already queued/signing
        try:
            request.validate(self.params)
        except RequestValidationError as exc:
            self.metrics.rejected += 1
            return SignResponse(
                request_id=request.request_id,
                status=ResponseStatus.REJECTED,
                error=str(exc),
            )
        if self.membership is not None and not self.membership(request.credential):
            self.metrics.rejected += 1
            return SignResponse(
                request_id=request.request_id,
                status=ResponseStatus.REJECTED,
                error="credential is not an enrolled member",
            )
        envelope = RequestEnvelope(request=request, on_complete=on_complete, enqueued_at=now)
        try:
            evicted = self.queue.put(envelope)
        except QueueFullError as exc:
            self.metrics.overloaded += 1
            return SignResponse(
                request_id=request.request_id,
                status=ResponseStatus.OVERLOADED,
                error=str(exc),
            )
        self.metrics.on_enqueue(self.queue.depth)
        if self.journal is not None:
            self.journal.record_accepted(request)
            self._inflight_ids.add(request.request_id)
        if evicted is not None:
            # drop-oldest policy: the displaced request fails loudly.
            self._finish(
                evicted,
                SignResponse(
                    request_id=evicted.request.request_id,
                    status=ResponseStatus.OVERLOADED,
                    error="evicted by a newer request (drop-oldest backpressure)",
                ),
            )
        return None

    # -- dispatch -----------------------------------------------------------
    def batch_ready(self) -> bool:
        """Whether a flush is due by size or by the age of the head entry."""
        if self.queue.depth >= self.config.max_batch:
            return True
        oldest = self.queue.peek_oldest()
        if oldest is None:
            return False
        return (self.clock() - oldest.enqueued_at) >= self.config.max_wait_s

    def flush(self, force: bool = True) -> list[SignResponse]:
        """Run one signing pass over up to ``max_batch`` queued requests.

        With ``force=False`` the flush is skipped unless
        :meth:`batch_ready`; drivers call that from periodic timers.
        """
        if not force and not self.batch_ready():
            return []
        envelopes = self.queue.take(self.config.max_batch)
        if not envelopes:
            return []
        now = self.clock()
        self.metrics.on_batch(len(envelopes), self.queue.depth)
        requests = [e.request for e in envelopes]
        try:
            with self.obs.tracer.span(
                "batch.flush", batch_size=len(envelopes), queue_depth=self.queue.depth
            ):
                results = self.pipeline.sign_batch(requests)
        except (PipelineError, InsufficientSharesError, ConnectionError) as exc:
            self.metrics.failed += len(envelopes)
            responses = [
                SignResponse(
                    request_id=e.request.request_id,
                    status=ResponseStatus.FAILED,
                    error=str(exc),
                    queue_wait_s=now - e.enqueued_at,
                    batch_size=len(envelopes),
                )
                for e in envelopes
            ]
            for envelope, response in zip(envelopes, responses):
                self._finish(envelope, response)
            return responses
        after = self.clock()
        responses = []
        for envelope, result in zip(envelopes, results):
            queue_wait = now - envelope.enqueued_at
            if result.ok:
                response = SignResponse(
                    request_id=result.request_id,
                    status=ResponseStatus.OK,
                    signatures=result.signatures,
                    queue_wait_s=queue_wait,
                    service_time_s=after - now,
                    batch_size=len(envelopes),
                )
                self.metrics.on_complete(
                    len(result.signatures), queue_wait, after - now
                )
            else:
                self.metrics.failed += 1
                response = SignResponse(
                    request_id=result.request_id,
                    status=ResponseStatus.FAILED,
                    error=result.error,
                    queue_wait_s=queue_wait,
                    service_time_s=after - now,
                    batch_size=len(envelopes),
                )
            self._finish(envelope, response)
            responses.append(response)
        self._record_failover_stats()
        return responses

    def drain(self) -> list[SignResponse]:
        """Flush until the queue is empty; returns all responses."""
        responses = []
        while self.queue.depth:
            responses.extend(self.flush())
        return responses

    # -- recovery -----------------------------------------------------------
    def recover(self) -> int:
        """Re-queue the journal's in-flight requests after a restart.

        Requests are enqueued directly — admission (validation and
        membership) already passed before their ``accepted`` record was
        written, and re-running the membership check would require the
        original credential, which the journal deliberately does not
        persist.  Returns the number of requests replayed.  Idempotent:
        ids already in flight in this process are skipped.
        """
        if self.journal is None:
            return 0
        replayed = 0
        now = self.clock()
        for request in self.journal.pending():
            if request.request_id in self._inflight_ids:
                continue
            self.queue.put(RequestEnvelope(request=request, enqueued_at=now))
            self._inflight_ids.add(request.request_id)
            self.metrics.on_enqueue(self.queue.depth)
            replayed += 1
        self.journal.replayed += replayed
        return replayed

    # -- internals ----------------------------------------------------------
    def _finish(self, envelope: RequestEnvelope, response: SignResponse) -> None:
        envelope.response = response
        if self.journal is not None:
            self.journal.record_terminal(response)
            self._inflight_ids.discard(response.request_id)
        if envelope.on_complete is not None:
            envelope.on_complete(response)

    def _record_failover_stats(self) -> None:
        stats = getattr(self.pipeline.sem, "stats", None)
        if stats is not None and hasattr(stats, "rounds_with_failover"):
            self.metrics.retries = stats.retries
            self.metrics.failovers = stats.rounds_with_failover
