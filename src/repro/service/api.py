"""The service payload contract: validated requests and typed responses.

Validation-first, fail-fast (the AsyncFlow input-schema discipline): a
:class:`SignRequest` is checked against the system parameters *before* it
touches a queue, so the batching and signing code behind the admission
point never needs defensive checks.  A request is either rejected at the
door with a :class:`RequestValidationError` (turned into a ``REJECTED``
response by the service) or is structurally sound all the way through the
pipeline.

Two request kinds exist because the service fronts two trust boundaries:

* ``blocks`` — the owner-side pipeline: the request carries raw
  :class:`~repro.core.blocks.Block` objects and the service runs the full
  aggregate → blind → sign → verify → unblind pass, returning final
  per-block signatures σ_i.  (This path runs *inside* the owner's trust
  domain — the SEM still only ever sees blinded elements.)
* ``blinded`` — the classic SEM front: the request carries already-blinded
  G1 elements m̃_i and the response returns blind signatures σ̃_i for the
  owner to verify and unblind itself.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.core.blocks import Block
from repro.core.group_mgmt import MemberCredential
from repro.core.params import SystemParams
from repro.pairing.interface import GroupElement


class RequestValidationError(ValueError):
    """A request failed the admission-time contract checks."""


class ResponseStatus(enum.Enum):
    """Terminal status of one signing request."""

    OK = "ok"
    REJECTED = "rejected"  # failed validation or membership
    OVERLOADED = "overloaded"  # bounded queue full (backpressure)
    FAILED = "failed"  # signing error (e.g. failover exhausted)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_request_ids = itertools.count(1)


def next_request_id() -> int:
    """Process-wide unique request identifier."""
    return next(_request_ids)


@dataclass(frozen=True)
class SignRequest:
    """One signing request submitted to the service.

    Exactly one of ``blocks`` / ``blinded`` is set; :meth:`kind` tells the
    pipeline which pass to run.  ``submitted_at`` is stamped by the service
    at admission (virtual time under the simulator, wall-clock otherwise)
    and feeds the queue-wait metric.
    """

    request_id: int
    owner: str
    blocks: tuple[Block, ...] = ()
    blinded: tuple[GroupElement, ...] = ()
    credential: MemberCredential | None = None
    submitted_at: float = 0.0

    @property
    def kind(self) -> str:
        return "blocks" if self.blocks else "blinded"

    @property
    def n_items(self) -> int:
        """Number of signatures this request will produce."""
        return len(self.blocks) or len(self.blinded)

    def validate(self, params: SystemParams) -> None:
        """Fail-fast structural checks against the system parameters.

        Raises:
            RequestValidationError: on any contract violation.

        >>> SignRequest(request_id=1, owner="alice").validate(None)
        Traceback (most recent call last):
            ...
        repro.service.api.RequestValidationError: a request carries either blocks or blinded elements, not both/neither
        """
        if bool(self.blocks) == bool(self.blinded):
            raise RequestValidationError(
                "a request carries either blocks or blinded elements, not both/neither"
            )
        if not self.owner:
            raise RequestValidationError("owner name must be non-empty")
        for block in self.blocks:
            if not isinstance(block, Block):
                raise RequestValidationError(f"not a Block: {block!r}")
            if len(block.elements) != params.k:
                raise RequestValidationError(
                    f"block {block.block_id!r} has {len(block.elements)} elements, "
                    f"expected k={params.k}"
                )
            if any(not 0 <= m < params.order for m in block.elements):
                raise RequestValidationError(
                    f"block {block.block_id!r} has elements outside Z_p"
                )
        for element in self.blinded:
            if not isinstance(element, GroupElement):
                raise RequestValidationError("blinded elements must live in G1")
            if element.group is not params.group and element.group != params.group:
                raise RequestValidationError("blinded element from a foreign group")


@dataclass(frozen=True)
class SignResponse:
    """The service's answer to one :class:`SignRequest`.

    ``signatures`` holds final σ_i for ``blocks`` requests and blind σ̃_i
    for ``blinded`` requests; it is ``None`` unless ``status`` is ``OK``.
    The timing fields are measured by the service and let clients observe
    queueing delay separately from signing work.
    """

    request_id: int
    status: ResponseStatus
    signatures: tuple[GroupElement, ...] | None = None
    error: str | None = None
    queue_wait_s: float = 0.0
    service_time_s: float = 0.0
    batch_size: int = 0

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK


@dataclass
class RequestEnvelope:
    """Internal queue entry: the request plus its completion callback."""

    request: SignRequest
    on_complete: object | None = None  # callable(SignResponse) or None
    enqueued_at: float = 0.0
    response: SignResponse | None = field(default=None)
