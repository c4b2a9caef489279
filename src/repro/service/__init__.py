"""SEM signing service layer.

The paper's SEM is an organizational *server*: every member routes every
block through it (Section III), so under the ROADMAP's target workload the
mediator is the throughput- and availability-critical component.  This
package wraps the library-level :class:`~repro.core.sem.SecurityMediator`
and :mod:`~repro.crypto.blind_bls` primitives in a service:

* :mod:`repro.service.api` — validated ``SignRequest``/``SignResponse``
  payload contract (fail-fast, AsyncFlow-style);
* :mod:`repro.service.queues` — bounded admission queues with explicit
  backpressure policies;
* :mod:`repro.service.pipeline` — the vectorized blind-sign pass that
  amortizes fixed-base precomputation and Eq. 7 batch verification across
  a whole batch, aggregating blocks in-process (the repo's one process
  pool is :class:`~repro.core.parallel.WorkerPool`);
* :mod:`repro.service.batcher` — the batch aggregator that coalesces
  pending requests into signing passes;
* :mod:`repro.service.failover` — multi-SEM client with per-SEM timeouts,
  jittered retry-with-backoff, a whole-round deadline budget, cross-round
  byzantine-endpoint quarantine, and Lagrange reconstruction as soon as t
  shares arrive (Section V's t−1 fault tolerance);
* :mod:`repro.service.cloud_health` — the scoreboard pattern extended
  from mediators to cloud *servers*: named endpoints whose audit
  timeouts trip the quarantine breaker like failed proofs (the fleet
  store's health authority);
* :mod:`repro.service.journal` — append-only signing journal: a crashed
  service instance replays its in-flight requests idempotently on restart;
* :mod:`repro.service.simnodes` — the service as discrete-event simulator
  nodes, so seeded experiments can inject latency, drops, and SEM crashes;
* :mod:`repro.service.metrics` — queue depth, batch-size histogram, and
  p50/p99 latency, exported through the accounting path.
"""

from repro.service.api import (
    RequestValidationError,
    ResponseStatus,
    SignRequest,
    SignResponse,
)
from repro.service.batcher import BatchConfig, BatchingSEMService
from repro.service.cloud_health import CloudScoreboard
from repro.service.failover import (
    FailoverConfig,
    FailoverError,
    FailoverMultiSEMClient,
    HealthScoreboard,
    SEMEndpoint,
    SigningRound,
)
from repro.service.journal import JournalError, SigningJournal
from repro.service.metrics import ServiceMetrics
from repro.service.pipeline import SigningPipeline
from repro.service.queues import BoundedQueue, QueueFullError
from repro.service.simnodes import (
    SEMServiceNode,
    ServiceClientNode,
    build_service_network,
)

__all__ = [
    "BatchConfig",
    "BatchingSEMService",
    "BoundedQueue",
    "CloudScoreboard",
    "FailoverConfig",
    "FailoverError",
    "FailoverMultiSEMClient",
    "HealthScoreboard",
    "JournalError",
    "QueueFullError",
    "RequestValidationError",
    "ResponseStatus",
    "SEMEndpoint",
    "SEMServiceNode",
    "ServiceClientNode",
    "ServiceMetrics",
    "SigningJournal",
    "SigningPipeline",
    "SigningRound",
    "SignRequest",
    "SignResponse",
    "build_service_network",
]
