"""Multi-SEM failover: timeouts, retry-with-backoff, early reconstruction.

Section V's promise is operational: with w = 2t − 1 mediators, signing
succeeds while up to t − 1 of them are crashed, slow, or byzantine.  This
module holds the one owner-side share check and combine:

* :class:`SigningRound` — a sans-I/O state machine for one batch signing
  round.  It consumes events (``on_response``, ``on_timeout``) and emits
  :class:`SendRequest`/:class:`ArmTimer` actions, and completes with
  combined blind signatures **as soon as t valid share batches arrive**
  (Eq. 11–12) — it never waits for stragglers.  With ``batch_verify`` it
  holds the first t batches, combines them, and checks the result once
  against the round key (Eq. 7: 2 pairings for any t); only a rejected
  result sends each batch to its own Eq. 14.  Without it, each share is
  checked on arrival (Eq. 10).  Being pure, the same machine drives the
  synchronous client below, the service node in
  :mod:`repro.service.simnodes`, and the owner node in
  :mod:`repro.net.actors`.
* :class:`FailoverMultiSEMClient` — a drop-in ``sign_blinded_batch``
  transport over callable per-SEM endpoints, for direct library use
  (:meth:`FailoverMultiSEMClient.from_cluster` builds it over a
  :class:`~repro.core.multi_sem.SEMCluster`).

A round's result is final: it passed Eq. 7 against the round key, or
every batch it combined passed Eq. 14 (or Eq. 10), so no driver runs
Eq. 7 on it again.  Each driver checks once, before signing, that
:func:`round_key` is its owner's key, and hands that key to the round.

Endpoint lifecycle within a round::

    IDLE ──send──▶ INFLIGHT ──shares──▶ HELD ──combined result passes──▶ VALID
                    │    ▲         │          └─rejected: own Eq. 14─▶ VALID | INVALID
              timeout    │         └─(after a reject, or Eq. 10) checked on arrival
                    │    └──retry+backoff (attempts < max_attempts)
                    └──attempts exhausted──▶ EXHAUSTED

A short batch is INVALID on arrival.  The round fails only when every
endpoint is resolved and fewer than t are VALID — i.e. exactly when more
than t − 1 SEMs are unavailable, matching the paper's bound — and it
checks the batches it holds first, so each one still gets its verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from repro.crypto.threshold import batch_verify_shares, combine_shares, verify_share
from repro.mathkit.poly import lagrange_basis_at_zero
from repro.obs import NULL_OBS
from repro.pairing.interface import GroupElement, PairingGroup


class InsufficientSharesError(Exception):
    """Fewer than t valid signature shares could be collected."""


class FailoverError(InsufficientSharesError):
    """The round ended with fewer than t valid share batches."""


@dataclass(frozen=True)
class SEMEndpoint:
    """One mediator as seen by the client: identity, key share, transport.

    ``transport`` (``sign_blinded_batch(blinded, credential)``-shaped) is
    used by the synchronous client; simulator nodes address the endpoint
    by ``name`` instead and leave it None.
    """

    name: str
    x: int  # Shamir abscissa of this SEM's key share
    share_pk: GroupElement  # pk_j = g^{y_j}
    transport: object | None = None


def round_key(group: PairingGroup, endpoints: list[SEMEndpoint], t: int) -> GroupElement:
    """The key a :class:`SigningRound` over ``endpoints`` signs for:
    ∏ pk_j^{L_j(0)} over any t of them (Setup′ puts every pk_j on one
    polynomial), here the first t.  Op-count cost: t Exp, none at t = 1."""
    return combine_shares(group, [(e.x, e.share_pk) for e in endpoints[:t]])


@dataclass(frozen=True)
class FailoverConfig:
    """Timeout/retry policy for one signing round.

    ``timeout_s`` bounds one *attempt*; ``round_deadline_s`` bounds the
    whole round — retries, backoffs, and standby activations included — so
    a client facing ≥ t faulty SEMs fails closed within a budget instead
    of grinding through every retry ladder.

    Backoff is decorrelated-jittered by default: each retry sleeps a
    seeded-random duration in ``[backoff_base_s, 3 × previous]`` (capped
    at ``backoff_cap_s``), which desynchronizes the retry bursts that
    identical ``base × factor^(attempt−1)`` ladders produce when several
    endpoints arm at once.  ``backoff_jitter=False`` restores the exact
    exponential ladder (tests assert precise delays through it).
    """

    timeout_s: float = 1.0  # per-attempt response deadline
    max_attempts: int = 3  # total tries per SEM (1 = no retry)
    backoff_base_s: float = 0.25  # delay before the first retry
    backoff_factor: float = 2.0  # multiplier per further retry
    backoff_jitter: bool = True  # decorrelated jitter (opt-out)
    backoff_cap_s: float = 10.0  # upper bound on any one backoff delay
    fanout: int | None = None  # SEMs contacted up front (None = all)
    round_deadline_s: float | None = None  # whole-round budget (None = unbounded)
    quarantine_threshold: int = 1  # invalid batches before the breaker trips
    quarantine_rounds: int = 4  # rounds an endpoint sits out once tripped

    def backoff_s(self, attempt: int) -> float:
        """Jitter-free delay before attempt ``attempt`` (1 = first retry)."""
        return min(
            self.backoff_base_s * (self.backoff_factor ** (attempt - 1)),
            self.backoff_cap_s,
        )


@dataclass(frozen=True)
class SendRequest:
    """Action: (re)send the round's blinded batch to one SEM."""

    endpoint_index: int
    delay_s: float = 0.0  # backoff before sending (0 on first attempt)


@dataclass(frozen=True)
class ArmTimer:
    """Action: consider the in-flight attempt timed out after ``delay_s``."""

    endpoint_index: int
    delay_s: float


@dataclass(frozen=True)
class ArmRoundDeadline:
    """Action: declare the whole round failed after ``delay_s`` (the budget)."""

    delay_s: float


@dataclass
class _EndpointState:
    status: str = "idle"  # idle | inflight | held | valid | invalid | exhausted
    attempts: int = 0
    shares: list | None = None
    backoff_s: float = 0.0  # last jittered backoff (decorrelated state)


@dataclass
class _HealthRecord:
    """Cross-round history of one endpoint, as the scoreboard sees it."""

    invalid_streak: int = 0  # consecutive invalid share batches
    invalid_total: int = 0
    timeouts: int = 0
    successes: int = 0
    quarantined_until: int = 0  # round number; 0 = not quarantined


class HealthScoreboard:
    """Cross-round endpoint health with circuit-breaker quarantine.

    A :class:`SigningRound` forgets everything at round end — an endpoint
    that served byzantine shares (failed Eq. 14) would be re-contacted,
    re-paid-for, and re-rejected every single round.  The scoreboard is the
    round-spanning memory: endpoints whose invalid streak reaches
    ``threshold`` are quarantined for ``quarantine_rounds`` rounds, during
    which new rounds contact them only as a last resort (when fewer than t
    healthy endpoints remain).  When the window lapses the next contact is
    a half-open *probe*: one valid batch clears the record, another invalid
    one re-trips the breaker.
    """

    def __init__(self, n_endpoints: int, threshold: int = 1, quarantine_rounds: int = 4):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if quarantine_rounds < 1:
            raise ValueError("quarantine_rounds must be at least 1")
        self.threshold = threshold
        self.quarantine_rounds = quarantine_rounds
        self.round = 0
        self.records = [_HealthRecord() for _ in range(n_endpoints)]
        self.trips = 0  # breaker activations (quarantine entries)
        self.probes = 0  # half-open re-admissions after a lapsed window
        # Flight-recorder hooks: ``callback(index, round, streak)`` fired on
        # every invalid batch / quarantine trip (the ledger subscribes).
        self.on_invalid: list = []
        self.on_trip: list = []

    @classmethod
    def from_config(cls, n_endpoints: int, config: FailoverConfig) -> "HealthScoreboard":
        return cls(
            n_endpoints,
            threshold=config.quarantine_threshold,
            quarantine_rounds=config.quarantine_rounds,
        )

    # -- round lifecycle -----------------------------------------------------
    def begin_round(self) -> None:
        self.round += 1

    def is_quarantined(self, index: int) -> bool:
        return self.records[index].quarantined_until >= self.round

    @property
    def quarantined_count(self) -> int:
        return sum(1 for i in range(len(self.records)) if self.is_quarantined(i))

    def contact_order(self) -> tuple[list[int], list[int]]:
        """(healthy, quarantined) index lists, original order preserved.

        Endpoints whose quarantine window lapsed are re-admitted as
        half-open probes (counted), so a recovered SEM rejoins the pool.
        """
        healthy: list[int] = []
        quarantined: list[int] = []
        for index, record in enumerate(self.records):
            if record.quarantined_until >= self.round:
                quarantined.append(index)
            else:
                if record.quarantined_until:  # lapsed window: this is a probe
                    record.quarantined_until = 0
                    self.probes += 1
                healthy.append(index)
        return healthy, quarantined

    # -- outcomes ------------------------------------------------------------
    def record_success(self, index: int) -> None:
        record = self.records[index]
        record.successes += 1
        record.invalid_streak = 0
        record.quarantined_until = 0  # a valid batch clears any probe state

    def record_invalid(self, index: int) -> None:
        record = self.records[index]
        record.invalid_streak += 1
        record.invalid_total += 1
        for observer in self.on_invalid:
            observer(index, self.round, record.invalid_streak)
        if record.invalid_streak >= self.threshold and not self.is_quarantined(index):
            record.quarantined_until = self.round + self.quarantine_rounds
            self.trips += 1
            for observer in self.on_trip:
                observer(index, self.round, record.invalid_streak)

    def record_timeout(self, index: int) -> None:
        self.records[index].timeouts += 1

    def summary(self) -> dict:
        """Flat counters for the obs registry and operator dashboards."""
        return {
            "rounds": self.round,
            "quarantined": self.quarantined_count,
            "trips": self.trips,
            "probes": self.probes,
            "invalid_total": sum(r.invalid_total for r in self.records),
            "timeouts": sum(r.timeouts for r in self.records),
        }


class SigningRound:
    """Sans-I/O failover state machine for one batch of blinded messages.

    ``key`` is the key the round signs for, :func:`round_key` over
    ``endpoints`` (each driver passes its ``verified_pk``).
    """

    def __init__(
        self,
        group: PairingGroup,
        endpoints: list[SEMEndpoint],
        t: int,
        blinded: list[GroupElement],
        key: GroupElement,
        config: FailoverConfig | None = None,
        rng=None,
        batch_verify: bool = True,
        obs=None,
        health: HealthScoreboard | None = None,
    ):
        if not 1 <= t <= len(endpoints):
            raise ValueError("need 1 <= t <= number of endpoints")
        self.group = group
        self.endpoints = endpoints
        self.t = t
        self.blinded = list(blinded)
        self.config = config or FailoverConfig()
        self._rng = rng
        # Jitter draws come from a derived stream so backoff randomness and
        # Eq. 14 weights never perturb each other.
        self._jitter_rng = random.Random(
            rng.getrandbits(64) if rng is not None else 0x6A177E12
        )
        self.batch_verify = batch_verify
        self.key = key
        # Hold batches and check their combination once; cleared by a
        # rejected combination (and never set for Eq. 10).
        self._hold = batch_verify
        self.checks = 0  # share-batch checks run (Eq. 7/14, or Eq. 10 per batch)
        self.obs = obs if obs is not None else NULL_OBS
        self.health = health
        self._states = [_EndpointState() for _ in endpoints]
        self._standby: list[int] = []
        self.result: list[GroupElement] | None = None
        self.failed_reason: str | None = None
        self.retries = 0
        self.timeouts = 0
        self.invalid_endpoints = 0
        self.deadline_exceeded = False

    # -- round status -------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.result is not None or self.failed_reason is not None

    @property
    def valid_count(self) -> int:
        return len(self._indices("valid"))

    def _indices(self, status: str) -> list[int]:
        return [i for i, s in enumerate(self._states) if s.status == status]

    @property
    def used_failover(self) -> bool:
        """Whether the round survived at least one failed/slow/bad SEM."""
        return (
            self.retries > 0
            or self.invalid_endpoints > 0
            or any(s.status == "exhausted" for s in self._states)
        )

    # -- events -------------------------------------------------------------
    def start(self) -> list:
        """Initial actions: contact ``fanout`` SEMs, arm their timeouts.

        With a :class:`HealthScoreboard` attached, quarantined endpoints
        are pushed to the back of the standby list: they are contacted
        only when the healthy pool cannot reach t valid batches.  With a
        ``round_deadline_s`` configured, the first action arms the
        whole-round budget timer.
        """
        if self.health is not None:
            self.health.begin_round()
            healthy, quarantined = self.health.contact_order()
        else:
            healthy, quarantined = list(range(len(self.endpoints))), []
        ordered = healthy + quarantined
        fanout = self.config.fanout or max(len(healthy), self.t)
        fanout = min(max(fanout, self.t), len(ordered))
        self._standby = ordered[fanout:]
        actions: list = []
        if self.config.round_deadline_s is not None:
            actions.append(ArmRoundDeadline(delay_s=self.config.round_deadline_s))
        for index in ordered[:fanout]:
            actions.extend(self._send(index, delay_s=0.0))
        return actions

    def on_response(self, endpoint_index: int, shares: list[GroupElement]) -> list:
        """A SEM answered with one signature share per blinded message."""
        state = self._states[endpoint_index]
        if self.done or state.status in ("held", "valid", "invalid", "exhausted"):
            return []  # duplicate or stale: idempotent
        state.shares = list(shares)
        if len(shares) != len(self.blinded):
            self._mark_invalid(endpoint_index)
            return self._activate_standby()
        if self._hold:
            state.status = "held"
            held = self._indices("held")
            if len(held) >= self.t:
                return self._combine_held(held)
        elif self._shares_valid(endpoint_index, shares):
            self._mark_valid(endpoint_index)
            if self.valid_count >= self.t:
                self._complete(self._indices("valid")[: self.t])
                return []
        else:
            self._mark_invalid(endpoint_index)
            return self._activate_standby()
        # This may have been the last unresolved endpoint.
        self._check_for_failure()
        return []

    def on_timeout(self, endpoint_index: int) -> list:
        """The in-flight attempt to one SEM passed its deadline.

        A stale timer — one that fires after the round completed, or after
        its endpoint already resolved — is ignored entirely: no retry, no
        counter increment, no resurrection of a finished round.
        """
        state = self._states[endpoint_index]
        if self.done or state.status != "inflight":
            return []  # answered in the meantime, or already resolved
        self.timeouts += 1
        if self.health is not None:
            self.health.record_timeout(endpoint_index)
        if state.attempts >= self.config.max_attempts:
            state.status = "exhausted"
            return self._activate_standby()
        self.retries += 1
        return self._send(endpoint_index, delay_s=self._backoff(state))

    def on_deadline(self) -> list:
        """The whole-round budget expired: fail closed, now.

        Outstanding retries and unanswered endpoints are abandoned — Eq. 11
        reconstruction needed t valid batches within the budget and did not
        get them, so the round reports failure instead of hanging on the
        tail of its slowest retry ladder.
        """
        if self.done:
            return []
        self.deadline_exceeded = True
        self._check_held()
        self.failed_reason = (
            f"round deadline of {self.config.round_deadline_s}s exceeded with "
            f"{self.valid_count} of the required {self.t} valid share batches"
        )
        return []

    # -- internals ----------------------------------------------------------
    def _backoff(self, state: _EndpointState) -> float:
        """Delay before this endpoint's next retry.

        Decorrelated jitter (default): a seeded-uniform draw from
        ``[base, 3 × previous]`` capped at ``backoff_cap_s``, so endpoints
        that timed out together do not retry in lockstep.  With jitter
        disabled, the exact ``base × factor^(attempt−1)`` ladder.
        """
        if not self.config.backoff_jitter:
            return self.config.backoff_s(state.attempts)
        previous = state.backoff_s or self.config.backoff_base_s
        delay = min(
            self.config.backoff_cap_s,
            self._jitter_rng.uniform(self.config.backoff_base_s, previous * 3.0),
        )
        state.backoff_s = delay
        return delay

    def _send(self, index: int, delay_s: float) -> list:
        state = self._states[index]
        state.status = "inflight"
        state.attempts += 1
        return [
            SendRequest(endpoint_index=index, delay_s=delay_s),
            ArmTimer(endpoint_index=index, delay_s=delay_s + self.config.timeout_s),
        ]

    def _activate_standby(self) -> list:
        """A contacted SEM failed: bring in a never-contacted one, or fail."""
        if self._standby and not self.done:
            return self._send(self._standby.pop(0), delay_s=0.0)
        self._check_for_failure()
        return []

    def _check_for_failure(self) -> None:
        if self.done or any(s.status in ("idle", "inflight") for s in self._states):
            return
        self._check_held()  # the round ends short of t: give each its verdict
        if self.valid_count < self.t:
            self.failed_reason = (
                f"only {self.valid_count} of the required {self.t} SEMs "
                f"returned valid share batches"
            )

    def _mark_valid(self, index: int) -> None:
        self._states[index].status = "valid"
        if self.health is not None:
            self.health.record_success(index)

    def _mark_invalid(self, index: int) -> None:
        self._states[index].status = "invalid"
        self._states[index].shares = None
        self.invalid_endpoints += 1
        if self.health is not None:
            self.health.record_invalid(index)

    def _check_held(self) -> int:
        """Check each held batch on its own; returns how many failed."""
        rejected = 0
        for index in self._indices("held"):
            if self._shares_valid(index, self._states[index].shares):
                self._mark_valid(index)
            else:
                self._mark_invalid(index)
                rejected += 1
        return rejected

    def _shares_valid(self, endpoint_index: int, shares: list[GroupElement]) -> bool:
        """Eq. 14 with one SEM (or Eq. 10 per share) against pk_j."""
        pk = self.endpoints[endpoint_index].share_pk
        if self.batch_verify:
            return self._batch_check(shares, pk)
        self.checks += 1
        return all(
            verify_share(self.group, m, s, pk) for m, s in zip(self.blinded, shares)
        )

    def _batch_check(self, signatures: list[GroupElement], pk: GroupElement) -> bool:
        """One-signer randomized check (Eq. 7/14): n weights, 2n MSM terms, 2 Pair."""
        self.checks += 1
        return batch_verify_shares(
            self.group, self.blinded, {0: signatures}, {0: pk}, rng=self._rng
        )

    def _combine_held(self, held: list[int]) -> list:
        """Combine the t held batches and check the result once (Eq. 7).

        On a pass every held batch is valid and the result is final.  On a
        reject each held batch gets its own Eq. 14, the bad ones activate
        standbys, and later batches are checked on arrival; the first t
        valid ones are then combined with no second check.  (At t ≤ 3
        bisecting would first repeat the check already known to fail.)
        """
        if self._complete(held, check=True):
            for index in held:
                self._mark_valid(index)
            return []
        self._hold = False
        actions: list = []
        for _ in range(self._check_held()):
            actions.extend(self._activate_standby())
        if not self.done and self.valid_count >= self.t:
            self._complete(self._indices("valid")[: self.t])
        return actions

    def _complete(self, chosen: list[int], check: bool = False) -> bool:
        """Eq. 11–12 over the chosen batches; with ``check``, keep the
        result only if it passes Eq. 7 against the round key."""
        xs = [self.endpoints[i].x for i in chosen]
        with self.obs.tracer.span(
            "lagrange.combine", items=len(self.blinded), t=self.t
        ) as span:
            basis = lagrange_basis_at_zero(xs, self.group.order)  # Eq. 11, once
            combined = []
            for item in range(len(self.blinded)):
                pairs = [(xs[pos], self._states[i].shares[item]) for pos, i in enumerate(chosen)]
                combined.append(combine_shares(self.group, pairs, basis=basis))  # Eq. 12
            passed = not check or self._batch_check(combined, self.key)
            span.set(checks=self.checks)
        if passed:
            self.result = combined
        return passed


@dataclass
class FailoverStats:
    """Aggregated over a client's lifetime, for the service metrics."""

    rounds: int = 0
    rounds_with_failover: int = 0
    retries: int = 0
    timeouts: int = 0
    invalid_endpoints: int = 0
    deadlines_exceeded: int = 0


class FailoverMultiSEMClient:
    """Synchronous driver of :class:`SigningRound` over callable endpoints.

    Drop-in for the ``sign_blinded_batch`` transport contract, so a
    :class:`~repro.core.owner.DataOwner` or a
    :class:`~repro.service.pipeline.SigningPipeline` can sit on top of a
    fault-tolerant cluster unchanged.  Endpoint transports signal
    unavailability by raising ``ConnectionError`` (crash) or
    ``TimeoutError`` (deadline missed); both feed the state machine's
    timeout path, triggering retry-with-backoff and standby activation.

    Args:
        group: the pairing group.
        endpoints: the w mediators (with transports set).
        t: reconstruction threshold.
        config: timeout/retry policy.
        sleep: called with the backoff delay before each retry; defaults
            to no-op (virtual time; pass ``time.sleep`` for wall-clock).
    """

    def __init__(
        self,
        group: PairingGroup,
        endpoints: list[SEMEndpoint],
        t: int,
        config: FailoverConfig | None = None,
        rng=None,
        batch_verify: bool = True,
        sleep=None,
        obs=None,
    ):
        if any(e.transport is None for e in endpoints):
            raise ValueError("synchronous client needs a transport per endpoint")
        self.group = group
        self.endpoints = endpoints
        self.t = t
        self.config = config or FailoverConfig()
        self._rng = rng
        self.batch_verify = batch_verify
        self._sleep = sleep or (lambda seconds: None)
        self.stats = FailoverStats()
        self.obs = obs if obs is not None else NULL_OBS
        # Cross-round circuit breaker: endpoints serving invalid shares are
        # quarantined so later rounds stop contacting them up front.
        self.health = HealthScoreboard.from_config(len(endpoints), self.config)

    @cached_property
    def verified_pk(self) -> GroupElement:
        """The key its results are final for (:func:`round_key`)."""
        return round_key(self.group, self.endpoints, self.t)

    @classmethod
    def from_cluster(cls, cluster, config: FailoverConfig | None = None, rng=None,
                     batch_verify: bool = True, sleep=None, obs=None) -> "FailoverMultiSEMClient":
        """Build over an in-memory :class:`~repro.core.multi_sem.SEMCluster`."""
        client = cls(cluster.group, cluster.endpoints(), cluster.t, config=config, rng=rng,
                     batch_verify=batch_verify, sleep=sleep, obs=obs)
        client.verified_pk = cluster.master_pk  # the dealer's pk = g^y
        return client

    def sign_blinded_batch(
        self, blinded_messages: list[GroupElement], credential=None
    ) -> list[GroupElement]:
        """Collect t valid share batches and combine them (Eq. 11–12).

        Raises:
            FailoverError: when more than t − 1 SEMs are unavailable.
        """
        round_ = SigningRound(
            self.group,
            self.endpoints,
            self.t,
            blinded_messages,
            key=self.verified_pk,
            config=self.config,
            rng=self._rng,
            batch_verify=self.batch_verify,
            obs=self.obs,
            health=self.health,
        )
        # The synchronous driver has no timer wheel; the round deadline is
        # enforced against a deterministic elapsed-time model — each backoff
        # sleep costs its delay, each failed attempt costs timeout_s — so a
        # cluster beyond tolerance fails closed within the budget instead of
        # walking every endpoint's full retry ladder.
        deadline = self.config.round_deadline_s
        elapsed = 0.0
        with self.obs.tracer.span(
            "failover.round", n_items=len(blinded_messages), t=self.t,
            n_endpoints=len(self.endpoints),
        ) as span:
            pending = list(round_.start())
            while pending and not round_.done:
                action = pending.pop(0)
                if not isinstance(action, SendRequest):
                    continue  # ArmTimer/ArmRoundDeadline: enforced inline below
                if deadline is not None and elapsed >= deadline:
                    round_.on_deadline()
                    break
                if action.delay_s:
                    self._sleep(action.delay_s)
                    elapsed += action.delay_s
                endpoint = self.endpoints[action.endpoint_index]
                try:
                    shares = endpoint.transport(blinded_messages, credential)
                except (ConnectionError, TimeoutError):
                    elapsed += self.config.timeout_s
                    pending.extend(round_.on_timeout(action.endpoint_index))
                else:
                    pending.extend(round_.on_response(action.endpoint_index, shares))
            span.set(
                retries=round_.retries,
                timeouts=round_.timeouts,
                invalid=round_.invalid_endpoints,
                valid=round_.valid_count,
                quarantined=self.health.quarantined_count,
            )
        self.stats.rounds += 1
        self.stats.retries += round_.retries
        self.stats.timeouts += round_.timeouts
        self.stats.invalid_endpoints += round_.invalid_endpoints
        if round_.deadline_exceeded:
            self.stats.deadlines_exceeded += 1
        if round_.used_failover:
            self.stats.rounds_with_failover += 1
        if round_.result is None:
            round_._check_for_failure()
            raise FailoverError(round_.failed_reason or "signing round did not complete")
        return round_.result
