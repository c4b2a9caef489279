"""The failover state machine and its synchronous driver (Section V)."""

import pytest

from repro.core.blocks import aggregate_block
from repro.core.multi_sem import SEMCluster
from repro.crypto.blind_bls import blind
from repro.service.failover import (
    ArmTimer,
    FailoverConfig,
    FailoverError,
    FailoverMultiSEMClient,
    SendRequest,
    SigningRound,
)


@pytest.fixture()
def cluster(group, rng):
    """w = 5 SEMs, threshold t = 3: tolerates 2 failures."""
    return SEMCluster(group, t=3, rng=rng, require_membership=False)


@pytest.fixture()
def blinded(group, params_k4, make_request, rng):
    request = make_request(b"f", n_blocks=3)
    return [
        blind(group, aggregate_block(params_k4, b), rng).blinded
        for b in request.blocks
    ]


def make_round(cluster, blinded, rng, **config):
    return SigningRound(
        cluster.group,
        cluster.endpoints(),
        cluster.t,
        blinded,
        config=FailoverConfig(**config),
        rng=rng,
    )


def shares_from(cluster, index, blinded):
    return cluster.sems[index].sign_blinded_batch(blinded)


class TestSigningRound:
    def test_start_contacts_fanout_and_arms_timers(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng, fanout=3, timeout_s=0.5)
        actions = round_.start()
        sends = [a for a in actions if isinstance(a, SendRequest)]
        timers = [a for a in actions if isinstance(a, ArmTimer)]
        assert [s.endpoint_index for s in sends] == [0, 1, 2]
        assert all(t.delay_s == 0.5 for t in timers)

    def test_fanout_is_clamped_to_at_least_t(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng, fanout=1)
        sends = [a for a in round_.start() if isinstance(a, SendRequest)]
        assert len(sends) == cluster.t

    def test_completes_at_exactly_t_valid_responses(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng)
        round_.start()
        for j in range(cluster.t):
            round_.on_response(j, shares_from(cluster, j, blinded))
        assert round_.done and round_.result is not None
        # Combined result equals signing under the master key.
        group = cluster.group
        for m, sig in zip(blinded, round_.result):
            assert group.pair(sig, group.g1()) == group.pair(m, cluster.master_pk)

    def test_straggler_responses_are_ignored_after_completion(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng)
        round_.start()
        for j in range(cluster.t):
            round_.on_response(j, shares_from(cluster, j, blinded))
        result = list(round_.result)
        assert round_.on_response(3, shares_from(cluster, 3, blinded)) == []
        assert round_.result == result

    def test_duplicate_response_is_idempotent(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng)
        round_.start()
        shares = shares_from(cluster, 0, blinded)
        round_.on_response(0, shares)
        assert round_.on_response(0, shares) == []
        assert round_.valid_count == 1

    def test_invalid_shares_mark_endpoint_and_activate_standby(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng, fanout=3)
        round_.start()
        wrong = shares_from(cluster, 1, blinded)  # wrong key share for SEM 0
        actions = round_.on_response(0, wrong)
        assert round_.invalid_endpoints == 1
        assert [a.endpoint_index for a in actions if isinstance(a, SendRequest)] == [3]

    def test_short_share_batch_is_invalid(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng)
        round_.start()
        round_.on_response(0, shares_from(cluster, 0, blinded)[:-1])
        assert round_.invalid_endpoints == 1

    def test_timeout_retries_with_backoff_then_exhausts(self, cluster, blinded, rng):
        round_ = make_round(
            cluster, blinded, rng,
            fanout=3, max_attempts=2, backoff_base_s=0.25, backoff_factor=2.0,
            backoff_jitter=False,  # assert the exact exponential ladder
        )
        round_.start()
        first = round_.on_timeout(0)
        sends = [a for a in first if isinstance(a, SendRequest)]
        assert sends and sends[0].delay_s == pytest.approx(0.25)
        assert round_.retries == 1
        second = round_.on_timeout(0)  # attempts exhausted -> standby
        assert [a.endpoint_index for a in second if isinstance(a, SendRequest)] == [3]

    def test_jittered_backoff_is_seeded_and_bounded(self, cluster, blinded):
        import random as random_mod

        def retry_delays(seed):
            round_ = make_round(
                cluster, blinded, random_mod.Random(seed),
                max_attempts=4, backoff_base_s=0.25, backoff_cap_s=1.5,
            )
            round_.start()
            delays = []
            for _ in range(3):
                actions = round_.on_timeout(0)
                delays.extend(
                    a.delay_s for a in actions if isinstance(a, SendRequest)
                )
            return delays

        first, replay, other = retry_delays(5), retry_delays(5), retry_delays(6)
        assert len(first) == 3
        assert first == replay  # decorrelated jitter is fully seeded
        assert first != other  # ...but actually random across seeds
        assert all(0.25 <= d <= 1.5 for d in first)  # [base, cap] bounds

    def test_jitter_rng_does_not_perturb_verification_draws(self, cluster, blinded):
        """The jitter stream is derived once at construction: a round that
        never retries consumes nothing extra from the caller's RNG."""
        import random as random_mod

        def smooth_run(seed):
            rng = random_mod.Random(seed)
            round_ = make_round(cluster, blinded, rng)
            round_.start()
            for j in range(cluster.t):
                round_.on_response(j, shares_from(cluster, j, blinded))
            return rng.getrandbits(64)

        assert smooth_run(9) == smooth_run(9)

    def test_timeout_after_response_is_a_noop(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng)
        round_.start()
        round_.on_response(0, shares_from(cluster, 0, blinded))
        assert round_.on_timeout(0) == []
        assert round_.timeouts == 0

    def test_fails_when_more_than_t_minus_1_sems_are_dead(self, cluster, blinded, rng):
        round_ = make_round(cluster, blinded, rng, max_attempts=1)
        round_.start()
        for j in range(3):  # 3 of 5 dead > t-1 = 2
            round_.on_timeout(j)
        round_.on_response(3, shares_from(cluster, 3, blinded))
        round_.on_response(4, shares_from(cluster, 4, blinded))
        assert round_.failed_reason is not None
        assert "2 of the required 3" in round_.failed_reason

    def test_used_failover_flag(self, cluster, blinded, rng):
        smooth = make_round(cluster, blinded, rng)
        smooth.start()
        for j in range(cluster.t):
            smooth.on_response(j, shares_from(cluster, j, blinded))
        assert not smooth.used_failover

    def test_threshold_bounds(self, cluster, blinded, rng):
        with pytest.raises(ValueError):
            SigningRound(cluster.group, cluster.endpoints(), 6, blinded)


class TestHealthScoreboard:
    def _board(self, n=5, threshold=1, rounds=2):
        from repro.service.failover import HealthScoreboard

        return HealthScoreboard(n, threshold=threshold, quarantine_rounds=rounds)

    def test_invalid_streak_trips_the_breaker(self):
        board = self._board(threshold=2)
        board.begin_round()
        board.record_invalid(1)
        assert not board.is_quarantined(1)  # streak 1 < threshold 2
        board.record_invalid(1)
        assert board.is_quarantined(1)
        assert board.trips == 1

    def test_contact_order_defers_quarantined(self):
        board = self._board()
        board.begin_round()
        board.record_invalid(2)
        board.begin_round()
        healthy, quarantined = board.contact_order()
        assert healthy == [0, 1, 3, 4]
        assert quarantined == [2]

    def test_lapsed_window_readmits_as_probe(self):
        board = self._board(rounds=1)
        board.begin_round()
        board.record_invalid(0)
        board.begin_round()
        assert board.is_quarantined(0)  # round 2 <= quarantined_until
        board.begin_round()
        healthy, quarantined = board.contact_order()
        assert 0 in healthy and quarantined == []
        assert board.probes == 1

    def test_success_clears_streak_and_quarantine(self):
        board = self._board()
        board.begin_round()
        board.record_invalid(3)
        assert board.is_quarantined(3)
        board.record_success(3)
        assert not board.is_quarantined(3)
        assert board.summary()["quarantined"] == 0

    def test_round_spanning_quarantine_in_the_sync_client(self, cluster, blinded, rng):
        """A byzantine SEM is contacted (and rejected) in round 1, then
        skipped by the next rounds while healthy endpoints cover t."""
        calls = {"n": 0}
        real = cluster.endpoints()[0].transport

        def counting_byzantine(blinded_messages, credential=None):
            calls["n"] += 1
            return [s * cluster.group.g1() for s in real(blinded_messages, credential)]

        endpoints = cluster.endpoints()
        endpoints[0] = type(endpoints[0])(
            name=endpoints[0].name, x=endpoints[0].x,
            share_pk=endpoints[0].share_pk, transport=counting_byzantine,
        )
        client = FailoverMultiSEMClient(
            cluster.group, endpoints, cluster.t,
            config=FailoverConfig(max_attempts=1, quarantine_rounds=8),
            rng=rng,
        )
        for _ in range(3):
            assert len(client.sign_blinded_batch(blinded)) == len(blinded)
        assert calls["n"] == 1  # rounds 2-3 never paid the byzantine SEM
        assert client.health.trips == 1
        assert client.stats.invalid_endpoints == 1


class TestSynchronousClient:
    def test_signs_through_healthy_cluster(self, cluster, blinded, rng):
        client = FailoverMultiSEMClient.from_cluster(cluster, rng=rng)
        result = client.sign_blinded_batch(blinded)
        group = cluster.group
        for m, sig in zip(blinded, result):
            assert group.pair(sig, group.g1()) == group.pair(m, cluster.master_pk)
        assert client.stats.rounds == 1
        assert client.stats.rounds_with_failover == 0

    def test_tolerates_t_minus_1_crashed(self, cluster, blinded, rng):
        cluster.crash(0)
        cluster.crash(1)  # t-1 = 2 crashed of w = 5
        client = FailoverMultiSEMClient.from_cluster(
            cluster, config=FailoverConfig(max_attempts=1), rng=rng
        )
        result = client.sign_blinded_batch(blinded)
        assert len(result) == len(blinded)
        assert client.stats.rounds_with_failover == 1

    def test_tolerates_byzantine_minority(self, cluster, blinded, rng):
        cluster.corrupt(0)
        cluster.crash(1)
        client = FailoverMultiSEMClient.from_cluster(
            cluster, config=FailoverConfig(max_attempts=1), rng=rng
        )
        result = client.sign_blinded_batch(blinded)
        group = cluster.group
        for m, sig in zip(blinded, result):
            assert group.pair(sig, group.g1()) == group.pair(m, cluster.master_pk)
        assert client.stats.invalid_endpoints == 1

    def test_fails_beyond_tolerance(self, cluster, blinded, rng):
        for j in range(3):  # one too many
            cluster.crash(j)
        client = FailoverMultiSEMClient.from_cluster(
            cluster, config=FailoverConfig(max_attempts=1), rng=rng
        )
        with pytest.raises(FailoverError):
            client.sign_blinded_batch(blinded)

    def test_retry_recovers_a_flaky_sem_and_sleeps_backoff(self, cluster, blinded, rng):
        # SEM 0 times out once then answers; SEMs 1-2 are dead.  The round
        # needs the retried SEM 0 to reach t = 3 valid share batches.
        cluster.crash(1)
        cluster.crash(2)
        endpoints = cluster.endpoints()
        calls = {"n": 0}
        real = endpoints[0].transport

        def flaky(blinded_messages, credential=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TimeoutError("first attempt lost")
            return real(blinded_messages, credential)

        endpoints[0] = type(endpoints[0])(
            name=endpoints[0].name, x=endpoints[0].x,
            share_pk=endpoints[0].share_pk, transport=flaky,
        )
        naps = []
        client = FailoverMultiSEMClient(
            cluster.group, endpoints, cluster.t,
            config=FailoverConfig(
                max_attempts=2, backoff_base_s=0.125, backoff_jitter=False,
            ),
            rng=rng, sleep=naps.append,
        )
        result = client.sign_blinded_batch(blinded)
        assert len(result) == len(blinded)
        assert pytest.approx(0.125) in naps
        assert calls["n"] == 2
        assert client.stats.retries >= 1

    def test_deadline_budget_fails_closed_before_retry_ladders(self, cluster, blinded, rng):
        """Beyond tolerance with huge per-endpoint retry ladders: the round
        deadline bounds total (modeled) time instead of walking them all."""
        for j in range(3):
            cluster.crash(j)
        naps = []
        client = FailoverMultiSEMClient.from_cluster(
            cluster,
            config=FailoverConfig(
                timeout_s=0.5, max_attempts=50, round_deadline_s=3.0,
            ),
            rng=rng, sleep=naps.append,
        )
        with pytest.raises(FailoverError, match="deadline"):
            client.sign_blinded_batch(blinded)
        assert client.stats.deadlines_exceeded == 1
        # Modeled elapsed time (sleeps + timeout charges) stayed near the
        # budget — nowhere near the 50-attempt ladders' worth of retries.
        assert sum(naps) + 0.5 * len(naps) < 10.0

    def test_requires_transports(self, cluster, blinded, rng):
        endpoints = [
            type(e)(name=e.name, x=e.x, share_pk=e.share_pk, transport=None)
            for e in cluster.endpoints()
        ]
        with pytest.raises(ValueError, match="transport"):
            FailoverMultiSEMClient(cluster.group, endpoints, cluster.t)
