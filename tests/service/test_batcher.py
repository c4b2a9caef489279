"""Admission, coalescing triggers, and failure mapping of the batch service."""

from dataclasses import replace

import pytest

from repro.service.api import ResponseStatus, SignRequest, next_request_id
from repro.service.batcher import BatchConfig, BatchingSEMService
from repro.service.pipeline import SigningPipeline


@pytest.fixture()
def clock():
    state = {"now": 0.0}

    def read():
        return state["now"]

    read.advance = lambda dt: state.__setitem__("now", state["now"] + dt)
    return read


@pytest.fixture()
def service(params_k4, sem, rng, clock):
    pipeline = SigningPipeline(params_k4, sem, sem.pk, rng=rng)
    return BatchingSEMService(
        params_k4,
        pipeline,
        config=BatchConfig(max_batch=4, max_wait_s=0.05, queue_capacity=6),
        clock=clock,
    )


class TestAdmission:
    def test_invalid_request_rejected_at_the_door(self, service):
        bad = SignRequest(request_id=next_request_id(), owner="alice")
        response = service.submit(bad)
        assert response.status is ResponseStatus.REJECTED
        assert service.queue.depth == 0
        assert service.metrics.rejected == 1

    def test_membership_gate(self, params_k4, sem, rng, clock, make_request):
        pipeline = SigningPipeline(params_k4, sem, sem.pk, rng=rng)
        service = BatchingSEMService(
            params_k4, pipeline, membership=lambda credential: False, clock=clock
        )
        response = service.submit(make_request(b"m"))
        assert response.status is ResponseStatus.REJECTED
        assert "member" in response.error

    def test_queued_request_returns_none(self, service, make_request):
        assert service.submit(make_request(b"q")) is None
        assert service.queue.depth == 1

    def test_overload_bounces_with_reject_policy(self, service, make_request):
        for i in range(6):
            assert service.submit(make_request(bytes([i + 1]))) is None
        bounced = service.submit(make_request(b"x"))
        assert bounced.status is ResponseStatus.OVERLOADED
        assert service.metrics.overloaded == 1

    def test_drop_oldest_fails_evicted_request_loudly(
        self, params_k4, sem, rng, clock, make_request
    ):
        pipeline = SigningPipeline(params_k4, sem, sem.pk, rng=rng)
        service = BatchingSEMService(
            params_k4,
            pipeline,
            config=BatchConfig(max_batch=4, queue_capacity=2, queue_policy="drop-oldest"),
            clock=clock,
        )
        outcomes = {}
        first = make_request(b"1")
        service.submit(first, on_complete=lambda r: outcomes.__setitem__(r.request_id, r))
        service.submit(make_request(b"2"))
        service.submit(make_request(b"3"))  # evicts the first
        assert outcomes[first.request_id].status is ResponseStatus.OVERLOADED
        assert service.queue.depth == 2


class TestCoalescing:
    def test_size_trigger(self, service, make_request):
        for i in range(3):
            service.submit(make_request(bytes([i + 1])))
        assert not service.batch_ready()
        service.submit(make_request(b"z"))
        assert service.batch_ready()

    def test_age_trigger(self, service, clock, make_request):
        service.submit(make_request(b"a"))
        assert not service.batch_ready()
        clock.advance(0.06)
        assert service.batch_ready()

    def test_flush_without_force_respects_triggers(self, service, make_request):
        service.submit(make_request(b"a"))
        assert service.flush(force=False) == []
        assert service.queue.depth == 1

    def test_flush_takes_at_most_max_batch(self, service, make_request):
        for i in range(6):
            service.submit(make_request(bytes([i + 1])))
        responses = service.flush()
        assert len(responses) == 4
        assert service.queue.depth == 2
        assert all(r.batch_size == 4 for r in responses)

    def test_drain_empties_queue(self, service, make_request):
        for i in range(6):
            service.submit(make_request(bytes([i + 1])))
        responses = service.drain()
        assert len(responses) == 6
        assert all(r.ok for r in responses)
        assert service.queue.depth == 0

    def test_queue_wait_measured_with_clock(self, service, clock, make_request):
        service.submit(make_request(b"w"))
        clock.advance(0.25)
        (response,) = service.flush()
        assert response.queue_wait_s == pytest.approx(0.25)

    def test_flush_on_empty_queue(self, service):
        assert service.flush() == []


class TestFailureMapping:
    def test_crashed_sem_fails_whole_batch(self, service, sem, make_request):
        outcomes = []
        for i in range(2):
            service.submit(make_request(bytes([i + 1])), on_complete=outcomes.append)
        sem.fail_mode = "crash"
        responses = service.flush()
        assert [r.status for r in responses] == [ResponseStatus.FAILED] * 2
        assert [r.status for r in outcomes] == [ResponseStatus.FAILED] * 2
        assert "down" in responses[0].error
        assert service.metrics.failed == 2

    def test_mixed_batch_with_per_request_failure(self, service, sem, make_request):
        # A request whose block widths are valid but whose signature check
        # fails is isolated by the pipeline; the batcher maps it to FAILED
        # while its batchmates succeed.
        good = make_request(b"g")
        service.submit(good)
        victim = make_request(b"v")
        service.submit(victim)
        original = sem.sign_blinded_batch

        def corrupt_last(blinded, credential=None):
            signatures = original(blinded, credential)
            signatures[-1] = signatures[-1] * sem.group.g1()
            return signatures

        sem.sign_blinded_batch = corrupt_last
        responses = {r.request_id: r for r in service.flush()}
        assert responses[good.request_id].ok
        assert responses[victim.request_id].status is ResponseStatus.FAILED
