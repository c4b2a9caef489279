"""The service under the discrete-event simulator, faults included.

The headline test is the paper's Section V claim run end-to-end: a
signing round completes while t − 1 of the w = 2t − 1 mediators are
crashed, under injected channel latency — and the final signatures verify
under the organizational master key.
"""

import random

import pytest

from repro.core.blocks import aggregate_block, encode_data
from repro.net.channel import Channel
from repro.service import BatchConfig, FailoverConfig, build_service_network


def verify_response(params, org_pk, data, file_id, response):
    group = params.group
    blocks = encode_data(data, params, file_id)
    assert len(response.signatures) == len(blocks)
    for block, signature in zip(blocks, response.signatures):
        lhs = group.pair(signature, group.g1())
        rhs = group.pair(aggregate_block(params, block), org_pk)
        assert lhs == rhs


class TestSingleSEM:
    def test_round_trip_with_batching(self, params_k4):
        rng = random.Random(21)
        sim, service, clients = build_service_network(
            params_k4,
            n_clients=3,
            rng=rng,
            batch_config=BatchConfig(max_batch=8, max_wait_s=0.02),
            client_service_channel=Channel(latency_s=0.002),
            service_sem_channel=Channel(latency_s=0.002),
        )
        payloads = {}
        for i, client in enumerate(clients):
            data = bytes([i + 1]) * 40
            file_id = b"file-%d" % i
            payloads[client.name] = (data, file_id)
            sim.send(client.request_for_data(data, file_id))
        sim.run()
        org_pk = service._pipeline.org_pk
        for client in clients:
            assert client.failed == []
            (request_id,) = client.completed
            data, file_id = payloads[client.name]
            verify_response(params_k4, org_pk, data, file_id, client.responses[request_id])
        summary = service.metrics.summary()
        assert summary["completed"] == 3
        assert summary["batches"] == 1  # coalesced into one pass
        assert all(r.batch_size == 3 for c in clients for r in c.responses.values())

    def test_size_trigger_flushes_before_timer(self, params_k4):
        rng = random.Random(22)
        sim, service, clients = build_service_network(
            params_k4,
            n_clients=2,
            rng=rng,
            batch_config=BatchConfig(max_batch=2, max_wait_s=10.0),
        )
        for i, client in enumerate(clients):
            sim.send(client.request_for_data(bytes([i + 1]) * 30, b"f%d" % i))
        sim.run()
        assert all(c.completed for c in clients)
        # Responses arrived immediately: nobody waited for the age trigger.
        assert all(latency < 1.0 for c in clients for latency in c.latencies)

    def test_latency_metrics_measured_in_virtual_time(self, params_k4):
        rng = random.Random(23)
        sim, service, clients = build_service_network(
            params_k4,
            n_clients=1,
            rng=rng,
            batch_config=BatchConfig(max_batch=4, max_wait_s=0.05),
            client_service_channel=Channel(latency_s=0.01),
        )
        sim.send(clients[0].request_for_data(b"x" * 30, b"f"))
        sim.run()
        # One-way client->service latency is visible in the client's RTT.
        assert clients[0].latencies[0] >= 0.02
        assert service.metrics.summary()["queue_wait_p50_s"] >= 0.05


class TestThresholdFailover:
    def test_signs_with_t_minus_1_of_w_sems_crashed(self, params_k4):
        """Acceptance: t = 3, w = 5, two SEMs crashed + injected latency."""
        rng = random.Random(31)
        t = 3
        sim, service, clients = build_service_network(
            params_k4,
            threshold=t,
            n_clients=3,
            rng=rng,
            batch_config=BatchConfig(max_batch=8, max_wait_s=0.02),
            failover_config=FailoverConfig(timeout_s=0.5, max_attempts=2),
            client_service_channel=Channel(latency_s=0.004),
            service_sem_channel=Channel(latency_s=0.004),
        )
        for j in range(t - 1):  # crash the maximum tolerable number
            sim.nodes[f"sem-{j}"].crash()
        payloads = {}
        for i, client in enumerate(clients):
            data = bytes([0x40 + i]) * 50
            file_id = b"tf-%d" % i
            payloads[client.name] = (data, file_id)
            sim.send(client.request_for_data(data, file_id))
        sim.run()
        org_pk = service._pipeline.org_pk
        for client in clients:
            assert client.failed == []
            (request_id,) = client.completed
            data, file_id = payloads[client.name]
            verify_response(params_k4, org_pk, data, file_id, client.responses[request_id])

    def test_slow_sem_triggers_retry_and_late_shares_count(self, params_k4):
        rng = random.Random(32)
        sim, service, clients = build_service_network(
            params_k4,
            threshold=2,
            n_clients=2,
            rng=rng,
            batch_config=BatchConfig(max_batch=4, max_wait_s=0.02),
            failover_config=FailoverConfig(timeout_s=0.5, max_attempts=3),
            service_sem_channel=Channel(latency_s=0.005),
        )
        sim.nodes["sem-0"].crash()
        sim.nodes["sem-1"].service_delay_s = 0.6  # first attempt times out
        for i, client in enumerate(clients):
            sim.send(client.request_for_data(bytes([i + 1]) * 30, b"s%d" % i))
        sim.run()
        assert all(c.completed and not c.failed for c in clients)
        summary = service.metrics.summary()
        assert summary["retries"] >= 1
        assert summary["failovers"] >= 1

    def test_byzantine_sem_is_detected_and_survived(self, params_k4):
        rng = random.Random(33)
        sim, service, clients = build_service_network(
            params_k4,
            threshold=2,
            n_clients=1,
            rng=rng,
            batch_config=BatchConfig(max_batch=2, max_wait_s=0.01),
        )
        sim.nodes["sem-0"].fail_mode = "byzantine"
        data, file_id = b"b" * 30, b"byz"
        sim.send(clients[0].request_for_data(data, file_id))
        sim.run()
        (request_id,) = clients[0].completed
        verify_response(
            params_k4,
            service._pipeline.org_pk,
            data,
            file_id,
            clients[0].responses[request_id],
        )

    def test_beyond_tolerance_fails_every_request_loudly(self, params_k4):
        rng = random.Random(34)
        sim, service, clients = build_service_network(
            params_k4,
            threshold=2,
            n_clients=2,
            rng=rng,
            batch_config=BatchConfig(max_batch=4, max_wait_s=0.01),
            failover_config=FailoverConfig(timeout_s=0.2, max_attempts=1),
        )
        sim.nodes["sem-0"].crash()
        sim.nodes["sem-1"].crash()  # t = 2 crashed > t-1 tolerance
        for i, client in enumerate(clients):
            sim.send(client.request_for_data(bytes([i + 1]) * 30, b"x%d" % i))
        sim.run()
        for client in clients:
            assert client.completed == []
            (request_id,) = client.failed
            assert "required" in client.responses[request_id].error

    def test_overload_bounces_requests_under_flood(self, params_k4):
        rng = random.Random(35)
        sim, service, clients = build_service_network(
            params_k4,
            n_clients=1,
            rng=rng,
            batch_config=BatchConfig(max_batch=8, max_wait_s=0.5, queue_capacity=3),
        )
        client = clients[0]
        for n in range(6):
            sim.send(client.request_for_data(bytes([n + 1]) * 30, b"o%d" % n))
        sim.run()
        statuses = sorted(r.status.value for r in client.responses.values())
        assert statuses.count("overloaded") == 3  # capacity 3, six arrivals
        assert statuses.count("ok") == 3
        assert service.metrics.summary()["overloaded"] >= 1


class TestWiring:
    def test_every_link_owns_its_channel_and_counts_only_its_bytes(self, params_k4):
        template = Channel(latency_s=0.002, drop_rate=0.0, rng=random.Random(5))
        sim, service, clients = build_service_network(
            params_k4,
            threshold=2,
            n_clients=3,
            rng=random.Random(36),
            client_service_channel=template,
            service_sem_channel=template,
        )
        sent = []
        send = sim.send

        def counting_send(message, at=None):
            sent.append(message.size_bytes)
            send(message, at)

        sim.send = counting_send
        for i, client in enumerate(clients):
            sim.send(client.request_for_data(bytes([i + 1]) * 30, b"w%d" % i))
        sim.run()
        assert all(c.completed for c in clients)
        ids = {id(ch) for ch in sim._channels.values()}
        channels = list(sim._channels.values())
        assert id(template) not in ids and len(ids) == len(channels)
        assert len({id(ch.rng) for ch in channels}) == len(channels)
        assert sim.total_bytes() == sum(sent)
