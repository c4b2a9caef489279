#!/usr/bin/env python3
"""The SEM signing service: batching, backpressure, and failover.

Three views of the same service layer:

1. the batching pipeline in-process — many owners' blocks coalesced into
   one vectorized aggregate → blind → sign → verify → unblind pass;
2. the fault-tolerant client — Section V's w = 2t − 1 deployment driven
   through timeouts, retries, and standby activation;
3. the full discrete-event deployment — clients, service, and SEMs as
   simulator nodes with injected crashes and channel latency.

    python examples/signing_service.py
"""

import random

from repro.core.blocks import aggregate_block, encode_data
from repro.core.multi_sem import SEMCluster
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.net.channel import Channel
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.service import (
    BatchConfig,
    BatchingSEMService,
    FailoverConfig,
    FailoverMultiSEMClient,
    SigningPipeline,
    SignRequest,
    build_service_network,
)
from repro.service.api import next_request_id


def make_request(params, owner: str, tag: bytes) -> SignRequest:
    data = tag * (3 * params.block_bytes() // len(tag) + 1)
    blocks = tuple(encode_data(data, params, b"file-" + tag))
    return SignRequest(request_id=next_request_id(), owner=owner, blocks=blocks)


def batching_demo(params, rng) -> None:
    print("-- 1. batched signing pipeline " + "-" * 34)
    sem = SecurityMediator(params.group, rng=rng, require_membership=False)
    pipeline = SigningPipeline(params, sem, sem.pk, rng=rng)
    service = BatchingSEMService(
        params, pipeline, config=BatchConfig(max_batch=8, queue_capacity=16)
    )
    requests = [make_request(params, f"owner-{i}", bytes([65 + i])) for i in range(5)]
    for request in requests:
        assert service.submit(request) is None  # queued
    responses = service.drain()
    print(f"coalesced {len(requests)} requests "
          f"({sum(r.n_items for r in requests)} blocks) into "
          f"{service.metrics.batches} signing pass(es)")
    group = params.group
    for request, response in zip(requests, responses):
        for block, sig in zip(request.blocks, response.signatures):
            assert group.pair(sig, group.g1()) == group.pair(
                aggregate_block(params, block), sem.pk
            )
    print("every returned signature verifies under the organizational key\n")


def failover_demo(params, rng) -> None:
    print("-- 2. multi-SEM failover client " + "-" * 33)
    cluster = SEMCluster(params.group, t=3, rng=rng, require_membership=False)
    cluster.crash(0)
    cluster.corrupt(1)  # byzantine: well-formed but wrong shares
    print(f"{cluster.w} SEMs, t = {cluster.t}; injected 1 crash + 1 byzantine")
    client = FailoverMultiSEMClient.from_cluster(
        cluster, config=FailoverConfig(max_attempts=2), rng=rng
    )
    pipeline = SigningPipeline(params, client, cluster.master_pk, rng=rng)
    (result,) = pipeline.sign_batch([make_request(params, "alice", b"F")])
    assert result.ok
    print(f"signed through the cluster anyway: {client.stats}\n")


def simulator_demo(params, rng) -> None:
    print("-- 3. simulated deployment with faults " + "-" * 26)
    channel = Channel(latency_s=0.005)
    sim, service, clients = build_service_network(
        params,
        threshold=2,
        n_clients=3,
        rng=rng,
        batch_config=BatchConfig(max_batch=8, max_wait_s=0.02),
        failover_config=FailoverConfig(timeout_s=0.5, max_attempts=3),
        client_service_channel=channel,
        service_sem_channel=channel,
    )
    sim.nodes["sem-0"].crash()            # fail-silent
    sim.nodes["sem-1"].service_delay_s = 0.6  # slower than the timeout
    for i, client in enumerate(clients):
        sim.send(client.request_for_data(bytes([97 + i]) * 40, b"doc-%d" % i))
    sim.run()
    summary = service.metrics.summary()
    print(f"3 SEMs (1 crashed, 1 slow): "
          f"{summary['completed']} requests completed, "
          f"{summary['retries']} retries, {summary['failovers']} failover round(s)")
    print(f"virtual time {sim.now:.3f}s, "
          f"{sim.total_bytes()} bytes on the wire, "
          f"p99 latency {summary['latency_p99_s']:.3f}s")
    assert all(c.completed and not c.failed for c in clients)


def main() -> None:
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    params = setup(group, k=4)
    rng = random.Random(2013)
    batching_demo(params, rng)
    failover_demo(params, rng)
    simulator_demo(params, rng)


if __name__ == "__main__":
    main()
