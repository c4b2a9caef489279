"""Chaos harness: run a committed fault plan end to end and report facts.

Each plan JSON in ``plans/`` carries a ``scenario`` block (threshold,
workload shape, failover policy, expectations).  The harness here builds
the service network, installs the plan, drives the workload in waves, and
returns a :class:`ChaosRun` the tests assert against — including a
deterministic digest, so replaying the same plan + seed must reproduce
the run bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.core.blocks import aggregate_block, encode_data
from repro.net.channel import Channel
from repro.net.faults import FaultPlan
from repro.service import BatchConfig, FailoverConfig, build_service_network

PLAN_DIR = Path(__file__).parent / "plans"
PLAN_PATHS = sorted(PLAN_DIR.glob("*.json"))


@dataclass
class ChaosRun:
    """Everything a chaos acceptance test asserts against."""

    plan: FaultPlan
    scenario: dict
    sim: object
    service: object
    clients: list
    injector: object
    payloads: dict = field(default_factory=dict)  # request_id -> (data, file_id)

    def digest(self) -> dict:
        """Deterministic fingerprint of the run (request-id free)."""
        return {
            "virtual_time": round(self.sim.now, 9),
            "delivered": self.sim.delivered,
            "dropped": self.sim.dropped,
            "bytes": self.sim.total_bytes(),
            "injected": dict(sorted(self.injector.counts.items())),
            "completed": sorted(len(c.completed) for c in self.clients),
            "failed": sorted(len(c.failed) for c in self.clients),
            "health": self.service.health.summary(),
        }

    def verify_signatures(self, params) -> int:
        """Pairing-check every completed response; returns signatures seen.

        e(sigma_i, g2) == e(H(id_i) * prod u_l^{m_il}, org_pk) — the
        unbatched form of the Eq. 7 check the pipeline already ran.
        """
        group = params.group
        org_pk = self.service._pipeline.org_pk
        checked = 0
        for client in self.clients:
            for request_id in client.completed:
                response = client.responses[request_id]
                data, file_id = self.payloads[request_id]
                blocks = encode_data(data, params, file_id)
                assert len(response.signatures) == len(blocks)
                for block, signature in zip(blocks, response.signatures):
                    lhs = group.pair(signature, group.g1())
                    rhs = group.pair(aggregate_block(params, block), org_pk)
                    assert lhs == rhs, f"bad signature for request {request_id}"
                    checked += 1
        return checked


def run_plan(plan_path, params, seed: int | None = None) -> ChaosRun:
    """Build the network, install the plan, drive the scenario workload."""
    plan = FaultPlan.from_file(plan_path, seed=seed)
    scenario = plan.meta.get("scenario", {})
    threshold = scenario.get("threshold", 2)
    n_clients = scenario.get("clients", 1)
    waves = scenario.get("waves", 1)
    rng = random.Random(scenario.get("net_seed", 0xBAD5EED))
    channel = Channel(latency_s=0.005)
    sim, service, clients = build_service_network(
        params,
        threshold=threshold,
        n_clients=n_clients,
        rng=rng,
        batch_config=BatchConfig(max_batch=8, max_wait_s=0.02),
        failover_config=FailoverConfig(
            timeout_s=scenario.get("timeout_s", 0.1),
            max_attempts=scenario.get("max_attempts", 3),
            round_deadline_s=scenario.get("round_deadline_s"),
        ),
        client_service_channel=channel,
        service_sem_channel=channel,
    )
    injector = plan.install(sim)
    run = ChaosRun(
        plan=plan, scenario=scenario, sim=sim, service=service,
        clients=clients, injector=injector,
    )
    for wave in range(waves):
        for i, client in enumerate(clients):
            data = bytes([(17 * wave + i + 1) % 251]) * 40
            file_id = b"chaos-%d-%d" % (wave, i)
            message = client.request_for_data(data, file_id)
            run.payloads[message.payload.request_id] = (data, file_id)
            sim.send(message)
        sim.run()  # each wave drains fully -> one round per batch
    return run


@pytest.fixture(params=PLAN_PATHS, ids=[p.stem for p in PLAN_PATHS])
def plan_path(request):
    return request.param
