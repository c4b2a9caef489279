"""Chaos testing: random failures may stall the protocol but can never
make it produce a wrong result.

Safety property under arbitrary crash/drop schedules: if an upload
completes, its signatures verify; if an audit completes, its verdict is
correct for the actual stored state.  Liveness is only required when the
failure budget stays within the design threshold.
"""

import random

import pytest

from repro.core.blocks import aggregate_block
from repro.net import build_protocol_network
from repro.net.channel import Channel


def _chaos_run(params, seed):
    rng = random.Random(seed)
    threshold = rng.choice([None, 2])
    sim, owner, verifier = build_protocol_network(
        params,
        threshold=threshold,
        rng=rng,
        owner_sem_channel=Channel(drop_rate=rng.choice([0.0, 0.3]), rng=rng),
        retry_timeout_s=1.0,
        max_retries=5,
    )
    # Randomly crash SEMs (possibly beyond the threshold).
    sem_names = [n for n in sim.nodes if n.startswith("sem-")]
    for name in sem_names:
        if rng.random() < 0.3:
            sim.nodes[name].crash()
    for message in owner.start_upload(b"chaos payload " * 6, b"f"):
        sim.send(message)
    sim.run()
    return sim, owner, verifier


class TestChaos:
    @pytest.mark.parametrize("seed", range(12))
    def test_safety_under_random_failures(self, params_k4, seed):
        sim, owner, verifier = _chaos_run(params_k4, seed)
        if owner.completed_uploads:
            # Completed => stored data must be genuinely valid.
            stored = sim.nodes["cloud"].server.retrieve(b"f")
            group = params_k4.group
            org_pk = verifier.verifier.org_pk
            for block, sig in zip(stored.blocks, stored.signatures):
                assert group.pair(sig, group.g1()) == group.pair(
                    aggregate_block(params_k4, block), org_pk
                )
            # And audits agree.
            sim.send(verifier.start_audit(b"f", stored.n_blocks))
            sim.run()
            assert verifier.audit_results[b"f"] is True
        else:
            # Stalled => nothing half-written at the cloud.
            assert not sim.nodes["cloud"].server.has_file(b"f")

    @pytest.mark.parametrize("seed", range(6))
    def test_liveness_within_failure_budget(self, params_k4, seed):
        """With failures <= t-1 and a retrying owner, uploads complete."""
        rng = random.Random(1000 + seed)
        sim, owner, verifier = build_protocol_network(
            params_k4,
            threshold=2,  # w = 3, tolerates 1 failure
            rng=rng,
            owner_sem_channel=Channel(drop_rate=0.25, rng=rng),
            retry_timeout_s=1.0,
            max_retries=25,
        )
        victim = rng.choice(["sem-0", "sem-1", "sem-2"])
        sim.nodes[victim].crash()
        for message in owner.start_upload(b"liveness payload " * 4, b"f"):
            sim.send(message)
        sim.run()
        assert owner.completed_uploads == [b"f"]
