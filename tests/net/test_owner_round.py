"""The owner node's signing round: Eq. 14 share checks, one combiner.

Every upload runs one :class:`~repro.service.failover.SigningRound`, so a
threshold upload costs one Eq. 14 check per contacted-and-used SEM and no
owner-side Eq. 7, a byzantine SEM within t − 1 is outvoted, and a round
lost to invalid shares fails loudly instead of stalling.
"""

import pytest

from repro.core.accounting import CostTracker
from repro.core.blocks import aggregate_block
from repro.crypto.bls import bls_verify_element
from repro.net import build_protocol_network

DATA = bytes(range(1, 200))


def _upload(sim, owner, fid=b"f"):
    for message in owner.start_upload(DATA, fid):
        sim.send(message)
    sim.run()


class TestOwnerRound:
    def test_threshold_upload_costs_eq14_pairings(self, params_k4, rng, group):
        sim, owner, _ = build_protocol_network(params_k4, threshold=2, rng=rng)
        with CostTracker(group) as tracker:
            _upload(sim, owner)
        assert owner.completed_uploads == [b"f"]
        # t = 2 share batches combined, then one check against the round
        # key (2 pairings); no owner-side Eq. 7 after it.
        assert tracker.pairings == 2

    def test_one_byzantine_sem_is_outvoted(self, params_k4, rng, group):
        sim, owner, verifier = build_protocol_network(params_k4, threshold=2, rng=rng)
        sim.nodes["sem-0"].fail_mode = "byzantine"
        _upload(sim, owner)
        assert owner.completed_uploads == [b"f"]
        stored = sim.nodes["cloud"].server.retrieve(b"f")
        org_pk = verifier.verifier.org_pk
        for block, sigma in zip(stored.blocks, stored.signatures):
            assert bls_verify_element(group, org_pk, aggregate_block(params_k4, block), sigma)

    def test_two_byzantine_sems_raise(self, params_k4, rng):
        sim, owner, _ = build_protocol_network(params_k4, threshold=2, rng=rng)
        sim.nodes["sem-0"].fail_mode = "byzantine"
        sim.nodes["sem-1"].fail_mode = "byzantine"
        with pytest.raises(ValueError):
            _upload(sim, owner)
        assert not sim.nodes["cloud"].server.has_file(b"f")

    def test_invalid_round_ended_by_timeout_raises(self, params_k4, rng):
        """The last event is a re-ask running out, not the invalid batch."""
        sim, owner, _ = build_protocol_network(
            params_k4, threshold=2, rng=rng, retry_timeout_s=1.0, max_retries=1
        )
        sim.nodes["sem-0"].fail_mode = "byzantine"
        sim.nodes["sem-1"].crash()
        with pytest.raises(ValueError):
            _upload(sim, owner)
        assert not sim.nodes["cloud"].server.has_file(b"f")

    def test_finished_upload_leaves_no_timer(self, params_k4, rng):
        """Re-ask and upload timers are cancelled once they are moot."""
        sim, owner, _ = build_protocol_network(
            params_k4, threshold=2, rng=rng, retry_timeout_s=1.0
        )
        for message in owner.start_upload(DATA, b"f"):
            sim.send(message)
        assert sim.run() == 0.0
        assert owner.completed_uploads == [b"f"]
        assert sim.timers_fired == 0

    def test_unavailable_round_stalls_after_bounded_reasks(self, params_k4, rng):
        sim, owner, _ = build_protocol_network(
            params_k4, threshold=2, rng=rng, retry_timeout_s=1.0, max_retries=2
        )
        sim.nodes["sem-0"].crash()
        sim.nodes["sem-1"].crash()
        _upload(sim, owner)
        assert owner.completed_uploads == []
        assert not sim.nodes["cloud"].server.has_file(b"f")
        # Each silent SEM was re-asked max_retries times; nothing uploaded.
        assert owner._pending.retries == 2 * owner.max_retries
