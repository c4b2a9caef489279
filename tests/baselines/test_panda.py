"""Tests for the Panda (proxy re-signature) baseline."""

import pytest

from repro.baselines.panda import PandaAudit, PandaGroup, PandaVerifier
from repro.core.challenge import Challenge


@pytest.fixture()
def panda(params_k4, rng):
    pg = PandaGroup(params_k4, d=3, rng=rng)
    pg.sign_and_store(b"proxy resignature shared data " * 6, b"f")
    return pg


@pytest.fixture()
def verifier(params_k4, panda, rng):
    return PandaVerifier(params_k4, panda.pks, rng=rng)


class TestAudit:
    def test_full_file_audit(self, panda, verifier, rng):
        assert verifier.verify_file(panda.audit_units(b"f", rng))

    def test_per_signer_unit(self, panda, verifier, rng):
        ch = panda.challenge_for_signer(b"f", 0, rng)
        unit = PandaAudit(signer=0, challenge=ch, response=panda.generate_proof(b"f", ch))
        assert verifier.verify_unit(unit)

    def test_mixed_signer_challenge_rejected(self, panda, rng, params_k4):
        blocks, _, _ = panda._files[b"f"]
        ch = Challenge(
            indices=(0, 1),  # round-robin: different signers
            block_ids=(blocks[0].block_id, blocks[1].block_id),
            betas=(3, 5),
        )
        with pytest.raises(ValueError):
            panda.generate_proof(b"f", ch)

    def test_wrong_member_key_rejects(self, panda, verifier, rng):
        ch = panda.challenge_for_signer(b"f", 0, rng)
        proof = panda.generate_proof(b"f", ch)
        impostor = PandaAudit(signer=1, challenge=ch, response=proof)
        assert not verifier.verify_unit(impostor)

    def test_tamper_detected(self, panda, verifier, rng, params_k4):
        blocks, _, _ = panda._files[b"f"]
        import dataclasses

        elements = list(blocks[0].elements)
        elements[0] = (elements[0] + 1) % params_k4.order
        blocks[0] = dataclasses.replace(blocks[0], elements=tuple(elements))
        assert not verifier.verify_file(panda.audit_units(b"f", rng))

    def test_empty_units_reject(self, verifier):
        assert not verifier.verify_file([])


class TestRevocation:
    def test_resignatures_verify_under_successor(self, panda, verifier, rng):
        converted = panda.revoke(0, successor=1)
        assert converted > 0
        assert 0 not in panda.live
        units = panda.audit_units(b"f", rng)
        assert all(u.signer != 0 for u in units)
        assert verifier.verify_file(units)

    def test_revocation_cost_linear_in_blocks(self, panda, params_k4, rng):
        """The contrast with SEM-PDP: Panda re-signs every affected block."""
        blocks_of_0 = sum(
            1 for i in range(panda.n_blocks(b"f")) if panda.signer_of(b"f", i) == 0
        )
        assert panda.revoke(0, successor=2) == blocks_of_0
        assert panda.resign_operations == blocks_of_0

    def test_revocation_spans_files(self, panda, rng):
        panda.sign_and_store(b"second file " * 8, b"g")
        converted = panda.revoke(0, successor=1)
        per_file = [
            sum(1 for s in panda._files[fid][2] if s == 1 and True)
            for fid in (b"f", b"g")
        ]
        assert converted >= 2  # at least one block in each file

    def test_revoked_member_cannot_sign(self, panda, rng):
        panda.revoke(0, successor=1)
        n = panda.n_blocks(b"f")
        with pytest.raises(ValueError):
            panda.sign_and_store(b"new data", b"h", signers=[0] * 2)

    def test_revoke_validation(self, panda):
        with pytest.raises(ValueError):
            panda.revoke(0, successor=0)
        panda.revoke(0, successor=1)
        with pytest.raises(ValueError):
            panda.revoke(0, successor=1)  # already revoked

    def test_resign_key_reveals_no_secret(self, panda, params_k4, group):
        """rk alone cannot produce a signature on fresh data under either key."""
        rk = panda.resign_key(0, 1)
        fresh = group.hash_to_g1(b"fresh block never signed")
        forged = fresh**rk
        # Fails under both keys.
        assert group.pair(forged, group.g1()) != group.pair(fresh, panda.pks[0])
        assert group.pair(forged, group.g1()) != group.pair(fresh, panda.pks[1])


class TestIdentityLeak:
    def test_every_block_publicly_attributed(self, panda, rng):
        """The leak the SEM eliminates: block -> member is public data."""
        for i in range(panda.n_blocks(b"f")):
            assert panda.signer_of(b"f", i) == i % 3

    def test_audit_structure_reveals_workload_distribution(self, panda, rng):
        """A verifier learns exactly how many blocks each member signed —
        the 'more important member' inference the paper's Section IV-C
        warns about."""
        units = panda.audit_units(b"f", rng)
        per_member = {u.signer: len(u.challenge) for u in units}
        assert sum(per_member.values()) == panda.n_blocks(b"f")
        assert len(per_member) == 3

    def test_d_plus_pairings_vs_constant(self, panda, verifier, rng, group):
        """Verification cost grows with the number of members audited."""
        from repro.core.accounting import CostTracker

        units = panda.audit_units(b"f", rng)
        with CostTracker(group) as tracker:
            assert verifier.verify_file(units)
        assert tracker.pairings == 2 * len(units)  # 2 per member

    def test_minimum_group_size(self, params_k4, rng):
        with pytest.raises(ValueError):
            PandaGroup(params_k4, d=1, rng=rng)
