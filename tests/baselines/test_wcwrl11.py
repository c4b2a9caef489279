"""Tests for the WCWRL11 (privacy-preserving TPA) baseline."""

import pytest

from repro.baselines.wcwrl11 import (
    MaskedProofResponse,
    WCWRL11Owner,
    WCWRL11Server,
    WCWRL11Verifier,
)
from repro.core.verifier import PublicVerifier


@pytest.fixture()
def deployment(params_k4, rng):
    owner = WCWRL11Owner(params_k4, rng=rng)
    server = WCWRL11Server(params_k4, owner.pk, rng=rng)
    verifier = WCWRL11Verifier(params_k4, owner.pk, rng=rng)
    helper = PublicVerifier(params_k4, owner.pk, rng=rng)
    signed = owner.sign_file(b"tpa masked audit data " * 6, b"f")
    server.store(signed)
    return owner, server, verifier, helper, signed


class TestWCWRL11:
    def test_masked_proof_verifies(self, deployment):
        _, server, verifier, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        assert verifier.verify(ch, server.generate_masked_proof(b"f", ch))

    def test_sampled_masked_proof(self, deployment):
        _, server, verifier, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks), sample_size=2)
        assert verifier.verify(ch, server.generate_masked_proof(b"f", ch))

    def test_tamper_detected_through_mask(self, deployment):
        _, server, verifier, helper, signed = deployment
        server.tamper_block(b"f", 0)
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        assert not verifier.verify(ch, server.generate_masked_proof(b"f", ch))

    def test_mask_hides_true_combinations(self, deployment, params_k4):
        """Data privacy: the α values in the masked proof differ from the
        true linear combinations of the data (which an unmasked proof leaks)."""
        _, server, verifier, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        unmasked = server.generate_proof(b"f", ch)
        masked = server.generate_masked_proof(b"f", ch)
        assert masked.alphas != unmasked.alphas

    def test_mask_is_fresh_each_proof(self, deployment):
        _, server, verifier, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        p1 = server.generate_masked_proof(b"f", ch)
        p2 = server.generate_masked_proof(b"f", ch)
        assert p1.alphas != p2.alphas  # fresh masks, both verify
        assert verifier.verify(ch, p1) and verifier.verify(ch, p2)

    def test_tampered_commitment_rejected(self, deployment, group):
        _, server, verifier, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        proof = server.generate_masked_proof(b"f", ch)
        bad = MaskedProofResponse(
            sigma=proof.sigma,
            alphas=proof.alphas,
            commitment=proof.commitment * group.pair(group.g1(), group.g1()),
        )
        assert not verifier.verify(ch, bad)

    def test_tampered_alpha_rejected(self, deployment, params_k4):
        _, server, verifier, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        proof = server.generate_masked_proof(b"f", ch)
        bad_alphas = ((proof.alphas[0] + 1) % params_k4.order,) + proof.alphas[1:]
        bad = MaskedProofResponse(
            sigma=proof.sigma, alphas=bad_alphas, commitment=proof.commitment
        )
        assert not verifier.verify(ch, bad)

    def test_wrong_alpha_count_rejected(self, deployment):
        _, server, verifier, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        proof = server.generate_masked_proof(b"f", ch)
        bad = MaskedProofResponse(
            sigma=proof.sigma, alphas=proof.alphas[:-1], commitment=proof.commitment
        )
        assert not verifier.verify(ch, bad)

    def test_response_size_one_gt_larger(self, deployment, params_k4):
        _, server, _, helper, signed = deployment
        ch = helper.generate_challenge(b"f", len(signed.blocks))
        masked = server.generate_masked_proof(b"f", ch)
        unmasked = server.generate_proof(b"f", ch)
        assert masked.paper_size_bits(160) == unmasked.paper_size_bits(160) + 160
