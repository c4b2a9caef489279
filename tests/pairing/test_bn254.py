"""Tests for the BN254 (alt_bn128) asymmetric backend.

All marked slow: the auditable schoolbook F_p¹² arithmetic makes each
pairing ~0.3 s.
"""

import pytest

from repro.pairing.bn254 import (
    BN254PairingGroup,
    CURVE_ORDER,
    FIELD_MODULUS,
    G1_GENERATOR,
    G2_GENERATOR,
    is_on_g1_curve,
    is_on_g2_curve,
    _scalar_mul,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def g():
    return BN254PairingGroup()


class TestCurveStructure:
    def test_generators_on_curve(self):
        assert is_on_g1_curve(G1_GENERATOR)
        assert is_on_g2_curve(G2_GENERATOR)

    def test_generator_orders(self):
        assert _scalar_mul(G1_GENERATOR, CURVE_ORDER) is None
        assert _scalar_mul(G2_GENERATOR, CURVE_ORDER) is None

    def test_bn_parameter_relation(self):
        # p and r satisfy the BN polynomial identities for x = 4965661367192848881.
        x = 4965661367192848881
        assert FIELD_MODULUS == 36 * x**4 + 36 * x**3 + 24 * x**2 + 6 * x + 1
        assert CURVE_ORDER == 36 * x**4 + 36 * x**3 + 18 * x**2 + 6 * x + 1

    def test_group_ops(self, g):
        p = g.g1() ** 7
        assert p == g.g1() ** 3 * g.g1() ** 4
        assert (p / p).is_identity()

    def test_asymmetric(self, g):
        assert not g.is_symmetric

    def test_hash_to_g1(self, g):
        h = g.hash_to_g1(b"bn-block")
        assert not h.is_identity()
        assert (h**g.order).is_identity()

    def test_serialization_sizes(self, g):
        assert len(g.g1().to_bytes()) == 33
        assert len(g.g2().to_bytes()) == 65


class TestPairing:
    def test_bilinearity(self, g):
        e1 = g.pair(g.g1() ** 3, g.g2() ** 5)
        e2 = g.pair(g.g1(), g.g2()) ** 15
        assert e1 == e2

    def test_non_degenerate(self, g):
        assert not g.pair(g.g1(), g.g2()).is_identity()

    def test_identity_argument(self, g):
        assert g.pair(g.g1_identity(), g.g2()).is_identity()

    def test_multi_pair_shares_final_exp(self, g):
        p1, p2 = g.g1() ** 2, g.g1() ** 3
        q = g.g2()
        combined = g.multi_pair([(p1, q), (p2, q)])
        assert combined == g.pair(g.g1() ** 5, q)

    def test_pairing_check(self, g):
        sk = 0x1234567
        message = g.hash_to_g1(b"bn-check")
        sigma, pk = message**sk, g.g2() ** sk
        assert g.pairing_check([(sigma, g.g2()), (message.inverse(), pk)])
        assert not g.pairing_check([(sigma * g.g1(), g.g2()), (message.inverse(), pk)])


class TestSchemeOnBN254:
    """The paper's scheme must run unchanged on the asymmetric backend."""

    def test_blind_bls_round_trip(self, g):
        import random

        from repro.crypto.blind_bls import blind, sign_blinded, unblind

        rng = random.Random(1)
        sk = g.random_nonzero_scalar(rng)
        pk = g.g2() ** sk
        pk1 = g.g1() ** sk
        message = g.hash_to_g1(b"block")
        state = blind(g, message, rng)
        sigma_tilde = sign_blinded(state.blinded, sk)
        sigma = unblind(g, state, sigma_tilde, pk, pk1=pk1)
        assert sigma == message**sk
        assert g.pair(sigma, g.g2()) == g.pair(message, pk)

    def test_asymmetric_unblind_requires_pk1(self, g):
        import random

        from repro.crypto.blind_bls import blind, sign_blinded, unblind

        rng = random.Random(2)
        sk = g.random_nonzero_scalar(rng)
        pk = g.g2() ** sk
        state = blind(g, g.hash_to_g1(b"m"), rng)
        sigma_tilde = sign_blinded(state.blinded, sk)
        with pytest.raises(ValueError):
            unblind(g, state, sigma_tilde, pk, check=False)

    def test_end_to_end_pdp(self, g):
        import random

        from repro.core import SemPdpSystem

        rng = random.Random(3)
        system = SemPdpSystem.create(g, k=2, rng=rng)
        owner = system.enroll("alice")
        system.upload(owner, b"bn254 data", b"f", batch=True)
        assert system.audit(b"f")
