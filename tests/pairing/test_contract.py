"""Contract tests: the pairing group, at two parameter sizes, satisfies
the algebraic API guarantees the scheme code relies on."""

import random

import pytest

from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup


def _backends():
    yield pytest.param(
        lambda: TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"]), id="type-a-toy"
    )
    yield pytest.param(
        lambda: TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["test-80"]), id="type-a-80"
    )


@pytest.fixture(params=list(_backends()))
def backend(request):
    return request.param()


class TestGroupContract:
    def test_order_is_odd_prime_sized(self, backend):
        assert backend.order > 2
        assert backend.order % 2 == 1

    def test_generator_has_group_order(self, backend):
        assert (backend.g1() ** backend.order).is_identity()

    def test_identity_laws(self, backend):
        g = backend.g1()
        e = backend.g1_identity()
        assert g * e == g
        assert (g * g.inverse()).is_identity()

    def test_exponent_arithmetic(self, backend):
        g = backend.g1()
        assert g**3 * g**4 == g**7
        assert (g**5) ** 3 == g**15
        assert g ** (backend.order + 1) == g

    def test_hash_to_g1_contract(self, backend):
        h1 = backend.hash_to_g1(b"a")
        h2 = backend.hash_to_g1(b"a")
        h3 = backend.hash_to_g1(b"b")
        assert h1 == h2 != h3
        assert (h1**backend.order).is_identity()

    def test_random_scalars_in_range(self, backend):
        rng = random.Random(1)
        for _ in range(10):
            s = backend.random_scalar(rng)
            assert 0 <= s < backend.order
        assert backend.random_nonzero_scalar(rng) != 0

    def test_serialization_round_trip(self, backend):
        g = backend.g1() ** 12345
        assert backend.deserialize_g1(g.to_bytes()) == g

    def test_element_sizes_consistent(self, backend):
        assert backend.g1_element_bytes() == len(backend.g1().to_bytes())
        assert backend.scalar_bytes() == (backend.order.bit_length() + 7) // 8


class TestPairingContract:
    def test_bilinearity_both_slots(self, backend):
        e = backend.pair
        g1, g2 = backend.g1(), backend.g1()
        base = e(g1, g2)
        assert e(g1**6, g2) == base**6
        assert e(g1, g2**7) == base**7
        assert e(g1**2, g2**3) == base**6

    def test_non_degeneracy(self, backend):
        assert not backend.pair(backend.g1(), backend.g1()).is_identity()

    def test_gt_group_laws(self, backend):
        e = backend.pair(backend.g1(), backend.g1())
        assert (e * e.inverse()).is_identity()
        assert e**2 * e**3 == e**5
        assert (e**backend.order).is_identity()

    def test_multi_pair_matches_naive(self, backend):
        pairs = [
            (backend.g1() ** 2, backend.g1() ** 3),
            (backend.g1() ** 5, backend.g1()),
        ]
        naive = backend.pair(*pairs[0]) * backend.pair(*pairs[1])
        assert backend.multi_pair(pairs) == naive

    def test_bls_equation(self, backend):
        """The exact equation every verification in the repo reduces to."""
        sk = 987654321 % backend.order
        message = backend.hash_to_g1(b"contract block")
        signature = message**sk
        pk = backend.g1() ** sk
        assert backend.pair(signature, backend.g1()) == backend.pair(message, pk)
