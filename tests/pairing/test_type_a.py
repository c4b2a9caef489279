"""Tests for the type-A symmetric pairing backend."""

import pickle
import random
import sys
import threading

import pytest

from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing import type_a
from repro.pairing.interface import GroupElement, OperationCounter


@pytest.fixture(scope="module")
def g():
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])


class TestGroupStructure:
    def test_generator_order(self, g):
        assert (g.g1() ** g.order).is_identity()
        assert not (g.g1() ** 1).is_identity()

    def test_symmetric(self, g):
        assert g.is_symmetric
        assert g.g1().point == g.g2().point

    def test_identity_element(self, g):
        e = g.g1_identity()
        assert e.is_identity()
        assert (g.g1() * e) == g.g1()

    def test_inverse(self, g):
        p = g.random_g1()
        assert (p * p.inverse()).is_identity()
        assert (p / p).is_identity()

    def test_exponent_reduction_mod_order(self, g):
        p = g.random_g1()
        assert p ** (g.order + 5) == p**5
        assert (p**0).is_identity()

    def test_negative_exponent(self, g):
        p = g.random_g1()
        assert p**-1 == p.inverse()

    def test_mul_commutes(self, g):
        a, b = g.random_g1(), g.random_g1()
        assert a * b == b * a

    def test_exp_homomorphism(self, g):
        p = g.random_g1()
        assert p**3 * p**5 == p**8


class TestPairing:
    def test_bilinearity(self, g):
        p, q = g.g1(), g.g2()
        a, b = 1234567, 7654321
        assert g.pair(p**a, q**b) == g.pair(p, q) ** ((a * b) % g.order)

    def test_bilinearity_left(self, g):
        p, q = g.random_g1(), g.random_g2()
        a = 999983
        assert g.pair(p**a, q) == g.pair(p, q) ** a

    def test_bilinearity_right(self, g):
        p, q = g.random_g1(), g.random_g2()
        b = 424243
        assert g.pair(p, q**b) == g.pair(p, q) ** b

    def test_non_degenerate(self, g):
        assert not g.pair(g.g1(), g.g2()).is_identity()

    def test_identity_pairs_to_one(self, g):
        assert g.pair(g.g1_identity(), g.g2()).is_identity()
        assert g.pair(g.g1(), g.g2_identity()).is_identity()

    def test_gt_has_order_r(self, g):
        e = g.pair(g.g1(), g.g2())
        assert (e**g.order).is_identity()

    def test_pairing_product(self, g):
        p1, p2 = g.random_g1(), g.random_g1()
        q = g.g2()
        assert g.pair(p1 * p2, q) == g.pair(p1, q) * g.pair(p2, q)

    def test_multi_pair_matches_product(self, g):
        pairs = [(g.random_g1(), g.random_g2()) for _ in range(4)]
        product = g.gt_one()
        for p, q in pairs:
            product = product * g.pair(p, q)
        assert g.multi_pair(pairs) == product

    def test_multi_pair_empty(self, g):
        assert g.multi_pair([]).is_identity()

    def test_pair_wrong_sides_raises(self, g):
        with pytest.raises(ValueError):
            g.pair(g.g2(), g.g1())  # both are g1/g2-tagged wrappers

    def test_gt_division(self, g):
        e = g.pair(g.g1(), g.g2())
        assert (e / e).is_identity()
        assert e * e.inverse() == g.gt_one()


class TestHashAndSerialization:
    def test_hash_lands_in_subgroup(self, g):
        h = g.hash_to_g1(b"block-id-1")
        assert (h**g.order).is_identity()
        assert not h.is_identity()

    def test_hash_deterministic(self, g):
        assert g.hash_to_g1(b"same") == g.hash_to_g1(b"same")
        assert g.hash_to_g1(b"a") != g.hash_to_g1(b"b")

    def test_serialize_round_trip(self, g):
        p = g.random_g1()
        data = p.to_bytes()
        assert g.deserialize_g1(data) == p

    def test_serialize_identity(self, g):
        data = g.g1_identity().to_bytes()
        assert g.deserialize_g1(data).is_identity()

    def test_serialize_length_constant(self, g):
        lengths = {len(g.random_g1().to_bytes()) for _ in range(5)}
        assert len(lengths) == 1
        assert g.g1_element_bytes() == lengths.pop()

    def test_deserialize_rejects_garbage(self, g):
        with pytest.raises(ValueError):
            g.deserialize_g1(b"\x01")

    @pytest.mark.parametrize("backend", ["type-a", "bn254"])
    def test_deserialize_rejects_non_canonical_encodings(self, g, backend):
        """Mutated real encodings: x + q (same point mod q) and tags with
        bit 1 set but other bits too must not decode; honest ones do."""
        if backend == "bn254":
            from repro.pairing.bn254 import FIELD_MODULUS, BN254PairingGroup

            g, field_modulus = BN254PairingGroup(), FIELD_MODULUS
        else:
            field_modulus = g.q
        width = g.g1_element_bytes() - 1
        mutated = 0
        for i in range(16):
            p = g.hash_to_g1(b"canonical-%d" % i)
            data = p.to_bytes()
            assert g.deserialize_g1(data) == p
            x, tag = int.from_bytes(data[:-1], "big"), data[-1]
            for bad_tag in (0x06, 0xFE):
                with pytest.raises(ValueError):
                    g.deserialize_g1(data[:-1] + bytes([bad_tag]))
            if x + field_modulus < 256**width:
                with pytest.raises(ValueError):
                    g.deserialize_g1(
                        (x + field_modulus).to_bytes(width, "big") + bytes([tag]))
                mutated += 1
        assert mutated > 0

    def test_element_hash_consistency(self, g):
        p = g.random_g1()
        q = p * g.g1_identity()
        assert hash(p) == hash(q)


class TestOperationCounter:
    def test_counts_exponentiations_and_pairings(self, g):
        counter = OperationCounter()
        g.attach_counter(counter)
        try:
            p = g.g1() ** 5
            _ = p * p
            g.pair(p, g.g2())
            g.hash_to_g1(b"x")
        finally:
            g.detach_counter()
        assert counter.exp_g1 == 1
        assert counter.mul_g1 == 1
        assert counter.pairings == 1
        assert counter.hash_to_g1 == 1

    def test_reset(self, g):
        counter = OperationCounter()
        g.attach_counter(counter)
        try:
            _ = g.g1() ** 2
        finally:
            g.detach_counter()
        counter.reset()
        assert counter.snapshot() == {
            "exp_g1": 0, "exp_g1_fixed_base": 0, "exp_g1_msm": 0,
            "exp_g1_skipped": 0, "exp_g2": 0, "exp_gt": 0,
            "pairings": 0, "mul_g1": 0, "hash_to_g1": 0,
        }

    def test_detached_counts_nothing(self, g):
        counter = OperationCounter()
        g.attach_counter(counter)
        g.detach_counter()
        _ = g.g1() ** 2
        assert counter.exp_g1 == 0


class TestAcrossParamSets:
    @pytest.mark.parametrize("name", ["toy-64", "test-80"])
    def test_bilinearity(self, name):
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])
        p, q = g.g1(), g.g2()
        assert g.pair(p**3, q**5) == g.pair(p, q) ** 15

    @pytest.mark.slow
    def test_paper_params_bilinearity(self):
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["paper-160"])
        p, q = g.g1(), g.g2()
        a = 0xDEADBEEFCAFEBABE
        assert g.pair(p**a, q) == g.pair(p, q) ** a


def _affine_miller_loop(g, p, q_point):
    """Oracle: f_{r,P}(φ(Q)) by the textbook affine Miller loop on the G1
    argument, one field inversion per step and no precomputation."""
    q = g.q
    xp, yp = p
    xq, yq = q_point
    fa, fb = 1, 0
    tx, ty = xp, yp
    r = g.order
    for bit_index in range(r.bit_length() - 2, -1, -1):
        lam = (3 * tx * tx + 1) * pow(2 * ty, -1, q) % q
        la = (lam * (xq + tx) - ty) % q
        lb = yq
        sa = (fa + fb) * (fa - fb) % q
        sb = 2 * fa * fb % q
        fa = (sa * la - sb * lb) % q
        fb = (sa * lb + sb * la) % q
        nx = (lam * lam - 2 * tx) % q
        ty = (lam * (tx - nx) - ty) % q
        tx = nx
        if (r >> bit_index) & 1:
            if tx == xp:
                if (ty + yp) % q == 0:
                    tx, ty = None, None
                    continue
                lam = (3 * tx * tx + 1) * pow(2 * ty, -1, q) % q
            else:
                lam = (ty - yp) * pow(tx - xp, -1, q) % q
            la = (lam * (xq + xp) - yp) % q
            lb = yq
            fa, fb = (fa * la - fb * lb) % q, (fa * lb + fb * la) % q
            nx = (lam * lam - tx - xp) % q
            ty = (lam * (tx - nx) - ty) % q
            tx = nx
    return (fa, fb)


def _oracle_pair(g, p, q):
    if p.point is None or q.point is None:
        return (1, 0)
    return g._final_exponentiation(_affine_miller_loop(g, p.point, q.point))


class TestCachedLinePairing:
    """The line-cached Miller loop on the G2 argument is bit-identical to the
    affine loop on the G1 argument, in both argument orders."""

    @pytest.mark.parametrize("name", [
        "toy-64", "test-80", pytest.param("paper-160", marks=pytest.mark.slow),
    ])
    def test_matches_affine_oracle(self, name):
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])
        rng = random.Random(name)
        for _ in range(3):
            p, q = g.random_g1(rng), g.random_g2(rng)
            expected = _oracle_pair(g, p, q)
            assert g.pair(p, q).value == expected
            swapped = (GroupElement(g, q.point, "g1"), GroupElement(g, p.point, "g2"))
            assert g.pair(*swapped).value == expected
        assert g.pair(g.g1_identity(), g.g2()).value == (1, 0)
        assert g.pair(g.g1(), g.g2_identity()).value == (1, 0)


class TestPairingCheck:
    @pytest.fixture()
    def bls(self, g):
        rng = random.Random(11)
        sk = g.random_nonzero_scalar(rng)
        message = g.hash_to_g1(b"pairing-check")
        return g.g2() ** sk, message, message**sk

    def test_accepts_true_bls_relation(self, g, bls):
        pk, message, sigma = bls
        assert g.pairing_check([(sigma, g.g2()), (message.inverse(), pk)])

    def test_rejects_tampered_signature(self, g, bls):
        pk, message, sigma = bls
        assert not g.pairing_check([(sigma * g.g1(), g.g2()), (message.inverse(), pk)])

    def test_rejects_swapped_roles(self, g, bls):
        pk, message, sigma = bls
        assert not g.pairing_check([(sigma, pk), (message.inverse(), g.g2())])

    def test_counts_one_pairing_per_term(self, g, bls):
        pk, message, sigma = bls
        counter = OperationCounter()
        g.attach_counter(counter)
        try:
            g.pairing_check([(sigma, g.g2()), (message.inverse(), pk)])
            g.pairing_check([(sigma, g.g2()), (g.g1_identity(), pk), (message, pk)])
        finally:
            g.detach_counter()
        assert counter.pairings == 5


class TestLineCache:
    def test_stays_within_cap_and_results_unchanged(self):
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
        rng = random.Random(7)
        p = g.random_g1(rng)
        keys = [g.random_g2(rng) for _ in range(type_a._LINE_CACHE_SIZE + 5)]
        for q in keys:
            assert g.pair(p, q).value == _oracle_pair(g, p, q)
            assert len(g._lines) <= type_a._LINE_CACHE_SIZE
        for q in keys[:3]:
            assert g.pair(p, q).value == _oracle_pair(g, p, q)

    def test_concurrent_misses_stay_correct_and_bounded(self):
        """Threads sharing one group race on cache misses and clears; lines
        are a pure function of the point, so results never change and the
        cache overshoots its cap by at most one entry per thread."""
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
        rng = random.Random(9)
        p = g.random_g1(rng)
        keys = [g.random_g2(rng) for _ in range(type_a._LINE_CACHE_SIZE * 2)]
        expected = [_oracle_pair(g, p, q) for q in keys]
        threads_n = 6
        results: dict = {}
        sizes = []

        def work(offset):
            for i in range(len(keys)):
                j = (i + offset) % len(keys)
                results[(offset, j)] = g.pair(p, keys[j]).value
                sizes.append(len(g._lines))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * n,)) for n in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == threads_n * len(keys)
        assert all(value == expected[j] for (_, j), value in results.items())
        assert max(sizes) <= type_a._LINE_CACHE_SIZE + threads_n

    def test_pickle_drops_cache_and_keeps_equality(self):
        g = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
        e = g.pair(g.g1(), g.g2())
        assert g._lines
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and hash(clone) == hash(g)
        assert clone._lines == {}
        assert g._lines
        assert clone.pair(clone.g1(), clone.g2()) == e
