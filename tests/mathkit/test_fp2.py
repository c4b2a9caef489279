"""Tests for F_q² = F_q[i]/(i² + 1) as type-A GT computes it.

:class:`~repro.pairing.type_a.TypeAPairingGroup` keeps GT values as raw
``(a, b)`` pairs meaning a + b·i and multiplies, squares, inverts and
exponentiates them with ``_gt_mul``/``_gt_pow``/``_gt_inv``; the final
exponentiation relies on the Frobenius identity x^q = conj(x).  These are
the field laws those four functions must obey, on the toy-64 field.
"""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

G = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
P = G.q
ONE = G._gt_one()

coords = st.integers(0, P - 1)


def elem(a, b):
    return (a % P, b % P)


def conj(x):
    return elem(x[0], -x[1])


class TestConstruction:
    def test_requires_3_mod_4(self):
        # i² = −1 defines F_q² only when −1 is a non-residue, i.e. q ≡ 3 mod 4.
        bad = dataclasses.replace(TYPE_A_PARAM_SETS["toy-64"], q=13)  # 13 % 4 == 1
        with pytest.raises(ValueError, match="q % 4"):
            TypeAPairingGroup(bad)

    def test_identities(self):
        assert G._gt_is_one(ONE)
        assert not G._gt_is_one(elem(0, 1))
        assert G._gt_mul(elem(0, 1), elem(0, 1)) == elem(-1, 0)

    def test_random(self):
        rng = random.Random(2)
        e = G.pair(G.random_g1(rng), G.g2()).value
        assert 0 <= e[0] < P and 0 <= e[1] < P
        assert G._gt_is_one(G._gt_pow(e, G.order))


class TestArithmetic:
    @given(coords, coords, coords, coords)
    def test_mul_commutes(self, a, b, c, d):
        assert G._gt_mul(elem(a, b), elem(c, d)) == G._gt_mul(elem(c, d), elem(a, b))

    @given(coords, coords)
    def test_square_matches_mul(self, a, b):
        x = elem(a, b)
        assert G._gt_pow(x, 2) == G._gt_mul(x, x)

    @given(coords, coords)
    def test_inverse(self, a, b):
        x = elem(a, b)
        if x == (0, 0):
            return
        assert G._gt_mul(x, G._gt_inv(x)) == ONE

    @given(coords, coords)
    def test_conjugate_norm(self, a, b):
        x = elem(a, b)
        assert G._gt_mul(x, conj(x)) == elem(a * a + b * b, 0)

    def test_pow_known(self):
        x = elem(0, 1)
        assert G._gt_pow(x, 2) == elem(-1, 0)
        assert G._gt_pow(x, 4) == ONE

    def test_pow_negative(self):
        x = G.pair(G.g1() ** 5, G.g2())
        assert ((x**-3) * (x**3)).is_identity()

    @given(coords, coords)
    def test_frobenius_is_p_power(self, a, b):
        x = elem(a, b)
        assert G._gt_pow(x, P) == conj(x)

    @given(coords, coords)
    def test_fermat_order(self, a, b):
        x = elem(a, b)
        if x == (0, 0):
            return
        assert G._gt_pow(x, P * P - 1) == ONE
