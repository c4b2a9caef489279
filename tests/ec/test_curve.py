"""Group-law tests for the G1 arithmetic of :mod:`repro.ec.jacobian`.

The curve is the type-A shape y² = x³ + x over F_103 (103 ≡ 3 mod 4, so
#E = 104 = 2³·13): small enough to enumerate, with points of every order
dividing 104, including the 2-torsion point (0, 0).  The affine add, the
Jacobian add/double/mixed-add and the width-4 NAF scalar multiplication
must all obey the group law on every one of them.
"""

import random

from repro.ec.jacobian import (
    affine_add,
    batch_affine_sums,
    jac_add,
    jac_add_mixed,
    jac_double,
    jac_scalar_mul,
    jac_to_affine,
)

Q = 103
ALL_POINTS = [None] + [
    (x, y) for x in range(Q) for y in range(Q) if (y * y - x**3 - x) % Q == 0
]
ORDER = len(ALL_POINTS)


def _neg(p):
    return None if p is None else (p[0], (-p[1]) % Q)


def _jac(p):
    return (0, 0, 0) if p is None else (p[0], p[1], 1)


class TestGroupLaw:
    def test_identity(self):
        for p in ALL_POINTS:
            assert affine_add(p, None, Q) == p
            assert affine_add(None, p, Q) == p
            assert jac_to_affine(jac_add(*_jac(p), 0, 0, 0, Q), Q) == p

    def test_inverse(self):
        for p in ALL_POINTS[1:]:
            assert affine_add(p, _neg(p), Q) is None
            assert jac_to_affine(jac_add(*_jac(p), *_jac(_neg(p)), Q), Q) is None
            assert jac_to_affine(jac_add_mixed(*_jac(p), *_neg(p), Q), Q) is None

    def test_commutativity(self):
        for a in ALL_POINTS[1:20]:
            for b in ALL_POINTS:
                assert affine_add(a, b, Q) == affine_add(b, a, Q)

    def test_associativity_exhaustive_sample(self):
        rng = random.Random(1)
        for _ in range(300):
            a, b, c = (rng.choice(ALL_POINTS) for _ in range(3))
            assert affine_add(affine_add(a, b, Q), c, Q) == affine_add(a, affine_add(b, c, Q), Q)

    def test_double_matches_add(self):
        for p in ALL_POINTS[1:]:
            twice = affine_add(p, p, Q)
            assert jac_to_affine(jac_double(*_jac(p), Q), Q) == twice
            assert jac_to_affine(jac_add(*_jac(p), *_jac(p), Q), Q) == twice
            assert jac_to_affine(jac_add_mixed(*_jac(p), *p, Q), Q) == twice

    def test_group_order_annihilates(self):
        for p in ALL_POINTS:
            assert jac_scalar_mul(p, ORDER, Q) is None

    def test_scalar_mul_matches_repeated_add(self):
        for p in ALL_POINTS:
            acc = None
            for n in range(2 * ORDER + 3):
                assert jac_scalar_mul(p, n, Q) == acc, (p, n)
                acc = affine_add(acc, p, Q)

    def test_negative_scalar(self):
        for p in ALL_POINTS[1:]:
            for n in (1, 3, 7, 55):
                assert jac_scalar_mul(p, -n, Q) == _neg(jac_scalar_mul(p, n, Q))

    def test_closure(self):
        """Every add formula returns a curve point, the same one."""
        point_set = set(ALL_POINTS)
        rng = random.Random(2)
        for _ in range(300):
            a, b = rng.choice(ALL_POINTS), rng.choice(ALL_POINTS)
            total = affine_add(a, b, Q)
            assert total in point_set
            assert jac_to_affine(jac_add(*_jac(a), *_jac(b), Q), Q) == total
            assert batch_affine_sums([[a, b]], Q) == [total]

    def test_subtraction(self):
        for a in ALL_POINTS[::7]:
            for b in ALL_POINTS:
                assert affine_add(affine_add(a, _neg(b), Q), b, Q) == a

    def test_two_torsion_doubling(self):
        # Points with y == 0 are 2-torsion: doubling gives infinity.
        torsion = [p for p in ALL_POINTS[1:] if p[1] == 0]
        assert (0, 0) in torsion
        for p in torsion:
            assert affine_add(p, p, Q) is None
            assert jac_to_affine(jac_double(*_jac(p), Q), Q) is None
            assert jac_scalar_mul(p, 2, Q) is None
