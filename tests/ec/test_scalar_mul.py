"""Tests for w-NAF recoding, ``jac_scalar_mul`` and ``jac_msm`` on the
type-A toy-64 curve, against binary double-and-add."""

import random

import pytest

from repro.ec.jacobian import (
    _wnaf_digits,
    affine_add,
    jac_msm,
    jac_scalar_mul,
    jac_straus,
)
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from tests.ec.test_projective_paths import _oracle_scalar_mul

GROUP = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
Q = GROUP.q
P_BASE = GROUP.g1().point


def _mul(n, point=P_BASE):
    return _oracle_scalar_mul(Q, point, n)


def _naive_sum(points, scalars):
    acc = None
    for pt, sc in zip(points, scalars):
        acc = affine_add(acc, _mul(sc, pt), Q)
    return acc


class TestWnafDigits:
    def test_zero(self):
        assert _wnaf_digits(0, 4) == []

    def test_reconstruction(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.getrandbits(64)
            for width in (2, 3, 4, 5):
                digits = _wnaf_digits(n, width)
                assert sum(d << i for i, d in enumerate(digits)) == n

    def test_nonzero_digits_are_odd(self):
        digits = _wnaf_digits(0xDEADBEEF, 4)
        assert all(d % 2 == 1 for d in digits if d != 0)

    def test_digit_bounds(self):
        for width in (2, 3, 4, 5):
            digits = _wnaf_digits(0xABCDEF0123456789, width)
            half = 1 << (width - 1)
            assert all(-half < d < half for d in digits)


class TestWnafMul:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 255, 12345, 999331])
    def test_matches_double_and_add(self, n):
        assert jac_scalar_mul(P_BASE, n, Q) == _mul(n)

    def test_random_scalars(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.getrandbits(40)
            assert jac_scalar_mul(P_BASE, n, Q) == _mul(n)

    def test_negative(self):
        assert jac_scalar_mul(P_BASE, -17, Q) == _mul(-17)

    def test_matches_one_term_straus(self):
        """``jac_scalar_mul`` is one-term Straus: both land on the
        double-and-add point for raw points, (0, 0) and unreduced or
        negative scalars."""
        rng = random.Random(4)
        for point in (P_BASE, GROUP._hash_to_curve(b"one-term"), (0, 0)):
            for n in (1, -1, 2, 3, 7, 8, -9, 255, GROUP.order - 1, GROUP.order,
                      GROUP.q, rng.getrandbits(64), -rng.getrandbits(40)):
                want = _mul(n, point)
                assert jac_scalar_mul(point, n, Q) == want, (point, n)
                assert jac_straus([point], [n], Q) == want, (point, n)

    @pytest.mark.parametrize("width", [2, 3, 4, 6])
    def test_widths(self, width):
        """The width-w NAF evaluated on the curve (Horner: double, then add
        the signed odd digit multiple) lands on n·P."""
        n = 987654321
        acc = None
        for digit in reversed(_wnaf_digits(n, width)):
            acc = affine_add(acc, acc, Q)
            acc = affine_add(acc, _mul(digit), Q)
        assert acc == _mul(n) == jac_scalar_mul(P_BASE, n, Q)


class TestMultiScalarMul:
    def test_matches_naive(self):
        rng = random.Random(5)
        points = [_mul(n) for n in (1, 2, 5, 11)]
        scalars = [rng.getrandbits(30) for _ in points]
        assert jac_msm(points, scalars, Q) == _naive_sum(points, scalars)

    def test_single_term(self):
        assert jac_msm([P_BASE], [7], Q) == _mul(7)

    def test_zero_scalars(self):
        assert jac_msm([P_BASE, P_BASE], [0, 0], Q) is None

    def test_negative_scalars(self):
        assert jac_msm([P_BASE, _mul(2)], [-3, 5], Q) == _mul(7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            jac_msm([P_BASE], [1, 2], Q)

    def test_empty(self):
        assert jac_msm([], [], Q) is None

    def test_many_terms(self):
        rng = random.Random(6)
        points = [_mul(n) for n in range(1, 33)]
        scalars = [rng.getrandbits(20) for _ in points]
        assert jac_msm(points, scalars, Q) == _naive_sum(points, scalars)
