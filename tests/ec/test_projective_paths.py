"""The projective signing path against the affine code it replaced.

``FixedBaseTable.power`` and ``aggregate_with_tables`` sum table entries
through the group's ``_sums`` hook (affine tree sums, one inversion per
level), and ``_raw_scalar_mul`` runs a width-4 NAF.  The oracles below are the
deleted implementations: the affine ``*`` fold and binary Jacobian
double-and-add.  Points must agree bit for bit, and so must every
:class:`OperationCounter` tally, since replay digests hash ``mul_g1``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.blocks import Block
from repro.core.params import setup
from repro.ec.fixed_base import WINDOW, FixedBaseTable, aggregate_with_tables
from repro.ec.jacobian import jac_add, jac_double
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import GroupElement, OperationCounter

_SETS = ["toy-64", "test-80", pytest.param("paper-160", marks=pytest.mark.slow)]


def _oracle_power(table: FixedBaseTable, exponent: int):
    """The affine fold: one ``*`` per looked-up entry after the first."""
    group = table.base.group
    if group.counter is not None:
        group.counter.exp_g1_fixed_base += 1
    exponent %= group.order
    acc = None
    j = 0
    while exponent:
        digit = exponent & ((1 << WINDOW) - 1)
        if digit:
            term = GroupElement(group, table._table[j][digit])
            acc = term if acc is None else acc * term
        exponent >>= WINDOW
        j += 1
    if acc is None:
        return group.g1_identity()
    return acc


def _oracle_aggregate(params, block, tables):
    group = params.group
    acc = group.hash_to_g1(block.block_id)
    for table, m_l in zip(tables, block.elements):
        if m_l:
            acc = acc * _oracle_power(table, m_l)
        elif group.counter is not None:
            group.counter.exp_g1_skipped += 1
    return acc


def _oracle_scalar_mul(q, point, n):
    """Binary Jacobian double-and-add, normalized once."""
    if point is None or n == 0:
        return None
    if n < 0:
        point, n = (point[0], (-point[1]) % q), -n
    rx, ry, rz = 0, 0, 0
    ax, ay, az = point[0], point[1], 1
    while n:
        if n & 1:
            if rz == 0:
                rx, ry, rz = ax, ay, az
            else:
                rx, ry, rz = jac_add(rx, ry, rz, ax, ay, az, q)
        n >>= 1
        if n:
            ax, ay, az = jac_double(ax, ay, az, q)
    if rz == 0:
        return None
    zinv = pow(rz, -1, q)
    return (rx * zinv * zinv % q, ry * zinv * zinv * zinv % q)


def _counted(group, fn, *args):
    """``fn(*args)`` and the counter tallies it made."""
    counter = OperationCounter()
    group.attach_counter(counter)
    try:
        result = fn(*args)
    finally:
        group.detach_counter()
    return result, counter.snapshot()


def _same(group, new, oracle, *args):
    got, got_ops = _counted(group, new, *args)
    want, want_ops = _counted(group, oracle, *args)
    assert got == want
    assert got_ops == want_ops


@pytest.fixture(scope="module", params=_SETS)
def setting(request):
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[request.param])
    params = setup(group, k=4)
    tables = [FixedBaseTable(u, group.order.bit_length()) for u in params.u]
    return group, params, tables


def _power_exponents(group, n_random):
    r = group.order
    all_fifteen = (1 << 4 * ((r.bit_length() - 1) // 4)) - 1
    rng = random.Random(r)
    return [0, 1, r - 1, r, -5, all_fifteen] + [
        rng.randrange(r) for _ in range(n_random)
    ]


class TestTablePower:
    def test_matches_affine_fold(self, setting):
        group, _, tables = setting
        n_random = 30 if group.order.bit_length() < 160 else 3
        for e in _power_exponents(group, n_random):
            _same(group, tables[0].power, lambda x: _oracle_power(tables[0], x), e)

    def test_tallies_digits_minus_one(self, setting):
        group, _, tables = setting
        _, ops = _counted(group, tables[1].power, 0x1F0F)
        assert ops["mul_g1"] == 2 and ops["exp_g1_fixed_base"] == 1


class TestAggregate:
    def test_matches_affine_fold(self, setting):
        group, params, tables = setting
        r = group.order
        rng = random.Random(r + 1)
        blocks = [
            Block(b"blk-%d" % i, tuple(rng.randrange(r) for _ in range(params.k)))
            for i in range(3)
        ]
        blocks += [
            Block(b"zeros", (0, rng.randrange(r), 0, 1)),
            Block(b"all-zero", (0,) * params.k),
            Block(b"edges", (r - 1, 1, 0, r - 1)),
        ]
        for block in blocks:
            _same(
                group,
                aggregate_with_tables,
                _oracle_aggregate,
                params, block, tables,
            )


class TestRawScalarMul:
    def test_matches_double_and_add(self, setting):
        group, _, _ = setting
        q, r, h = group.q, group.order, group.params.h
        rng = random.Random(r + 2)
        raw = group._hash_to_curve(b"raw try-and-increment point")  # order h·r
        points = [
            group.g1().point,
            group.random_g1(rng).point,
            (0, 0),  # the 2-torsion point of y² = x³ + x
            raw,
            None,
        ]
        # Small-order points make some of P, 3P, 5P, 7P infinity (order 3
        # exists on test-80).
        for ell in (3, 4, 5, 7):
            if h % ell == 0:
                points.append(_oracle_scalar_mul(q, raw, h * r // ell))
        scalars = [0, 1, 2, -5, r - 1, r, r + 1, h, h * r, rng.getrandbits(360)]
        scalars += [rng.randrange(r) for _ in range(3)]
        for point in points:
            for n in scalars:
                want = _oracle_scalar_mul(q, point, n)
                assert group._raw_scalar_mul(point, n) == want, (point, n)

    def test_raw_point_has_cofactor_part(self, setting):
        """The order-h·r case above really lies outside G1."""
        group, _, _ = setting
        point = group._hash_to_curve(b"raw try-and-increment point")
        assert group._raw_scalar_mul(point, group.order) is not None
        assert group._raw_scalar_mul(point, group.order * group.params.h) is None
