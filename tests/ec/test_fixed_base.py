"""Tests for fixed-base precomputed exponentiation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import aggregate_block, encode_data
from repro.ec.fixed_base import WINDOW, FixedBaseTable, aggregate_with_tables
from repro.pairing.interface import GroupElement, OperationCounter


@pytest.fixture(scope="module")
def table(group):
    import random

    base = group.g1() ** random.Random(3).randrange(2, group.order)
    return base, FixedBaseTable(base, group.order.bit_length())


class TestFixedBaseTable:
    def test_matches_plain_pow(self, group, table):
        base, t = table
        for e in (1, 2, 3, 15, 16, 17, 255, 0xDEADBEEF, group.order - 1):
            assert t.power(e) == base**e

    def test_zero_exponent(self, group, table):
        _, t = table
        assert t.power(0).is_identity()

    def test_exponent_reduced_mod_order(self, group, table):
        base, t = table
        assert t.power(group.order + 7) == base**7

    @settings(max_examples=30)
    @given(st.integers(0, 2**64 - 1))
    def test_property_matches_pow(self, e):
        import random

        from repro.pairing import toy_group

        group = toy_group()
        base = group.g1() ** 12345
        t = _cached_table(group, base)
        assert t.power(e) == base**e

    def test_powers_match_single_powers(self, group, table):
        """One batch gives the elements and the tallies of one call each."""
        base, t = table
        exponents = [0, 1, 2, 15, 17, 0xDEADBEEF, group.order - 1, group.order + 7]
        expected = [base**e for e in exponents]
        tallies = []
        for run in (lambda: t.powers(exponents), lambda: [t.power(e) for e in exponents]):
            counter = OperationCounter()
            group.attach_counter(counter)
            try:
                assert run() == expected
            finally:
                group.detach_counter()
            tallies.append(counter)
        assert tallies[0] == tallies[1]
        assert t.powers([]) == []

    def test_storage_accounting(self, group):
        t = FixedBaseTable(group.g1(), 64)
        assert t.digits == 16
        assert t.storage_points() == 16 * 15

    def test_uses_no_exponentiations(self, group, table):
        """The whole point: powers come out as multiplications only."""
        from repro.pairing.interface import OperationCounter

        _, t = table
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            t.power(0x123456789ABCDEF)
        finally:
            group.detach_counter()
        assert counter.exp_g1 == 0
        assert counter.mul_g1 > 0


BITS = 64


class TestBuild:
    """The batch-affine build against plain exponentiation."""

    @pytest.fixture()
    def bases(self, group):
        import random

        rng = random.Random(29)
        return [group.random_g1(rng) for _ in range(3)]

    def test_every_entry_is_its_power(self, group, bases):
        """Row j, digit d holds base^(d·2^(w·j))."""
        for base in bases:
            table = FixedBaseTable(base, BITS)
            assert len(table._table) == table.digits == BITS // WINDOW
            for j, row in enumerate(table._table):
                for d in range(1, 1 << WINDOW):
                    assert row[d] == (base ** (d << (WINDOW * j))).point

    @pytest.mark.parametrize("bits", [1, 4, 5, BITS])
    def test_tally(self, group, bases, bits):
        """digits·(radix − 2 + w) mul_g1 per table: a ``*`` per row entry
        past the first and w squarings per row; no Exp. The widths 1, 4
        and 5 straddle a digit boundary: digits = ⌈bits / w⌉."""
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            for base in bases:
                FixedBaseTable(base, bits)
        finally:
            group.detach_counter()
        digits = -(-bits // WINDOW)
        expected = len(bases) * digits * ((1 << WINDOW) - 2 + WINDOW)
        assert counter.mul_g1 == expected
        assert counter.exp_g1 == 0

    def test_identity_base(self, group):
        identity = group.g1_identity()
        table = FixedBaseTable(identity, BITS)
        assert table.power(12345) == identity

    def test_empty_input(self, group, bases):
        """No exponent bits: no rows, and only the exponent 0 is in range."""
        table = FixedBaseTable(bases[0], 0)
        assert table._table == [] and table.storage_points() == 0
        assert table.power(0).is_identity()
        with pytest.raises(ValueError, match="precomputed range"):
            table.power(1)

    @pytest.mark.parametrize("with_subgroup_part", [False, True])
    def test_order_two_component(self, group, with_subgroup_part):
        """Bases outside the order-r subgroup: (0, 0), and σ·(0, 0)."""
        import random

        base = GroupElement(group, (0, 0))
        if with_subgroup_part:
            base = group.random_g1(random.Random(41)) * base
        table = FixedBaseTable(base, group.order.bit_length())
        for e in (1, 2, 3, 2**63 + 5, group.order + 7):
            assert table.power(e) == base**e


def _tables(bases, bits):
    return [FixedBaseTable(base, bits) for base in bases]


_TABLE_CACHE = {}


def _cached_table(group, base):
    key = base.to_bytes()
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = FixedBaseTable(base, group.order.bit_length())
    return _TABLE_CACHE[key]


class TestAggregateWithTables:
    def test_matches_plain_aggregate(self, params_k4):
        tables = _tables(params_k4.u, params_k4.order.bit_length())
        for block in encode_data(bytes(range(1, 150)), params_k4, b"f"):
            assert aggregate_with_tables(params_k4, block, tables) == aggregate_block(
                params_k4, block
            )

    def test_wrong_table_count(self, params_k4):
        tables = _tables(params_k4.u[:-1], params_k4.order.bit_length())
        block = encode_data(b"x", params_k4, b"f")[0]
        with pytest.raises(ValueError):
            aggregate_with_tables(params_k4, block, tables)

    def test_signatures_from_fast_aggregates_verify(self, group, params_k4, rng):
        """Fast aggregation composes with the full signing pipeline."""
        from repro.crypto.bls import bls_keygen, bls_verify_element

        kp = bls_keygen(group, rng)
        tables = _tables(params_k4.u, params_k4.order.bit_length())
        block = encode_data(b"fast path", params_k4, b"f")[0]
        element = aggregate_with_tables(params_k4, block, tables)
        assert bls_verify_element(group, kp.pk, element, element**kp.sk)
