"""Precompute cache: fast builds match generic ones; corruption never lies.

The acceptance bar from the issue: a corrupt or truncated cache file falls
back to a rebuild — it may cost time, it must never produce wrong answers.
"""

import json
import random

import pytest

from repro.ec.fixed_base import FixedBaseTable
from repro.ec.precompute import (
    PrecomputeCacheError,
    build_tables_fast,
    cache_key,
    cache_path,
    load_or_build,
    load_tables,
    save_tables,
)


@pytest.fixture()
def bases(group):
    rng = random.Random(29)
    return [group.random_g1(rng) for _ in range(3)]


BITS = 64


def _assert_tables_correct(group, bases, tables):
    rng = random.Random(31)
    exponents = [0, 1, 5, (1 << BITS) - 1] + [rng.getrandbits(BITS) for _ in range(3)]
    for base, table in zip(bases, tables):
        for e in exponents:
            assert table.power(e) == base**e


class TestFastBuild:
    def test_matches_generic_builder(self, group, bases):
        fast = build_tables_fast(bases, BITS)
        generic = [FixedBaseTable(base, BITS) for base in bases]
        for f, g in zip(fast, generic):
            assert f._table == g._table
        _assert_tables_correct(group, bases, fast)

    @pytest.mark.parametrize("window", [1, 4, 5])
    def test_tallies_what_generic_builder_tallies(self, group, bases, window):
        from repro.pairing.interface import OperationCounter

        tallies = []
        for build in (
            lambda: build_tables_fast(bases, BITS, window=window),
            lambda: [FixedBaseTable(base, BITS, window=window) for base in bases],
        ):
            counter = OperationCounter()
            group.attach_counter(counter)
            try:
                build()
            finally:
                group.detach_counter()
            tallies.append(counter.snapshot())
        assert tallies[0] == tallies[1]
        assert tallies[0]["mul_g1"] > 0

    def test_identity_base(self, group):
        identity = group.g1_identity()
        (table,) = build_tables_fast([identity], BITS)
        assert table.power(12345) == identity

    def test_empty_input(self):
        assert build_tables_fast([], BITS) == []

    def test_window_widths(self, group, bases):
        for window in (1, 2, 3, 5):
            tables = build_tables_fast(bases[:1], BITS, window=window)
            _assert_tables_correct(group, bases[:1], tables)


class TestCacheRoundTrip:
    def test_miss_then_hit(self, group, bases, tmp_path):
        tables, status = load_or_build(tmp_path, group, bases, BITS)
        assert status == "miss"
        _assert_tables_correct(group, bases, tables)
        again, status = load_or_build(tmp_path, group, bases, BITS)
        assert status == "hit"
        for a, b in zip(tables, again):
            assert a._table == b._table

    def test_no_cache_dir(self, group, bases):
        tables, status = load_or_build(None, group, bases, BITS)
        assert status == "uncached"
        _assert_tables_correct(group, bases, tables)

    def test_distinct_geometry_distinct_keys(self, group, bases):
        k1 = cache_key(group, bases, BITS, 4)
        assert cache_key(group, bases, BITS, 5) != k1
        assert cache_key(group, bases, BITS + 8, 4) != k1
        assert cache_key(group, bases[:2], BITS, 4) != k1

    def test_save_load_explicit(self, group, bases, tmp_path):
        tables = build_tables_fast(bases, BITS)
        path = tmp_path / "tables.json"
        save_tables(path, group, tables, BITS)
        loaded = load_tables(path, group, bases, BITS, 4)
        for a, b in zip(tables, loaded):
            assert a._table == b._table


class TestCorruptionFallsBackToRebuild:
    def _cached(self, group, bases, tmp_path):
        load_or_build(tmp_path, group, bases, BITS)
        return cache_path(tmp_path, cache_key(group, bases, BITS, 4))

    def test_truncated_file(self, group, bases, tmp_path):
        path = self._cached(group, bases, tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        tables, status = load_or_build(tmp_path, group, bases, BITS)
        assert status == "rebuilt"
        _assert_tables_correct(group, bases, tables)

    def test_garbage_file(self, group, bases, tmp_path):
        path = self._cached(group, bases, tmp_path)
        path.write_text("not json at all {")
        tables, status = load_or_build(tmp_path, group, bases, BITS)
        assert status == "rebuilt"
        _assert_tables_correct(group, bases, tables)

    def test_tampered_point_fails_checksum(self, group, bases, tmp_path):
        path = self._cached(group, bases, tmp_path)
        doc = json.loads(path.read_text())
        doc["tables"][0]["rows"][0][0][0] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(PrecomputeCacheError, match="checksum"):
            load_tables(path, group, bases, BITS, 4)
        tables, status = load_or_build(tmp_path, group, bases, BITS)
        assert status == "rebuilt"
        _assert_tables_correct(group, bases, tables)

    def test_tampered_point_with_fixed_checksum_fails_curve_check(
        self, group, bases, tmp_path
    ):
        from repro.ec.precompute import _payload_checksum

        path = self._cached(group, bases, tmp_path)
        doc = json.loads(path.read_text())
        del doc["checksum"]
        doc["tables"][0]["rows"][0][0][0] = (doc["tables"][0]["rows"][0][0][0] + 1) % group.q
        doc["checksum"] = _payload_checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(PrecomputeCacheError, match="not on the curve"):
            load_tables(path, group, bases, BITS, 4)

    def test_wrong_bases_rejected(self, group, bases, tmp_path):
        path = self._cached(group, bases, tmp_path)
        rng = random.Random(37)
        others = [group.random_g1(rng) for _ in range(3)]
        with pytest.raises(PrecomputeCacheError, match="different bases"):
            load_tables(path, group, others, BITS, 4)

    def test_wrong_exponent_bits_rejected(self, group, bases, tmp_path):
        path = self._cached(group, bases, tmp_path)
        with pytest.raises(PrecomputeCacheError, match="exponent size"):
            load_tables(path, group, bases, BITS + 8, 4)
