"""Tests for try-and-increment hash-to-curve."""

import pytest

from repro.ec.hash_to_curve import _hash_to_int, hash_to_curve_try_increment
from repro.mathkit.ntheory import sqrt_mod

# y² = x³ + x over a 3-mod-4 prime (the type-A curve shape).
P = 10007
A, B = 1, 0


def _hash(message: bytes):
    return hash_to_curve_try_increment(message, P)


class TestHashToInt:
    def test_deterministic(self):
        assert _hash_to_int(b"m", 0, 128, b"d") == _hash_to_int(b"m", 0, 128, b"d")

    def test_counter_changes_output(self):
        assert _hash_to_int(b"m", 0, 128, b"d") != _hash_to_int(b"m", 1, 128, b"d")

    def test_domain_separation(self):
        assert _hash_to_int(b"m", 0, 128, b"d1") != _hash_to_int(b"m", 0, 128, b"d2")

    def test_bit_bound(self):
        for bits in (8, 100, 256, 300, 512):
            assert _hash_to_int(b"x", 3, bits, b"d").bit_length() <= bits


class TestHashToCurve:
    def test_point_on_curve(self):
        x, y = _hash(b"hello")
        assert (y * y - (x**3 + A * x + B)) % P == 0

    def test_deterministic(self):
        assert _hash(b"msg") == _hash(b"msg")

    def test_different_messages_differ(self):
        assert _hash(b"msg1") != _hash(b"msg2")

    def test_canonical_root_even(self):
        _, y = _hash(b"anything")
        assert y % 2 == 0

    def test_distribution_over_many_messages(self):
        # All hashes land on the curve; x-coordinates should not collide
        # for distinct short messages (overwhelming probability).
        seen = set()
        for i in range(50):
            x, y = _hash(b"m%d" % i)
            assert (y * y - (x**3 + x)) % P == 0
            seen.add((x, y))
        assert len(seen) >= 45  # tiny field, a couple of collisions tolerable

    def test_max_attempts_exhaustion(self):
        # With max_attempts=0 nothing can be found.
        with pytest.raises(RuntimeError):
            hash_to_curve_try_increment(b"m", P, max_attempts=0)

    def test_domain_parameter(self):
        a = hash_to_curve_try_increment(b"m", P, domain=b"d1")
        b = hash_to_curve_try_increment(b"m", P, domain=b"d2")
        assert a != b

    def test_large_prime_field(self):
        big_p = 2**127 - 1  # 2^127-1 % 4 == 3
        x, y = hash_to_curve_try_increment(b"big", big_p)
        assert (y * y - (x**3 + x)) % big_p == 0
