"""Tests for type-A parameter sets and their generation."""

import math

import pytest

from repro.mathkit.ntheory import is_prime
from repro.pairing.params import TYPE_A_PARAM_SETS, TypeAParams, generate_type_a_params


class TestPinnedSets:
    @pytest.mark.parametrize("name", ["paper-160", "test-80", "toy-64"])
    def test_validate(self, name):
        TYPE_A_PARAM_SETS[name].validate()

    def test_paper_bit_lengths(self):
        p = TYPE_A_PARAM_SETS["paper-160"]
        assert p.r.bit_length() == 160
        assert p.q.bit_length() == 512

    def test_toy_bit_lengths(self):
        p = TYPE_A_PARAM_SETS["toy-64"]
        assert p.r.bit_length() == 64

    def test_structure(self):
        for params in TYPE_A_PARAM_SETS.values():
            assert is_prime(params.r)
            assert is_prime(params.q)
            assert params.q % 4 == 3
            assert params.h * params.r == params.q + 1
            assert math.gcd(params.h, params.r) == 1


class TestGeneration:
    def test_deterministic_with_seed(self):
        a = generate_type_a_params(rbits=32, qbits=64, seed=99)
        b = generate_type_a_params(rbits=32, qbits=64, seed=99)
        assert (a.r, a.q, a.h, a.gx, a.gy) == (b.r, b.q, b.h, b.gx, b.gy)

    def test_fresh_generation_validates(self):
        params = generate_type_a_params(rbits=40, qbits=80, seed=123, name="t")
        params.validate()
        assert params.name == "t"
        assert params.r.bit_length() == 40
        assert params.q.bit_length() == 80

    def test_generator_has_order_r(self):
        from repro.ec.jacobian import jac_scalar_mul

        params = generate_type_a_params(rbits=32, qbits=64, seed=7)
        generator = (params.gx, params.gy)
        assert jac_scalar_mul(generator, params.r, params.q) is None
        assert jac_scalar_mul(generator, 1, params.q) == generator


class TestValidateRejects:
    def test_bad_r(self):
        good = TYPE_A_PARAM_SETS["toy-64"]
        bad = TypeAParams(name="x", r=good.r + 1, q=good.q, h=good.h, gx=good.gx, gy=good.gy)
        with pytest.raises(ValueError):
            bad.validate()

    def test_bad_cofactor(self):
        good = TYPE_A_PARAM_SETS["toy-64"]
        bad = TypeAParams(name="x", r=good.r, q=good.q, h=good.h + 1, gx=good.gx, gy=good.gy)
        with pytest.raises(ValueError):
            bad.validate()

    def test_generator_off_curve(self):
        good = TYPE_A_PARAM_SETS["toy-64"]
        bad = TypeAParams(name="x", r=good.r, q=good.q, h=good.h, gx=good.gx + 1, gy=good.gy)
        with pytest.raises(ValueError):
            bad.validate()

    def test_cofactor_divisible_by_order(self):
        # r | h: h⁻¹ mod r does not exist.  Checked before q + 1 = h·r, so
        # this hand-built set (whose q no longer matches h) hits it.
        good = TYPE_A_PARAM_SETS["toy-64"]
        bad = TypeAParams(name="x", r=good.r, q=good.q, h=good.h * good.r,
                          gx=good.gx, gy=good.gy)
        with pytest.raises(ValueError, match=r"gcd\(h, r\) != 1"):
            bad.validate()
