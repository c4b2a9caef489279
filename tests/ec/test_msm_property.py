"""Property tests: w-NAF Straus, Pippenger and the ``jac_msm`` dispatch
agree with a per-term double-and-add oracle on every input.

Points are on the type-A toy-64 curve y² = x³ + x: order-r G1 points and
points outside G1 — (0, 0) of order 2 and raw try-and-increment points
with no cofactor clearing, which ``hashed_pairing_check`` feeds in.  Inputs
cover negative and zero scalars, identity points, a single term,
duplicated points, explicit windows, all-max-digit scalars, term counts
on both sides of :data:`~repro.ec.jacobian.PIPPENGER_THRESHOLD` and the
audit's 460.  Straus also meets every size below the threshold, scalars
of mixed lengths, a test-80 point of order 3 (whose 3P is infinity) and
the binary Straus kernel it replaced (``_binary_straus``, which the
protocol-level tests swap in to show unchanged proofs and verdicts).
The tree kernel ``batch_affine_sums`` under Pippenger and the fixed-base
sums is checked against an ``affine_add`` fold.
"""

import random

import pytest

from repro.ec import jacobian
from repro.ec.jacobian import (
    PIPPENGER_THRESHOLD,
    affine_add,
    batch_inverse,
    batch_affine_sums,
    batch_normalize,
    jac_msm,
    jac_pippenger,
    jac_straus,
    pippenger_window,
)
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from tests.ec.test_projective_paths import _oracle_scalar_mul

GROUP = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
Q = GROUP.q
R = GROUP.order

ALGORITHMS = [jac_straus, jac_pippenger, jac_msm]


def _points(count, rng):
    """G1 points, with about 30 % raw hashed points and an occasional
    (0, 0) mixed in."""
    out = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.3:
            out.append(GROUP._hash_to_curve(b"msm-%d-%d" % (i, rng.getrandbits(32))))
        elif roll < 0.35:
            out.append((0, 0))
        else:
            out.append(GROUP.random_g1(rng).point)
    return out


def _oracle(points, scalars):
    acc = None
    for pt, sc in zip(points, scalars):
        acc = affine_add(acc, _oracle_scalar_mul(Q, pt, sc), Q)
    return acc


def _assert_all_agree(points, scalars):
    expected = _oracle(points, scalars)
    for algorithm in ALGORITHMS:
        assert algorithm(points, scalars, Q) == expected, algorithm.__name__
    return expected


class TestAgreement:
    def test_random_inputs(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 7, 20, PIPPENGER_THRESHOLD - 1, PIPPENGER_THRESHOLD,
                  40, 64):
            points = _points(n, rng)
            scalars = [rng.randrange(-(1 << 64), 1 << 64) for _ in range(n)]
            _assert_all_agree(points, scalars)

    def test_points_outside_g1(self):
        """(0, 0) and uncleared hashed points, as ``hashed_pairing_check`` passes
        them: scalars reduced mod r but the points' order is h·r."""
        rng = random.Random(21)
        for n in (5, PIPPENGER_THRESHOLD + 6):
            points = [GROUP._hash_to_curve(b"raw-%d" % i) for i in range(n)]
            points[1] = (0, 0)
            scalars = [rng.randrange(R) for _ in range(n)]
            scalars[2] = R - 1
            _assert_all_agree(points, scalars)
            _assert_all_agree(points, [R] * n)  # r kills only G1 parts

    def test_negative_scalars(self):
        rng = random.Random(8)
        points = _points(6, rng)
        scalars = [-1, -(1 << 40), -3, -7, -255, -(Q + 1)]
        _assert_all_agree(points, scalars)
        many = _points(PIPPENGER_THRESHOLD + 2, rng)
        _assert_all_agree(many, [-rng.getrandbits(64) for _ in many])

    def test_zero_scalars(self):
        rng = random.Random(9)
        points = _points(5, rng)
        assert _assert_all_agree(points, [0] * 5) is None
        mixed = [0, 5, 0, -3, 0]
        _assert_all_agree(points, mixed)

    def test_identity_points(self):
        rng = random.Random(10)
        for n in (4, PIPPENGER_THRESHOLD + 4):
            points = _points(n, rng)
            points[1] = None
            points[3] = None
            _assert_all_agree(points, [rng.randrange(-R, R) for _ in range(n)])

    def test_single_term(self):
        rng = random.Random(11)
        for pt in (GROUP.random_g1(rng).point, GROUP._hash_to_curve(b"one"), (0, 0)):
            for scalar in (0, 1, -1, 2, R - 1, R, 1 << 63, -(1 << 63)):
                _assert_all_agree([pt], [scalar])

    def test_duplicated_points(self):
        """Equal points land in one bucket (a doubling inside the affine
        tree), and P next to −P empties it."""
        rng = random.Random(12)
        pt = GROUP.random_g1(rng).point
        for n in (8, PIPPENGER_THRESHOLD + 10):
            scalars = [rng.randrange(1 << 32) for _ in range(n)]
            result = _assert_all_agree([pt] * n, scalars)
            assert result == _oracle_scalar_mul(Q, pt, sum(scalars))
            _assert_all_agree([pt] * n, ([5, -5] * n)[:n])

    def test_pippenger_explicit_windows(self):
        rng = random.Random(13)
        for n in (10, PIPPENGER_THRESHOLD + 10):
            points = _points(n, rng)
            scalars = [rng.getrandbits(64) for _ in range(n)]
            expected = _oracle(points, scalars)
            for window in (1, 2, 3, 5, 8):
                assert jac_pippenger(points, scalars, Q, window) == expected

    def test_all_max_digit_scalars(self):
        """Scalars whose every window digit is the largest: the signed
        recoding carries out of each window, and out of the top one."""
        rng = random.Random(22)
        points = _points(12, rng)
        for scalar in ((1 << 64) - 1, R - 1):
            scalars = [scalar] * len(points)
            expected = _oracle(points, scalars)
            for window in range(1, 9):
                assert jac_pippenger(points, scalars, Q, window) == expected, window
            mixed = [scalar, -scalar] * (len(points) // 2)
            for window in range(1, 9):
                assert (jac_pippenger(points, mixed, Q, window)
                        == _oracle(points, mixed)), window

    def test_signed_digits_recompose(self):
        for scalar in (1, 2, 3, (1 << 64) - 1, R - 1, R, 1 << 100):
            for window in range(1, 9):
                half = 1 << (window - 1)
                rest, digits = scalar, []
                while rest:
                    digit, rest = jacobian._signed_digit(rest, window)
                    assert -half < digit <= half
                    digits.append(digit)
                assert sum(d << (window * i) for i, d in enumerate(digits)) == scalar
                assert len(digits) <= scalar.bit_length() // window + 1

    def test_audit_scale_pippenger_matches_straus(self):
        """460 terms, the paper's c: the windows the audit runs (6–7)."""
        rng = random.Random(23)
        points = _points(460, rng)
        scalars = [rng.randrange(-R, R) for _ in points]
        expected = jac_straus(points, scalars, Q)
        assert jac_pippenger(points, scalars, Q) == expected
        assert jac_pippenger(points, scalars, Q, 7) == expected
        assert jac_msm(points, scalars, Q) == expected


def _fold(points):
    acc = None
    for pt in points:
        acc = affine_add(acc, pt, Q)
    return acc


class TestBatchAffineSums:
    def test_matches_affine_fold(self):
        rng = random.Random(24)
        p = GROUP.random_g1(rng).point
        minus_p = (p[0], (-p[1]) % Q)
        raw = [GROUP._hash_to_curve(b"tree-%d" % i) for i in range(9)]
        lists = [
            [],
            [p],
            [None],
            [p, p],
            [p, minus_p],
            [(0, 0), (0, 0)],
            [(0, 0), (0, 0), (0, 0)],
            [p, minus_p, p],
            [p, p, p, minus_p, minus_p],
            [p, None, p, None, (0, 0)],
            raw,
            raw[:4] + [(x, (-y) % Q) for x, y in raw[:4]],
            _points(33, rng),
            [p] * 7,
        ]
        expected = [_fold(points) for points in lists]
        assert batch_affine_sums(lists, Q) == expected
        for points, want in zip(lists, expected):
            assert batch_affine_sums([points], Q) == [want]

    def test_no_lists(self):
        assert batch_affine_sums([], Q) == []


class TestValidation:
    def test_length_mismatch(self):
        rng = random.Random(14)
        points = _points(2, rng)
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match="equal length"):
                algorithm(points, [1], Q)

    def test_empty(self):
        for algorithm in ALGORITHMS:
            assert algorithm([], [], Q) is None

    def test_bad_window(self):
        rng = random.Random(15)
        points = _points(1, rng)
        with pytest.raises(ValueError, match="window"):
            jac_pippenger(points, [3], Q, window=0)


def _binary_straus(terms, q):
    """The binary Straus kernel that the w-NAF one replaced, kept as an
    oracle with ``_straus``'s signature: one mixed add per set bit."""
    if not terms:
        return None
    rx, ry, rz = jacobian.JAC_INFINITY
    for bit in range(max(sc.bit_length() for _, _, sc in terms) - 1, -1, -1):
        rx, ry, rz = jacobian.jac_double(rx, ry, rz, q)
        for x, y, sc in terms:
            if (sc >> bit) & 1:
                rx, ry, rz = jacobian.jac_add_mixed(rx, ry, rz, x, y, q)
    return jacobian.jac_to_affine((rx, ry, rz), q)


def spy_msm_kernels(monkeypatch):
    """Record ``(kernel, nonzero terms)`` for every ``_straus`` and
    ``_pippenger`` call that ``jac_msm`` makes from now on."""
    calls = []
    for name in ("_straus", "_pippenger"):
        real = getattr(jacobian, name)
        monkeypatch.setattr(jacobian, name, lambda t, q, *a, _r=real, _n=name:
                            calls.append((_n, len(t))) or _r(t, q, *a))
    return calls


class TestWnafStraus:
    """The interleaved width-4 NAF Straus kernel below the threshold."""

    def test_every_size_below_threshold(self):
        rng = random.Random(25)
        points = _points(PIPPENGER_THRESHOLD - 1, rng)
        scalars = [rng.randrange(-R, R) for _ in points]
        expected = None
        for n in range(1, PIPPENGER_THRESHOLD):
            expected = affine_add(
                expected, _oracle_scalar_mul(Q, points[n - 1], scalars[n - 1]), Q)
            assert jac_straus(points[:n], scalars[:n], Q) == expected, n
            assert jac_pippenger(points[:n], scalars[:n], Q) == expected, n

    def test_mixed_scalar_lengths(self):
        """1-bit, 2-bit, 64-bit, full-size, unreduced (up to q) and
        negative scalars in one call: the digit strings differ in length."""
        rng = random.Random(26)
        scalars = [1, 3, 2, -2, rng.getrandbits(64), R - 1, rng.randrange(R, Q),
                   Q, -rng.getrandbits(64), -(R - 1), -1, (1 << 64) - 1]
        points = _points(len(scalars), rng)
        _assert_all_agree(points, scalars)
        assert (jac_straus(points, scalars, Q)
                == _binary_straus(jacobian._msm_terms(points, scalars, Q), Q))

    def test_odd_multiples_at_infinity(self):
        """A point of order 3 (test-80 has one) makes 3P infinity and (0, 0)
        makes every odd multiple itself; the skipped entries add nothing."""
        group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["test-80"])
        q, r, h = group.q, group.order, group.params.h
        order3 = next(pt for pt in (
            _oracle_scalar_mul(q, group._hash_to_curve(b"order-3 %d" % i), h * r // 3)
            for i in range(20)) if pt is not None)
        assert _oracle_scalar_mul(q, order3, 3) is None
        plus = jacobian._odd_multiples([order3, (0, 0)], q)
        assert plus[0] == [order3, None, _oracle_scalar_mul(q, order3, 5), order3]
        assert plus[1] == [(0, 0)] * 4
        raw = group._hash_to_curve(b"order-3 raw")
        points = [order3, (0, 0), raw, order3, group.g1().point, (0, 0)]
        rng = random.Random(27)
        for scalars in ([3, 3, 3, 3, 3, 3], [5, 7, -3, 13, 3, 9],
                        [rng.randrange(-r, h * r) for _ in points]):
            expected = None
            for pt, sc in zip(points, scalars):
                expected = affine_add(expected, _oracle_scalar_mul(q, pt, sc), q)
            assert jac_straus(points, scalars, q) == expected, scalars
            for pt, sc in zip(points, scalars):
                assert jac_straus([pt], [sc], q) == _oracle_scalar_mul(q, pt, sc)

    def test_equal_and_opposite_points(self):
        """P twice and P next to −P in one call: the shared chain meets a
        doubling and a cancellation inside its mixed adds."""
        rng = random.Random(28)
        p = GROUP.random_g1(rng).point
        minus_p = (p[0], (-p[1]) % Q)
        raw = GROUP._hash_to_curve(b"twins")
        points = [p, p, minus_p, raw, raw, (0, 0)]
        for scalars in ([5, 5, 5, 1, 2, 3], [7, -7, 7, 3, -3, 1],
                        [R - 1, 1, R - 1, 1 << 40, (1 << 40) + 1, 2],
                        [rng.randrange(R) for _ in points]):
            _assert_all_agree(points, scalars)
        assert jac_straus([p, minus_p], [9, 9], Q) is None
        assert jac_straus([p, p], [3, 5], Q) == _oracle_scalar_mul(Q, p, 8)

    @pytest.mark.slow
    def test_paper_160_cell(self, paper_group):
        """One 12-term cell at the paper's parameters, a raw point included."""
        rng = random.Random(29)
        q = paper_group.q
        points = [paper_group.random_g1(rng).point for _ in range(11)]
        points.append(paper_group._hash_to_curve(b"paper-160 raw"))
        scalars = [paper_group.random_nonzero_scalar(rng) for _ in points]
        scalars[3] = -scalars[3]
        expected = None
        for pt, sc in zip(points, scalars):
            expected = affine_add(expected, _oracle_scalar_mul(q, pt, sc), q)
        assert jac_straus(points, scalars, q) == expected
        assert jac_pippenger(points, scalars, q) == expected
        assert jac_msm(points, scalars, q) == expected


class TestCrossoverDispatch:
    def test_modeled_crossover_is_sane(self):
        assert PIPPENGER_THRESHOLD == 45  # the field-multiplication model at 160 bits
        assert jacobian._modeled_threshold(160) == PIPPENGER_THRESHOLD

    def test_dispatch_agrees_on_both_sides(self, monkeypatch):
        """Nonzero terms decide: 44 run Straus, 45 run Pippenger, also when
        zero-scalar and identity terms pad the input past the threshold."""
        calls = spy_msm_kernels(monkeypatch)
        rng = random.Random(16)
        for nonzero, padding, algorithm in (
            (PIPPENGER_THRESHOLD - 1, 0, "_straus"),
            (PIPPENGER_THRESHOLD - 1, 3, "_straus"),
            (PIPPENGER_THRESHOLD, 0, "_pippenger"),
            (PIPPENGER_THRESHOLD + 1, 2, "_pippenger"),
        ):
            points = _points(nonzero, rng) + [GROUP.random_g1(rng).point, None] * padding
            scalars = [rng.getrandbits(48) | 1 for _ in range(nonzero)] + [0, 7] * padding
            calls.clear()
            assert jac_msm(points, scalars, Q) == _oracle(points, scalars)
            assert calls == [(algorithm, nonzero)]

    def test_window_model_monotone_floor(self):
        assert pippenger_window(0) == 1
        for n in (1, 10, 100, 1000, 10000):
            assert pippenger_window(n) >= 1
        assert pippenger_window(10000) >= pippenger_window(10)
        assert pippenger_window(460) == 7  # the paper's c, the audit workload


class TestJacobianBackend:
    def test_jac_msm_matches_group_exponentiation(self, group):
        rng = random.Random(17)
        for n in (20, PIPPENGER_THRESHOLD + 10):
            elements = [group.random_g1(rng) for _ in range(n)]
            scalars = [rng.randrange(-group.order, group.order) for _ in range(n)]
            acc = None
            for el, sc in zip(elements, scalars):
                term = el ** (sc % group.order)
                acc = term if acc is None else acc * term
            result = jac_msm([el.point for el in elements],
                             [sc % group.order for sc in scalars], group.q)
            assert result == acc.point

    def test_jac_msm_skips_identity_and_zero(self, group):
        rng = random.Random(18)
        el = group.random_g1(rng)
        assert jac_msm([None, el.point], [5, 0], group.q) is None

    def test_batch_inverse_matches_pow(self, group):
        rng = random.Random(19)
        values = [rng.randrange(1, group.q) for _ in range(9)]
        expected = [pow(v, -1, group.q) for v in values]
        assert batch_inverse(values, group.q) == expected

    def test_batch_normalize_round_trip(self, group):
        rng = random.Random(20)
        pts = [group.random_g1(rng).point for _ in range(5)]
        jacs = [(x, y, 1) for x, y in pts]
        # Scale each by a random z to make normalization non-trivial.
        scaled = []
        for (x, y, z), _ in zip(jacs, pts):
            s = rng.randrange(2, group.q)
            scaled.append((x * s * s % group.q, y * s * s * s % group.q, s))
        normalized = batch_normalize(scaled, group.q)
        assert normalized == pts
