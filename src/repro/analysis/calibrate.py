"""Measure per-operation unit costs of a pairing group on this machine.

The paper's cost analysis (Section VI-A) expresses everything in Exp_G1
and Pair units; :func:`calibrate` measures those units (plus hashing and
group multiplication) so :class:`~repro.analysis.cost_model.CostModel` can
extrapolate totals to the paper's scales.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.pairing.interface import PairingGroup


@dataclass(frozen=True)
class UnitCosts:
    """Seconds per primitive operation on the calibrated machine."""

    exp_g1: float
    pair: float
    mul_g1: float
    hash_g1: float
    mul_zp: float

    def as_dict(self) -> dict[str, float]:
        return {
            "exp_g1": self.exp_g1,
            "pair": self.pair,
            "mul_g1": self.mul_g1,
            "hash_g1": self.hash_g1,
            "mul_zp": self.mul_zp,
        }


def _time_it(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def time_pairing(group: PairingGroup, p, q, repeats: int) -> float:
    """Seconds per Pair as the protocol pays it.

    Every verification equation is a two-term
    :meth:`~repro.pairing.interface.PairingGroup.pairing_check` against
    long-lived G2 points, so one Pair is half of a warm (line-cached)
    ``pairing_check([(p, g2), (p⁻¹, q)])``.  The group's operation counter
    is detached while timing.
    """
    pairs = [(p, group.g2()), (p.inverse(), q)]
    previous = group.counter
    group.counter = None
    try:
        group.pairing_check(pairs)
        return _time_it(lambda: group.pairing_check(pairs), repeats) / 2
    finally:
        group.counter = previous


def calibrate(group: PairingGroup, repeats: int = 20, rng=None) -> UnitCosts:
    """Measure unit costs for ``group``.

    Uses fresh random operands per batch (not per call) — the cost of these
    primitives is data-independent to first order.
    """
    g1 = group.random_g1(rng)
    g2 = group.g2() ** group.random_nonzero_scalar(rng)
    other = group.random_g1(rng)
    scalar = group.random_nonzero_scalar(rng)
    scalar2 = group.random_nonzero_scalar(rng)
    p = group.order

    exp_g1 = _time_it(lambda: g1**scalar, repeats)
    pair = time_pairing(group, g1, g2, max(repeats // 2, 3))
    mul_g1 = _time_it(lambda: g1 * other, repeats * 10)
    counter = [0]

    def _hash():
        counter[0] += 1
        group.hash_to_g1(b"calibrate-%d" % counter[0])

    hash_g1 = _time_it(_hash, repeats)
    mul_zp = _time_it(lambda: scalar * scalar2 % p, repeats * 100)
    return UnitCosts(exp_g1=exp_g1, pair=pair, mul_g1=mul_g1, hash_g1=hash_g1, mul_zp=mul_zp)
