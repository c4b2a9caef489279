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


@dataclass(frozen=True)
class MsmCalibration:
    """Measured Straus vs Pippenger wall times and the resulting crossover."""

    sizes: tuple[int, ...]
    straus_s: tuple[float, ...]
    pippenger_s: tuple[float, ...]
    crossover: int

    def as_rows(self) -> list[dict]:
        return [
            {"terms": n, "straus_s": s, "pippenger_s": p,
             "winner": "pippenger" if p <= s else "straus"}
            for n, s, p in zip(self.sizes, self.straus_s, self.pippenger_s)
        ]


def calibrate_msm_crossover(
    group: PairingGroup,
    sizes: tuple[int, ...] = (4, 8, 16, 24, 32, 48, 64, 96, 128),
    repeats: int = 3,
    rng=None,
    install: bool = False,
) -> MsmCalibration:
    """Measure where Pippenger actually overtakes Straus on ``group``.

    The import-time crossover in :mod:`repro.ec.scalar_mul` comes from an
    operation-count model; real machines disagree with models (bucket
    bookkeeping is pure Python while point adds are big-int arithmetic), so
    this times :meth:`~repro.pairing.interface.PairingGroup.multi_exp` with
    each algorithm forced at every size in ``sizes`` and reports the first
    size where Pippenger wins.

    Args:
        group: the pairing group to measure (its counter is detached for
            the duration so calibration never pollutes a profiled run).
        sizes: ascending term counts to probe.
        repeats: timing loop length per (algorithm, size) cell.
        rng: source for random points/scalars (module default if ``None``).
        install: when true, install the measured crossover via
            :func:`repro.ec.scalar_mul.set_pippenger_crossover`.

    Returns:
        The per-size timings and chosen crossover.  When Pippenger never
        wins inside ``sizes``, the crossover is one past the largest size
        probed (i.e. "not before here").
    """
    from repro.ec import scalar_mul

    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be non-empty and strictly ascending")
    largest = sizes[-1]
    points = [group.random_g1(rng) for _ in range(largest)]
    scalars = [group.random_nonzero_scalar(rng) for _ in range(largest)]
    previous_counter = group.counter
    previous_crossover = scalar_mul.pippenger_crossover()
    group.counter = None
    straus_times, pippenger_times = [], []
    try:
        for n in sizes:
            pts, scs = points[:n], scalars[:n]
            scalar_mul.set_pippenger_crossover(largest + 1)  # force Straus
            straus_times.append(_time_it(lambda: group.multi_exp(pts, scs), repeats))
            scalar_mul.set_pippenger_crossover(1)  # force Pippenger
            pippenger_times.append(_time_it(lambda: group.multi_exp(pts, scs), repeats))
    finally:
        scalar_mul.set_pippenger_crossover(previous_crossover)
        group.counter = previous_counter
    crossover = largest + 1
    for n, s, p in zip(sizes, straus_times, pippenger_times):
        if p <= s:
            crossover = n
            break
    if install:
        scalar_mul.set_pippenger_crossover(crossover)
    return MsmCalibration(
        sizes=tuple(sizes),
        straus_s=tuple(straus_times),
        pippenger_s=tuple(pippenger_times),
        crossover=crossover,
    )
