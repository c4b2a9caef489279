"""Pairing-group API and multiplicative element wrappers.

The paper writes G1 multiplicatively (``u^m``, ``σ = m̃^y``); the wrappers
here expose exactly that notation over additive curve arithmetic, so scheme
code reads like the paper's equations.

An :class:`OperationCounter` can be attached to a group to tally the two
operations the paper's cost model (Table I) is expressed in: exponentiations
in G1 (``Exp_G1``) and pairings (``Pair``).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, fields


@dataclass
class OperationCounter:
    """Tallies of the operations the paper's Table I counts.

    ``exp_g1`` counts exponentiations executed through the generic
    double-and-add path.  Three sibling tallies keep the measurement
    reconcilable with the paper's closed forms, which count one Exp per
    element unconditionally:

    * ``exp_g1_fixed_base`` — exponentiations served from a precomputed
      window table (:mod:`repro.ec.fixed_base`), which the model still
      counts as one Exp each;
    * ``exp_g1_msm`` — exponentiations folded into a multi-scalar
      multiplication (:meth:`PairingGroup.multi_exp`), one per nonzero
      term: the MSM executes far fewer group operations than independent
      exponentiations would, but the model still counts one Exp per term;
    * ``exp_g1_skipped`` — exponentiations the implementation elided for a
      zero exponent (e.g. zero-padded block elements), which the model
      also counts.

    The model-equivalent total is the sum of all four; the observability
    cost table uses it to check measured runs against Table I *exactly*.

    ``kernel_s`` is not a tally: it holds the wall seconds the group spent
    in each of its timed kernels (:mod:`repro.pairing.type_a`) while this
    counter was attached.  Tracer spans record its deltas for the
    profiler; :meth:`snapshot`, :meth:`diff`, :meth:`merge` and
    :meth:`reset` leave it out, so op tallies stay exact integers.
    """

    exp_g1: int = 0
    exp_gt: int = 0
    pairings: int = 0
    mul_g1: int = 0
    hash_to_g1: int = 0
    exp_g1_fixed_base: int = 0
    exp_g1_msm: int = 0
    exp_g1_skipped: int = 0

    def __post_init__(self) -> None:
        self.kernel_s: dict[str, float] = {}

    def reset(self) -> None:
        for name in _TALLIES:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _TALLIES}

    def merge(self, delta: dict[str, int]) -> None:
        """Add a snapshot/diff of another counter into this one.

        The parallel fan-out (:mod:`repro.core.parallel`) hands each worker
        a fresh counter and merges the per-worker deltas back here, so a
        chunked run tallies exactly what the serial run would.

        Args:
            delta: op-name → count mapping, as produced by
                :meth:`snapshot` or :meth:`diff`.  Unknown keys raise
                ``AttributeError`` rather than being silently dropped.
        """
        for key, value in delta.items():
            setattr(self, key, getattr(self, key) + value)

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Nonzero deltas of the current tallies against a prior snapshot."""
        current = self.snapshot()
        return {
            key: current[key] - before.get(key, 0)
            for key in current
            if current[key] != before.get(key, 0)
        }


#: The tally fields of :class:`OperationCounter`, in declaration order.
_TALLIES = tuple(f.name for f in fields(OperationCounter))


class GroupElement:
    """Multiplicative wrapper around a point of the group G1.

    ``a * b`` is the group operation, ``a ** n`` is exponentiation,
    ``a.inverse()`` the group inverse — matching the paper's notation.
    ``point`` is the backend's raw affine point, ``None`` for the identity.
    """

    __slots__ = ("group", "point")

    def __init__(self, group: "PairingGroup", point):
        self.group = group
        self.point = point

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        counter = self.group.counter
        if counter is not None:
            counter.mul_g1 += 1
        return GroupElement(self.group, self.group._add(self.point, other.point))

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "GroupElement":
        counter = self.group.counter
        if counter is not None:
            counter.exp_g1 += 1
        exponent %= self.group.order
        return GroupElement(self.group, self.group._scalar_mul(self.point, exponent))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._neg(self.point))

    def is_identity(self) -> bool:
        return self.point is None

    def to_bytes(self) -> bytes:
        """Canonical serialization (used for byte accounting and hashing)."""
        return self.group._serialize(self.point)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            (self.group is other.group or self.group == other.group)
            and self.point == other.point
        )

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self):
        return f"<G1 element {self.to_bytes()[:8].hex()}...>"


class GTElement:
    """Multiplicative wrapper around a target-group value."""

    __slots__ = ("group", "value")

    def __init__(self, group: "PairingGroup", value):
        self.group = group
        self.value = value

    def __mul__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.group, self.group._gt_mul(self.value, other.value))

    def __truediv__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.group, self.group._gt_mul(self.value, self.group._gt_inv(other.value)))

    def __pow__(self, exponent: int) -> "GTElement":
        counter = self.group.counter
        if counter is not None:
            counter.exp_gt += 1
        exponent %= self.group.order
        return GTElement(self.group, self.group._gt_pow(self.value, exponent))

    def inverse(self) -> "GTElement":
        return GTElement(self.group, self.group._gt_inv(self.value))

    def is_identity(self) -> bool:
        return self.group._gt_is_one(self.value)

    def __eq__(self, other):
        if not isinstance(other, GTElement):
            return NotImplemented
        return (
            self.group is other.group or self.group == other.group
        ) and self.group._gt_eq(self.value, other.value)

    def __hash__(self):
        return hash(repr(self.value))

    def __repr__(self):
        return "<GT element>"


class PairingGroup:
    """A symmetric bilinear group (G1, GT, e) of prime order ``order``.

    The paper's setting: one group G1 with one generator g, and
    e : G1 × G1 → GT.  Elements are untagged, every public key is one
    G1 element pk = g^y, and :meth:`pair` takes any two of them.  The
    curve arithmetic, hashing and pairing live in the one backend,
    :class:`~repro.pairing.type_a.TypeAPairingGroup`; this base holds
    the counted entry points they share.
    """

    order: int

    def __init__(self):
        self.counter: OperationCounter | None = None

    # -- public API --------------------------------------------------------
    def attach_counter(self, counter: OperationCounter) -> None:
        """Start tallying Exp/Pair operations into ``counter``."""
        self.counter = counter

    def detach_counter(self) -> None:
        self.counter = None

    def random_scalar(self, rng=None) -> int:
        if rng is not None:
            return rng.randrange(self.order)
        return secrets.randbelow(self.order)

    def random_nonzero_scalar(self, rng=None) -> int:
        while True:
            s = self.random_scalar(rng)
            if s:
                return s

    def pair(self, p: GroupElement, q: GroupElement) -> GTElement:
        """The bilinear map e(p, q)."""
        if self.counter is not None:
            self.counter.pairings += 1
        return GTElement(self, self._pair(p.point, q.point))

    def pairing_check(self, pairs: list[tuple[GroupElement, GroupElement]]) -> bool:
        """True iff  prod e(p_i, q_i) = 1.

        Every verification equation  e(X, g) == e(Y, pk)  is evaluated as
        ``pairing_check([(X, g), (Y.inverse(), pk)])``: one product pairing
        with one final exponentiation, counted as ``len(pairs)`` pairings.
        """
        return self.multi_pair(pairs).is_identity()

    def multi_exp(
        self, elements: list[GroupElement], exponents: list[int]
    ) -> GroupElement:
        """The product  ``prod elements[i] ** exponents[i]``  in one MSM.

        This is the group-level entry point for every aggregate the scheme
        computes — Eq. 7's ``∏ σ̃_i^{γ_i}``, the proof's ``∏ σ_i^{β_i}``,
        and Eq. 6's ``∏ H(id_i)^{β_i} · ∏ u_l^{α_l}`` — replacing per-term
        ``**``/``*`` loops with a Straus- or Pippenger-backed multi-scalar
        multiplication (:func:`repro.ec.jacobian.jac_msm` on type-A).

        Op-count cost: one ``exp_g1_msm`` per nonzero exponent and one
        ``exp_g1_skipped`` per zero exponent, so the model-equivalent Exp
        total is identical to exponentiating each term separately; the
        internal merge additions are not tallied as ``mul_g1``.  Counting
        is per-term, which makes the tallies invariant under any chunking
        of the input — the parallel fan-out relies on this.

        Args:
            elements: group elements.
            exponents: one integer per element (reduced mod the group
                order; zeros and negatives fine).

        Returns:
            The aggregated :class:`GroupElement`.

        Raises:
            ValueError: on empty input or a length mismatch.
        """
        if len(elements) != len(exponents):
            raise ValueError("elements and exponents must have equal length")
        if not elements:
            raise ValueError("need at least one term")
        reduced = [e % self.order for e in exponents]
        if self.counter is not None:
            self._tally_msm_terms(reduced)
        return GroupElement(self, self._msm([el.point for el in elements], reduced))

    def random_g1(self, rng=None) -> GroupElement:
        return self.g1() ** self.random_nonzero_scalar(rng)

    def g1_identity(self) -> GroupElement:
        return GroupElement(self, None)

    def g1_element_bytes(self) -> int:
        """Serialized size of a G1 element (for communication accounting)."""
        return len(self.g1().to_bytes())

    def scalar_bytes(self) -> int:
        """Serialized size of a Z_r scalar."""
        return (self.order.bit_length() + 7) // 8

    # -- shared checks and tallies -------------------------------------------
    @staticmethod
    def _check_hash_terms(ids, id_exponents, elements, exponents) -> None:
        """Argument checks every :meth:`hashed_pairing_check` runs first."""
        if len(ids) != len(id_exponents):
            raise ValueError("ids and id_exponents must have equal length")
        if len(elements) != len(exponents):
            raise ValueError("elements and exponents must have equal length")
        if not ids and not elements:
            raise ValueError("need at least one term")

    def _tally_msm_terms(self, reduced: list[int]) -> None:
        """One ``exp_g1_msm`` per nonzero and one ``exp_g1_skipped`` per
        zero (already reduced) exponent."""
        counter = self.counter
        for e in reduced:
            if e:
                counter.exp_g1_msm += 1
            else:
                counter.exp_g1_skipped += 1
