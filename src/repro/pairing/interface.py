"""Abstract pairing-group API and multiplicative element wrappers.

The paper writes G1 multiplicatively (``u^m``, ``σ = m̃^y``); the wrappers
here expose exactly that notation over additive curve arithmetic, so scheme
code reads like the paper's equations.

An :class:`OperationCounter` can be attached to a group to tally the two
operations the paper's cost model (Table I) is expressed in: exponentiations
in G1 (``Exp_G1``) and pairings (``Pair``).
"""

from __future__ import annotations

import secrets
from abc import ABC, abstractmethod
from dataclasses import dataclass


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
    """

    exp_g1: int = 0
    exp_g2: int = 0
    exp_gt: int = 0
    pairings: int = 0
    mul_g1: int = 0
    hash_to_g1: int = 0
    exp_g1_fixed_base: int = 0
    exp_g1_msm: int = 0
    exp_g1_skipped: int = 0

    def reset(self) -> None:
        self.exp_g1 = 0
        self.exp_g2 = 0
        self.exp_gt = 0
        self.pairings = 0
        self.mul_g1 = 0
        self.hash_to_g1 = 0
        self.exp_g1_fixed_base = 0
        self.exp_g1_msm = 0
        self.exp_g1_skipped = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "exp_g1": self.exp_g1,
            "exp_g2": self.exp_g2,
            "exp_gt": self.exp_gt,
            "pairings": self.pairings,
            "mul_g1": self.mul_g1,
            "hash_to_g1": self.hash_to_g1,
            "exp_g1_fixed_base": self.exp_g1_fixed_base,
            "exp_g1_msm": self.exp_g1_msm,
            "exp_g1_skipped": self.exp_g1_skipped,
        }

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


class GroupElement:
    """Multiplicative wrapper around a source-group (G1/G2) point.

    ``a * b`` is the group operation, ``a ** n`` is exponentiation,
    ``a.inverse()`` the group inverse — matching the paper's notation.
    """

    __slots__ = ("group", "point", "which")

    def __init__(self, group: "PairingGroup", point, which: str):
        self.group = group
        self.point = point
        self.which = which  # "g1" or "g2"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement) or other.which != self.which:
            return NotImplemented
        counter = self.group.counter
        if counter is not None and self.which == "g1":
            counter.mul_g1 += 1
        return GroupElement(
            self.group, self.group._add(self.point, other.point, self.which), self.which
        )

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "GroupElement":
        counter = self.group.counter
        if counter is not None:
            if self.which == "g1":
                counter.exp_g1 += 1
            else:
                counter.exp_g2 += 1
        exponent %= self.group.order
        return GroupElement(
            self.group, self.group._scalar_mul(self.point, exponent, self.which), self.which
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._neg(self.point, self.which), self.which)

    def is_identity(self) -> bool:
        return self.group._is_identity(self.point, self.which)

    def to_bytes(self) -> bytes:
        """Canonical serialization (used for byte accounting and hashing)."""
        return self.group._serialize(self.point, self.which)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            self.which == other.which
            and (self.group is other.group or self.group == other.group)
            and self.group._eq(self.point, other.point, self.which)
        )

    def __hash__(self):
        return hash((self.which, self.to_bytes()))

    def __repr__(self):
        return f"<{self.which} element {self.to_bytes()[:8].hex()}...>"


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


class PairingGroup(ABC):
    """A bilinear group (G1, G2, GT, e) of prime order ``order``.

    Symmetric backends set ``is_symmetric = True`` and make G2 an alias of
    G1 so that scheme code written for the general (type-3) API also runs on
    the paper's symmetric setting unchanged.
    """

    order: int
    is_symmetric: bool = False

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
        """The bilinear map e(p, q) with p in G1 and q in G2."""
        if p.which != "g1" or q.which != "g2":
            raise ValueError("pair() expects (G1, G2) arguments")
        if self.counter is not None:
            self.counter.pairings += 1
        return GTElement(self, self._pair(p.point, q.point))

    def multi_pair(self, pairs: list[tuple[GroupElement, GroupElement]]) -> GTElement:
        """Product of pairings  prod e(p_i, q_i).

        Backends may override with a shared-final-exponentiation product
        pairing; the default multiplies individual pairings.
        """
        result = self.gt_one()
        for p, q in pairs:
            result = result * self.pair(p, q)
        return result

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
        ``exp_g1_skipped`` per zero exponent (for G1 inputs), so the
        model-equivalent Exp total is identical to exponentiating each term
        separately; the internal merge additions are not tallied as
        ``mul_g1``.  Counting is per-term, which makes the tallies invariant
        under any chunking of the input — the parallel fan-out relies on
        this.

        Args:
            elements: group elements, all from the same source group.
            exponents: one integer per element (reduced mod the group
                order; zeros and negatives fine).

        Returns:
            The aggregated :class:`GroupElement`.

        Raises:
            ValueError: on empty input, length mismatch, or elements drawn
                from different source groups.
        """
        if len(elements) != len(exponents):
            raise ValueError("elements and exponents must have equal length")
        if not elements:
            raise ValueError("need at least one term")
        which = elements[0].which
        if any(el.which != which for el in elements):
            raise ValueError("multi_exp terms must share one source group")
        reduced = [e % self.order for e in exponents]
        counter = self.counter
        if counter is not None:
            if which == "g1":
                self._tally_msm_terms(reduced)
            else:
                counter.exp_g2 += len(reduced)
        point = self._msm([el.point for el in elements], reduced, which)
        return GroupElement(self, point, which)

    def hash_multi_exp(
        self,
        ids: list[bytes],
        id_exponents: list[int],
        elements: list[GroupElement] = (),
        exponents: list[int] = (),
    ) -> GroupElement:
        """``∏ H(ids[i]) ** id_exponents[i] · ∏ elements[l] ** exponents[l]``.

        Eq. 6's χ = ∏ H(id_i)^{β_i} · ∏ u_l^{α_l} in one call: each id
        hashed with :meth:`hash_to_g1`, then one :meth:`multi_exp` over
        all terms.  It is the default body of :meth:`hashed_pairing_check`
        (BN254's path) and the tests' oracle for the type-A override,
        which never forms χ itself.

        Op-count cost: one ``hash_to_g1`` per id plus, per term, what
        :meth:`multi_exp` tallies.

        Args:
            ids: byte strings hashed into G1.
            id_exponents: one integer per id.
            elements: further G1 elements, which must lie in the order-r
                subgroup (the public ``u_l``).
            exponents: one integer per element.

        Raises:
            ValueError: on no terms at all, a length mismatch, or a
                non-G1 element.
        """
        self._check_hash_terms(ids, id_exponents, elements, exponents)
        hashed = [self.hash_to_g1(data) for data in ids]
        return self.multi_exp(hashed + list(elements), list(id_exponents) + list(exponents))

    def hashed_pairing_check(
        self,
        sigma: GroupElement,
        pk: GroupElement,
        ids: list[bytes],
        id_exponents: list[int] | None,
        elements: list[GroupElement] = (),
        exponents: list[int] = (),
        pool=None,
    ) -> bool:
        """``e(σ, g2) == e(χ, pk)`` for χ = ∏ H(ids[i])^{id_exponents[i]} ·
        ∏ elements[l]^{exponents[l]}.

        The one check behind Eq. 6 (with ``u_l`` and ``α_l`` as the
        elements) and BLS verification (one id, ``id_exponents=None``).
        The default body is :meth:`hash_multi_exp` then
        :meth:`pairing_check`; the type-A group overrides it to skip the
        cofactor clearing of χ
        (:meth:`repro.pairing.type_a.TypeAPairingGroup.hashed_pairing_check`).

        Op-count cost: what :meth:`hash_multi_exp` tallies, plus two
        pairings.  ``id_exponents=None`` takes every H(id) as it is
        (exponent 1), tallying its hash but no Exp, as a plain BLS check
        does.  Overrides must tally the same.

        Args:
            sigma: the G1 left-hand element.
            pk: the G2 public key.
            ids: byte strings hashed into G1.
            id_exponents: one integer per id, or ``None`` for all ones.
            elements: further G1 elements in the order-r subgroup.
            exponents: one integer per element.
            pool: an optional :class:`~repro.core.parallel.WorkerPool`
                to fan the id terms out to; the default body ignores it.

        Raises:
            ValueError: as :meth:`hash_multi_exp` does.
        """
        if id_exponents is not None:
            chi = self.hash_multi_exp(ids, id_exponents, elements, exponents)
        else:
            self._check_hash_terms(ids, [1] * len(ids), elements, exponents)
            # Plain hashes join uncounted, like multi_exp's internal merges.
            point = self._identity("g1")
            for data in ids:
                point = self._add(point, self.hash_to_g1(data).point, "g1")
            if elements:
                point = self._add(point, self.multi_exp(list(elements), list(exponents)).point, "g1")
            chi = GroupElement(self, point, "g1")
        return self.pairing_check([(sigma, self.g2()), (chi.inverse(), pk)])

    @abstractmethod
    def g1(self) -> GroupElement:
        """A fixed generator of G1."""

    @abstractmethod
    def g2(self) -> GroupElement:
        """A fixed generator of G2 (same as g1 for symmetric groups)."""

    @abstractmethod
    def hash_to_g1(self, data: bytes) -> GroupElement:
        """Full-domain hash H : {0,1}* -> G1."""

    def random_g1(self, rng=None) -> GroupElement:
        return self.g1() ** self.random_nonzero_scalar(rng)

    def random_g2(self, rng=None) -> GroupElement:
        return self.g2() ** self.random_nonzero_scalar(rng)

    def g1_identity(self) -> GroupElement:
        return GroupElement(self, self._identity("g1"), "g1")

    def g2_identity(self) -> GroupElement:
        return GroupElement(self, self._identity("g2"), "g2")

    def gt_one(self) -> GTElement:
        return GTElement(self, self._gt_one())

    def g1_element_bytes(self) -> int:
        """Serialized size of a G1 element (for communication accounting)."""
        return len(self.g1().to_bytes())

    def scalar_bytes(self) -> int:
        """Serialized size of a Z_r scalar."""
        return (self.order.bit_length() + 7) // 8

    # -- backend primitives -------------------------------------------------
    @staticmethod
    def _check_hash_terms(ids, id_exponents, elements, exponents) -> None:
        """Argument checks every :meth:`hash_multi_exp` runs first."""
        if len(ids) != len(id_exponents):
            raise ValueError("ids and id_exponents must have equal length")
        if len(elements) != len(exponents):
            raise ValueError("elements and exponents must have equal length")
        if not ids and not elements:
            raise ValueError("need at least one term")
        if any(el.which != "g1" for el in elements):
            raise ValueError("hash_multi_exp elements must lie in G1")

    def _tally_msm_terms(self, reduced: list[int]) -> None:
        """One ``exp_g1_msm`` per nonzero and one ``exp_g1_skipped`` per
        zero (already reduced) G1 exponent."""
        counter = self.counter
        for e in reduced:
            if e:
                counter.exp_g1_msm += 1
            else:
                counter.exp_g1_skipped += 1

    def _msm(self, points, exponents, which: str):
        """Raw multi-scalar multiplication hook behind :meth:`multi_exp`.

        The default folds per-term ``_scalar_mul`` results with ``_add`` and
        works for any backend; fast backends override it with a shared-chain
        MSM (see :meth:`repro.pairing.type_a.TypeAPairingGroup._msm`).
        Implementations must not touch the operation counter — the caller
        accounts per-term.
        """
        acc = self._identity(which)
        for pt, e in zip(points, exponents):
            if e == 0:
                continue
            acc = self._add(acc, self._scalar_mul(pt, e, which), which)
        return acc

    def _sums(self, lists, which: str) -> list:
        """Raw sum of each list of raw points (behind fixed-base lookups).

        The default folds each list with ``_add``; backends with a cheaper
        batched sum override it (see
        :meth:`repro.pairing.type_a.TypeAPairingGroup._sums`).  Like
        :meth:`_msm` it must not touch the operation counter: callers tally
        ``len(points) − 1`` ``mul_g1`` per list, what the fold would have
        cost as ``*``.
        """
        sums = []
        for points in lists:
            acc = self._identity(which)
            for pt in points:
                acc = self._add(acc, pt, which)
            sums.append(acc)
        return sums

    @abstractmethod
    def _add(self, a, b, which: str): ...

    @abstractmethod
    def _neg(self, a, which: str): ...

    @abstractmethod
    def _scalar_mul(self, a, n: int, which: str): ...

    @abstractmethod
    def _identity(self, which: str): ...

    @abstractmethod
    def _is_identity(self, a, which: str) -> bool: ...

    @abstractmethod
    def _eq(self, a, b, which: str) -> bool: ...

    @abstractmethod
    def _serialize(self, a, which: str) -> bytes: ...

    @abstractmethod
    def _pair(self, p, q): ...

    @abstractmethod
    def _gt_mul(self, a, b): ...

    @abstractmethod
    def _gt_pow(self, a, n: int): ...

    @abstractmethod
    def _gt_inv(self, a): ...

    @abstractmethod
    def _gt_one(self): ...

    @abstractmethod
    def _gt_is_one(self, a) -> bool: ...

    @abstractmethod
    def _gt_eq(self, a, b) -> bool: ...
