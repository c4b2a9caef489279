"""Fixed-base exponentiation with precomputed windows.

The dominant cost of Bind (and of SW08 signing) is k exponentiations
``u_l ^ m_l`` whose *bases never change*: u_1..u_k are system parameters.
Precomputing window tables for each u_l turns every subsequent
exponentiation into pure group multiplications — a classic time/memory
trade this module implements with the radix-2^w fixed-base method:

    base^e  =  prod_j  T_j[d_j]      where e = sum_j d_j * 2^(w*j)

and ``T_j[d] = base^(d * 2^(w*j))`` is precomputed.  For 160-bit
exponents and w = 4 that is 40 lookups instead of ~200 double-and-add
steps, at 40 x 15 stored points per base.

The looked-up entries are summed by the group's batched ``_sums`` hook;
on the type-A backend that is pairwise affine adds with one shared field
inversion per tree level.  :func:`aggregate_with_tables` sums the hashed
point and every table's entries for a block in one call, and
:meth:`FixedBaseTable.powers` sums many powers' entries in one call, so
the tree levels are shared.  Both the build (:mod:`repro.ec.jacobian`
formulas) and the sums (the ``_sums`` hook) are type-A G1 arithmetic, so
the bases must be type-A G1 elements; see the
``test_ablation_fixed_base`` benchmark for the measured speedup.

>>> import random
>>> from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
>>> group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
>>> base = group.random_g1(random.Random(2))
>>> table = FixedBaseTable(base, exponent_bits=64)
>>> table.power(12345) == base ** 12345
True
"""

from __future__ import annotations

from repro.ec.jacobian import batch_normalize, jac_add, jac_double, jac_from_affine
from repro.pairing.interface import GroupElement


#: Radix-2^w window width: 40 rows of 15 points per base at 160 bits.
WINDOW = 4


class FixedBaseTable:
    """Precomputed radix-2^w table for one fixed base.

    Row ``j`` holds the affine points ``d · 2^(w·j) · P`` for
    ``d = 1..2^w − 1``.  The rows are built in Jacobian coordinates and the
    whole table is normalized by one :func:`~repro.ec.jacobian.batch_normalize`,
    so a table costs one field inversion, not one per point.  Any base on
    the curve works: the identity, and bases outside the order-r subgroup.
    """

    __slots__ = ("base", "digits", "_table")

    def __init__(self, base: GroupElement, exponent_bits: int):
        group = base.group
        q = group.q
        radix = 1 << WINDOW
        self.base = base
        self.digits = (exponent_bits + WINDOW - 1) // WINDOW
        jacobians = []
        # running = 2^(w·j) · P; row j holds its multiples 1..radix−1.
        running = jac_from_affine(base.point)
        for _ in range(self.digits):
            entry = running
            jacobians.append(entry)
            for _ in range(2, radix):
                entry = jac_add(*entry, *running, q)
                jacobians.append(entry)
            for _ in range(WINDOW):
                running = jac_double(*running, q)
        flat = batch_normalize(jacobians, q)
        step = radix - 1
        self._table = [[None, *flat[i:i + step]] for i in range(0, len(flat), step)]
        if group.counter is not None:
            # The group operations of building each row with ``*``:
            # radix − 2 adds and WINDOW doublings per row.
            group.counter.mul_g1 += self.digits * (radix - 2 + WINDOW)

    def power(self, exponent: int) -> GroupElement:
        """base^exponent: the table entries for its digits, summed once."""
        return self.powers([exponent])[0]

    def powers(self, exponents) -> list[GroupElement]:
        """``[base^e for e in exponents]``, all their sums in one batch.

        Many short sums share one ``_sums`` call, so on the type-A backend
        they share every tree level's inversion.
        """
        return _folds(self.base.group, [self._entries(e) for e in exponents])

    def _entries(self, exponent: int) -> list:
        """The raw table points whose sum is base^exponent.

        Tallies the one model-level Exp this power stands for.
        """
        group = self.base.group
        if group.counter is not None:
            # One model-level Exp_G1 served from the table (Table I counts it).
            group.counter.exp_g1_fixed_base += 1
        exponent %= group.order
        mask = (1 << WINDOW) - 1
        entries = []
        j = 0
        while exponent:
            digit = exponent & mask
            if digit:
                if j >= self.digits:
                    raise ValueError("exponent exceeds the precomputed range")
                entries.append(self._table[j][digit])
            exponent >>= WINDOW
            j += 1
        return entries

    def storage_points(self) -> int:
        """Number of precomputed group elements held."""
        return self.digits * ((1 << WINDOW) - 1)


def _folds(group, lists: list[list]) -> list[GroupElement]:
    """Sum each list of raw points through the group's ``_sums`` hook.

    Tallies ``len(points) − 1`` ``mul_g1`` per list, the ``*`` count of
    folding it one at a time, whatever coordinates the hook adds in.
    """
    if group.counter is not None:
        group.counter.mul_g1 += sum(len(points) - 1 for points in lists if points)
    return [GroupElement(group, point) for point in group._sums(lists)]


def aggregate_with_tables(params, block, tables: list[FixedBaseTable]):
    """Drop-in fast variant of :func:`repro.core.blocks.aggregate_block`.

    Computes  H(id_i) · ∏ u_l^{m_{i,l}}  as one sum over the hashed point
    and the u-tables' entries for every nonzero m_{i,l}.
    """
    if len(tables) != params.k:
        raise ValueError("need one table per u element")
    group = params.group
    points = [group.hash_to_g1(block.block_id).point]
    for table, m_l in zip(tables, block.elements):
        if m_l:
            points += table._entries(m_l)
        elif group.counter is not None:
            group.counter.exp_g1_skipped += 1
    return _folds(group, [points])[0]
