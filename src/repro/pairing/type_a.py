"""Type-A symmetric pairing backend (the paper's setting).

Curve: the supersingular curve  E : y² = x³ + x  over F_q with
q ≡ 3 (mod 4) and #E(F_q) = q + 1 = h·r for a large prime r.  G1 is the
order-r subgroup; the embedding degree is 2, so GT lives in F_q².

The pairing is the *modified Tate pairing*

    e(P, Q) = f_{r,Q}(φ(P)) ^ ((q² − 1) / r),

where φ(x, y) = (−x, i·y) is the distortion map (i² = −1 in F_q²).  The
pairing is symmetric, so Miller's algorithm runs on the G2 argument Q —
in every verification equation the long-lived ``g`` or a public key —
and its lines are computed once per Q and cached on the group.  Because
φ(P) has an F_q x-coordinate negation and a purely imaginary y-coordinate,
every Miller line evaluates to an element (a + b·i) with a, b computed by a
handful of F_q operations — and all vertical-line (denominator)
contributions lie in F_q, which the final exponentiation kills since
(q² − 1)/r = (q − 1)·h is a multiple of q − 1.  This denominator
elimination is what makes embedding-degree-2 pairings fast.

Internally points are raw ``(x, y)`` integer tuples (``None`` = infinity)
and GT values are raw ``(a, b)`` integer pairs representing a + b·i; the
object-level API is provided by :class:`repro.pairing.interface`.
"""

from __future__ import annotations

from repro.ec.hash_to_curve import hash_to_curve_try_increment
from repro.ec.jacobian import affine_add, batch_affine_sums, jac_msm, jac_scalar_mul
from repro.mathkit.ntheory import sqrt_mod
from repro.pairing.interface import GroupElement, GTElement, PairingGroup
from repro.pairing.params import TypeAParams

#: Most G2 points whose Miller lines a group keeps (~60 KB each at
#: paper-160); a full cache is emptied and refills with the points in use.
_LINE_CACHE_SIZE = 32


class TypeAPairingGroup(PairingGroup):
    """Symmetric pairing group over PBC-style type-A parameters."""

    def __init__(self, params: TypeAParams):
        super().__init__()
        params.validate()
        self.params = params
        self.order = params.r
        self.q = params.q
        self._qbytes = (params.q.bit_length() + 7) // 8
        self._generator = (params.gx, params.gy)
        # Final exponentiation: (q² − 1)/r = (q − 1) · h.
        self._final_exp_h = params.h
        # α·h⁻¹ folds G1 terms into the raw χ MSM (hashed_pairing_check).
        self._h_inv = pow(params.h, -1, params.r)
        # G2 point -> its Miller lines (see _miller_loop).
        self._lines: dict = {}
        # Public key -> pk_h = [h mod r]·pk (see _cleared_key).
        self._pk_h: dict = {}

    @classmethod
    def from_params(cls, params: TypeAParams) -> "TypeAPairingGroup":
        return cls(params)

    # ------------------------------------------------------------------
    # Generators and hashing
    # ------------------------------------------------------------------
    def g1(self):
        return GroupElement(self, self._generator, "g1")

    def g2(self):
        return GroupElement(self, self._generator, "g2")

    def hash_to_g1(self, data: bytes):
        if self.counter is not None:
            self.counter.hash_to_g1 += 1
        point = self._raw_scalar_mul(self._hash_to_curve(data), self.params.h)
        if point is None:
            # Probability h/q ~ 2^-160: the hashed point was in the small
            # subgroup.  Retry with a domain-separated suffix.
            return self.hash_to_g1(data + b"\x00retry")
        return GroupElement(self, point, "g1")

    def hashed_pairing_check(self, sigma, pk, ids, id_exponents, elements=(),
                             exponents=(), pool=None):
        """e(σ, g) == e(χ, pk) with no cofactor clearing of χ.

        The one check behind Eq. 6 (χ = ∏ H(id_i)^{β_i} · ∏ u_l^{α_l},
        with the u_l as ``elements`` and the α_l as ``exponents``) and BLS
        verification (one id, ``id_exponents=None``).

        H(id) is [h]P for the raw try-and-increment point P.  Scalar
        multiplication commutes, and the reduced Tate pairing is bilinear
        in its non-r-torsion argument, so

            e([h]χ_raw, pk) = e(χ_raw, [h]pk) = e(χ_raw, pk_h),

        with χ_raw = Σ β_i·P_i + Σ (α_l·h⁻¹)·u_l one MSM over the raw
        points ([h](α·h⁻¹·u) = α·u for u of order r; h⁻¹ exists because
        gcd(h, r) = 1, checked by :meth:`TypeAParams.validate`) and
        pk_h = [h mod r]·pk computed once per key (:meth:`_cleared_key`).
        Elements sharing a point merge into one MSM term first, so
        ``verify_batch`` passes each u_l once per file and pays for it
        once.  χ_raw = (0, 0) counts as the identity: [h](0, 0) = O
        because 4 | h, and (0, 0) is the one point where the Miller lines
        at φ(·) degenerate (y = 0).

        The verdict equals that of forming χ with :meth:`hash_to_g1` per
        id and one :meth:`multi_exp`, then :meth:`pairing_check`, except
        when some [h]P_i = O: ``hash_to_g1`` retries with a suffix there,
        while this contributes O.  That happens with probability about c/r
        and can only turn an honest check into a reject, never a forgery
        into an accept.  With a ``pool``, its workers hash the ids and
        return raw partial sums (:meth:`raw_hash_msm`).

        Op-count cost: one ``hash_to_g1`` per id, one ``exp_g1_msm`` per
        nonzero and one ``exp_g1_skipped`` per zero exponent (ids and
        elements alike, counted before any merging), plus two pairings.
        ``id_exponents=None`` takes every H(id) as it is (exponent 1),
        tallying its hash but no Exp, as a plain BLS check does.

        Args:
            sigma: the G1 left-hand element.
            pk: the G2 public key.
            ids: byte strings hashed into G1.
            id_exponents: one integer per id, or ``None`` for all ones.
            elements: further G1 elements in the order-r subgroup.
            exponents: one integer per element.
            pool: an optional :class:`~repro.core.parallel.WorkerPool`
                to fan the id terms out to.

        Raises:
            ValueError: on no terms at all, a length mismatch, or a
                non-G1 element.
        """
        r = self.order
        self._check_hash_terms(
            ids, [1] * len(ids) if id_exponents is None else id_exponents,
            elements, exponents)
        if self.counter is not None:
            self._tally_msm_terms([e % r for e in exponents])
        folded: dict = {}
        for el, e in zip(elements, exponents):
            folded[el.point] = (folded.get(el.point, 0) + e * self._h_inv) % r
        points, scalars = list(folded), list(folded.values())
        if pool is None or id_exponents is None:
            chi = self.raw_hash_msm(ids, id_exponents, points, scalars)
        else:
            chi = affine_add(self._msm(points, scalars, "g1"),
                             pool.hash_msm(ids, id_exponents).point, self.q)
        if chi == (0, 0):
            chi = None
        pk_h = GroupElement(self, self._cleared_key(pk.point), "g2")
        return self.pairing_check(
            [(sigma, self.g2()), (GroupElement(self, self._neg(chi, "g1"), "g1"), pk_h)])

    def raw_hash_msm(self, ids, id_exponents, points=(), scalars=()):
        """Σ β_i·P_i + Σ s_j·Q_j over the raw try-and-increment points P_i.

        No cofactor clearing: this is the raw sum each worker-pool chunk
        returns, and what :meth:`hashed_pairing_check` pairs against pk_h.
        The raw ``points`` Q_j ride in the same MSM untallied (the caller
        tallies them); ``id_exponents=None`` takes every P_i once.

        Op-count cost: one ``hash_to_g1`` per id and, unless
        ``id_exponents`` is None, one ``exp_g1_msm``/``exp_g1_skipped``
        per id term.
        """
        reduced = [1] * len(ids) if id_exponents is None else [e % self.order for e in id_exponents]
        if self.counter is not None:
            self.counter.hash_to_g1 += len(ids)
            if id_exponents is not None:
                self._tally_msm_terms(reduced)
        hashed = [self._hash_to_curve(data) for data in ids]
        return self._msm(hashed + list(points), reduced + list(scalars), "g1")

    def _cleared_key(self, pk_point):
        """pk_h = [h mod r]·pk, cached per key like the Miller lines."""
        pk_h = self._pk_h.get(pk_point)
        if pk_h is None:
            pk_h = self._raw_scalar_mul(pk_point, self.params.h % self.order)
            if len(self._pk_h) >= _LINE_CACHE_SIZE:
                self._pk_h.clear()
            self._pk_h[pk_point] = pk_h
        return pk_h

    def _hash_to_curve(self, data: bytes):
        """Try-and-increment onto E(F_q); the caller clears the cofactor."""
        return hash_to_curve_try_increment(data, self.q)

    def _raw_scalar_mul(self, point, n: int):
        """Width-4 NAF in Jacobian coordinates; returns affine or None."""
        return jac_scalar_mul(point, n, self.q)

    # ------------------------------------------------------------------
    # PairingGroup backend primitives (G1 arithmetic: repro.ec.jacobian)
    # ------------------------------------------------------------------
    def _add(self, a, b, which):
        return affine_add(a, b, self.q)

    def _neg(self, a, which):
        if a is None:
            return None
        return (a[0], (-a[1]) % self.q)

    def _scalar_mul(self, a, n, which):
        return self._raw_scalar_mul(a, n)

    def _sums(self, lists, which):
        """Raw sum of each list of raw points (behind fixed-base lookups).

        One affine tree for all lists (:func:`batch_affine_sums`).  It does
        not touch the operation counter: callers tally ``len(points) − 1``
        ``mul_g1`` per list, what a fold with ``*`` would have cost.
        """
        return batch_affine_sums(lists, self.q)

    def _msm(self, points, exponents, which):
        """Raw multi-scalar multiplication behind :meth:`multi_exp`.

        Runs with Jacobian chains and batch-affine Pippenger buckets
        (:func:`repro.ec.jacobian.jac_msm`).  It does not touch the
        operation counter: the caller tallies per term.
        """
        return jac_msm(points, exponents, self.q)

    def _identity(self, which):
        return None

    def _is_identity(self, a, which):
        return a is None

    def _eq(self, a, b, which):
        return a == b

    def _serialize(self, a, which):
        if a is None:
            return b"\x00" * (self._qbytes + 1)
        x, y = a
        sign = 2 | (y & 1)
        return x.to_bytes(self._qbytes, "big") + bytes([sign])

    def deserialize_g1(self, data: bytes):
        """Inverse of element serialization (compressed form).

        Only canonical encodings decode: x must be reduced mod q and the
        tag must be exactly 0x02 or 0x03, so every point has one encoding.
        """
        if len(data) != self._qbytes + 1:
            raise ValueError("bad element encoding length")
        if data == b"\x00" * (self._qbytes + 1):
            return GroupElement(self, None, "g1")
        x = int.from_bytes(data[:-1], "big")
        sign = data[-1]
        if sign not in (2, 3):
            raise ValueError("bad compression tag")
        if x >= self.q:
            raise ValueError("x coordinate is not reduced mod q")
        rhs = (x * x * x + x) % self.q
        y = sqrt_mod(rhs, self.q)
        if y is None:
            raise ValueError("x is not on the curve")
        if y & 1 != sign & 1:
            y = self.q - y
        return GroupElement(self, (x, y), "g1")

    # ------------------------------------------------------------------
    # Pairing
    # ------------------------------------------------------------------
    def _pair(self, p, q_point):
        if p is None or q_point is None:
            return (1, 0)
        f = self._miller_loop(p, q_point)
        return self._final_exponentiation(f)

    def _miller_loop(self, p, q_point):
        """f_{r,Q}(φ(P)) from the cached lines of the G2 argument Q.

        The pairing is symmetric, so running Miller's algorithm on Q and
        evaluating at φ(P) gives the same pairing value, after the final
        exponentiation, as running it on P and evaluating at φ(Q).  The
        line with slope lam through T, evaluated at φ(P) = (−xP, i·yP), is
            i·yP − yT − lam·(−xP − xT)  =  (lam·xP + c)  +  i·yP,
        with c = lam·xT − yT depending on Q alone.
        """
        # Threads may share the group: each dict operation is atomic, and
        # racing misses only rebuild identical lines or briefly overshoot
        # the cap by one entry per thread.
        lines = self._lines.get(q_point)
        if lines is None:
            lines = self._miller_lines(q_point)
            if len(self._lines) >= _LINE_CACHE_SIZE:
                self._lines.clear()
            self._lines[q_point] = lines
        q = self.q
        xp, yp = p
        fa, fb = 1, 0  # f = fa + fb·i
        for lam, c, double in lines:
            if double:
                fa, fb = (fa + fb) * (fa - fb) % q, 2 * fa * fb % q
            la = (lam * xp + c) % q
            fa, fb = (fa * la - fb * yp) % q, (fa * yp + fb * la) % q
        return (fa, fb)

    def _miller_lines(self, q_point):
        """The (lam, c, doubling?) line of every Miller step for base point Q.

        One field inversion per step, paid once per G2 point.  Vertical
        lines are left out: they evaluate into F_q, which the final
        exponentiation kills since (q² − 1)/r is a multiple of q − 1.
        """
        q = self.q
        xq, yq = q_point
        tx, ty = xq, yq
        r = self.order
        lines = []
        for bit_index in range(r.bit_length() - 2, -1, -1):
            lam = (3 * tx * tx + 1) * pow(2 * ty, -1, q) % q
            lines.append((lam, (lam * tx - ty) % q, True))
            nx = (lam * lam - 2 * tx) % q
            ty = (lam * (tx - nx) - ty) % q
            tx = nx
            if (r >> bit_index) & 1:
                if tx == xq:
                    # T = −Q: only at the last step, where T + Q is infinity
                    # and the line through them is vertical.
                    break
                lam = (ty - yq) * pow(tx - xq, -1, q) % q
                lines.append((lam, (lam * tx - ty) % q, False))
                nx = (lam * lam - tx - xq) % q
                ty = (lam * (tx - nx) - ty) % q
                tx = nx
        return tuple(lines)

    def _final_exponentiation(self, f):
        """f ^ ((q²−1)/r)  =  (f^(q−1)) ^ h,  with f^q = conj(f)."""
        q = self.q
        fa, fb = f
        # f^(q-1) = conj(f) / f.
        norm = (fa * fa + fb * fb) % q
        inv_norm = pow(norm, -1, q)
        # conj(f) * inv(f) = (fa - fb i) * (fa - fb i)/norm = conj(f)^2/norm.
        ca, cb = fa, (-fb) % q
        sa = (ca * ca - cb * cb) % q
        sb = 2 * ca * cb % q
        ua, ub = sa * inv_norm % q, sb * inv_norm % q
        return self._gt_pow((ua, ub), self._final_exp_h)

    # ------------------------------------------------------------------
    # GT = F_q² arithmetic on raw (a, b) pairs
    # ------------------------------------------------------------------
    def _gt_mul(self, x, y):
        q = self.q
        ac = x[0] * y[0]
        bd = x[1] * y[1]
        cross = (x[0] + x[1]) * (y[0] + y[1]) - ac - bd
        return ((ac - bd) % q, cross % q)

    def _gt_pow(self, x, n: int):
        q = self.q
        ra, rb = 1, 0
        ba, bb = x
        while n:
            if n & 1:
                ra, rb = (ra * ba - rb * bb) % q, (ra * bb + rb * ba) % q
            sa = (ba + bb) * (ba - bb) % q
            bb = 2 * ba * bb % q
            ba = sa
            n >>= 1
        return (ra, rb)

    def _gt_inv(self, x):
        q = self.q
        norm = (x[0] * x[0] + x[1] * x[1]) % q
        inv_norm = pow(norm, -1, q)
        return (x[0] * inv_norm % q, (-x[1]) * inv_norm % q)

    def _gt_one(self):
        return (1, 0)

    def _gt_is_one(self, x):
        return x == (1, 0)

    def _gt_eq(self, x, y):
        return x == y

    def multi_pair(self, pairs):
        """Product pairing with a single shared final exponentiation.

        Op-count cost: one pairing per (G1, G2) pair, identity terms
        included.

        Raises:
            ValueError: on a pair not of the form (G1, G2).
        """
        acc = (1, 0)
        for p, q_el in pairs:
            if p.which != "g1" or q_el.which != "g2":
                raise ValueError("multi_pair expects (G1, G2) pairs")
            if self.counter is not None:
                self.counter.pairings += 1
            if p.point is None or q_el.point is None:
                continue
            acc = self._gt_mul(acc, self._miller_loop(p.point, q_el.point))
        return GTElement(self, self._final_exponentiation(acc))

    def __getstate__(self):
        # The line and pk_h caches are derived data: never pickled
        # (spawn-context worker pools pickle the group).
        return {**self.__dict__, "_lines": {}, "_pk_h": {}}

    def __eq__(self, other):
        return isinstance(other, TypeAPairingGroup) and other.params == self.params

    def __hash__(self):
        return hash(("TypeAPairingGroup", self.params.r, self.params.q))

    def __repr__(self):
        return f"TypeAPairingGroup({self.params.name}, |r|={self.order.bit_length()})"

