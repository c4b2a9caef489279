"""BN254 (alt_bn128) asymmetric pairing backend.

A type-3 pairing e : G1 × G2 → GT on the Barreto–Naehrig curve

    E  : y² = x³ + 3           over F_p      (G1, cofactor 1)
    E' : y² = x³ + 3/(9 + u)   over F_p²     (G2, sextic twist)

with the optimal-ate Miller loop over ``6x + 2`` and a direct
``(p¹² − 1)/r`` final exponentiation.  The implementation favours
auditability over speed (schoolbook F_p¹² arithmetic): this backend exists
to demonstrate that the paper's scheme — written against the abstract
:class:`~repro.pairing.interface.PairingGroup` API — runs unchanged on a
modern 128-bit-security asymmetric pairing, where the SEM public key lives
in G2 and signatures stay short in G1.

The primary, paper-faithful backend is :mod:`repro.pairing.type_a`.
"""

from __future__ import annotations

from repro.ec.hash_to_curve import hash_to_curve_try_increment
from repro.mathkit.field import FieldElement, PrimeField
from repro.mathkit.ntheory import sqrt_mod
from repro.mathkit.tower import ExtFieldSpec
from repro.pairing.interface import GroupElement, GTElement, PairingGroup

# alt_bn128 parameters (Ethereum's BN254 instantiation).
FIELD_MODULUS = 21888242871839275222246405745257275088696311157297823662689037894645226208583
CURVE_ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617
ATE_LOOP_COUNT = 29793968203157093288
LOG_ATE_LOOP_COUNT = 63

FQ = PrimeField(FIELD_MODULUS)
FQ2 = ExtFieldSpec(FIELD_MODULUS, (1, 0))  # u² + 1
FQ12 = ExtFieldSpec(FIELD_MODULUS, (82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0))  # w¹² − 18w⁶ + 82

G1_GENERATOR = (FQ(1), FQ(2))
G2_GENERATOR = (
    FQ2([
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ]),
    FQ2([
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ]),
)

_FINAL_EXPONENT = (FIELD_MODULUS**12 - 1) // CURVE_ORDER
_W = FQ12([0, 1] + [0] * 10)
_W2 = _W * _W
_W3 = _W2 * _W


def _double(pt):
    if pt is None:
        return None
    x, y = pt
    m = 3 * x * x / (2 * y)
    nx = m * m - x - x
    ny = m * (x - nx) - y
    return (nx, ny)


def _add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 == y2:
            return _double(p1)
        return None
    m = (y2 - y1) / (x2 - x1)
    nx = m * m - x1 - x2
    ny = m * (x1 - nx) - y1
    return (nx, ny)


def _neg(pt):
    if pt is None:
        return None
    x, y = pt
    return (x, -y)


def _scalar_mul(pt, n: int):
    if pt is None or n == 0:
        return None
    if n < 0:
        return _scalar_mul(_neg(pt), -n)
    result = None
    addend = pt
    while n:
        if n & 1:
            result = _add(result, addend)
        addend = _double(addend)
        n >>= 1
    return result


def _twist(pt):
    """Map a G2 point (over F_p²) onto the curve over F_p¹²."""
    if pt is None:
        return None
    x, y = pt
    # Change of basis: F_p² is generated by u with u = w⁶ − 9 inside F_p¹².
    xc = (x.coeffs[0] - 9 * x.coeffs[1]) % FIELD_MODULUS, x.coeffs[1]
    yc = (y.coeffs[0] - 9 * y.coeffs[1]) % FIELD_MODULUS, y.coeffs[1]
    nx = FQ12([xc[0]] + [0] * 5 + [xc[1]] + [0] * 5)
    ny = FQ12([yc[0]] + [0] * 5 + [yc[1]] + [0] * 5)
    return (nx * _W2, ny * _W3)


def _cast_g1_to_fq12(pt):
    if pt is None:
        return None
    x, y = pt
    return (FQ12(x.value), FQ12(y.value))


def _linefunc(p1, p2, t):
    """Evaluate the line through p1, p2 at t (all over F_p¹²)."""
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        m = (y2 - y1) / (x2 - x1)
        return m * (xt - x1) - (yt - y1)
    if y1 == y2:
        m = 3 * x1 * x1 / (2 * y1)
        return m * (xt - x1) - (yt - y1)
    return xt - x1


def _frobenius_point(pt):
    """(x, y) -> (x^p, y^p) on the F_p¹² curve."""
    x, y = pt
    return (x**FIELD_MODULUS, y**FIELD_MODULUS)


def _miller_loop(q_twisted, p_cast):
    """Optimal-ate Miller loop (without final exponentiation)."""
    if q_twisted is None or p_cast is None:
        return FQ12.one()
    r = q_twisted
    f = FQ12.one()
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = f * f * _linefunc(r, r, p_cast)
        r = _double(r)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _linefunc(r, q_twisted, p_cast)
            r = _add(r, q_twisted)
    q1 = _frobenius_point(q_twisted)
    nq2 = _neg(_frobenius_point(q1))
    f = f * _linefunc(r, q1, p_cast)
    r = _add(r, q1)
    f = f * _linefunc(r, nq2, p_cast)
    return f


class BN254PairingGroup(PairingGroup):
    """Asymmetric (type-3) pairing group on alt_bn128."""

    is_symmetric = False

    def __init__(self):
        super().__init__()
        self.order = CURVE_ORDER
        self._pbytes = 32

    # -- generators / hashing --------------------------------------------
    def g1(self) -> GroupElement:
        return GroupElement(self, G1_GENERATOR, "g1")

    def g2(self) -> GroupElement:
        return GroupElement(self, G2_GENERATOR, "g2")

    def hash_to_g1(self, data: bytes) -> GroupElement:
        if self.counter is not None:
            self.counter.hash_to_g1 += 1
        x, y = hash_to_curve_try_increment(data, FIELD_MODULUS, 0, 3, 1, sqrt_mod)
        return GroupElement(self, (FQ(x), FQ(y)), "g1")

    # -- backend primitives ------------------------------------------------
    def _add(self, a, b, which):
        return _add(a, b)

    def _neg(self, a, which):
        return _neg(a)

    def _scalar_mul(self, a, n, which):
        return _scalar_mul(a, n)

    def _identity(self, which):
        return None

    def _is_identity(self, a, which):
        return a is None

    def _eq(self, a, b, which):
        return a == b

    def _serialize(self, a, which):
        if a is None:
            return b"\x00" * (self._pbytes + 1) * (1 if which == "g1" else 2)
        x, y = a
        if which == "g1":
            return x.value.to_bytes(self._pbytes, "big") + bytes([2 | (y.value & 1)])
        x0, x1 = x.coeffs
        return (
            x0.to_bytes(self._pbytes, "big")
            + x1.to_bytes(self._pbytes, "big")
            + bytes([2 | (y.coeffs[0] & 1)])
        )

    def deserialize_g1(self, data: bytes) -> GroupElement:
        """Inverse of G1 element serialization (compressed form).

        Only canonical encodings decode: x must be reduced mod p and the
        tag must be exactly 0x02 or 0x03, so every point has one encoding.
        """
        if len(data) != self._pbytes + 1:
            raise ValueError("bad G1 encoding length")
        if data == b"\x00" * (self._pbytes + 1):
            return GroupElement(self, None, "g1")
        x = int.from_bytes(data[:-1], "big")
        sign = data[-1]
        if sign not in (2, 3):
            raise ValueError("bad compression tag")
        if x >= FIELD_MODULUS:
            raise ValueError("x coordinate is not reduced mod p")
        rhs = (pow(x, 3, FIELD_MODULUS) + 3) % FIELD_MODULUS
        y = sqrt_mod(rhs, FIELD_MODULUS)
        if y is None:
            raise ValueError("x is not on the curve")
        if y & 1 != sign & 1:
            y = FIELD_MODULUS - y
        return GroupElement(self, (FQ(x), FQ(y)), "g1")

    def _pair(self, p, q):
        f = _miller_loop(_twist(q), _cast_g1_to_fq12(p))
        return f**_FINAL_EXPONENT

    def multi_pair(self, pairs):
        acc = FQ12.one()
        for p, q_el in pairs:
            if p.which != "g1" or q_el.which != "g2":
                raise ValueError("multi_pair expects (G1, G2) pairs")
            if self.counter is not None:
                self.counter.pairings += 1
            if p.point is None or q_el.point is None:
                continue
            acc = acc * _miller_loop(_twist(q_el.point), _cast_g1_to_fq12(p.point))
        return GTElement(self, acc**_FINAL_EXPONENT)

    # -- GT ------------------------------------------------------------------
    def _gt_mul(self, a, b):
        return a * b

    def _gt_pow(self, a, n):
        return a**n

    def _gt_inv(self, a):
        return a.inverse()

    def _gt_one(self):
        return FQ12.one()

    def _gt_is_one(self, a):
        return a.is_one()

    def _gt_eq(self, a, b):
        return a == b

    def __eq__(self, other):
        return isinstance(other, BN254PairingGroup)

    def __hash__(self):
        return hash("BN254PairingGroup")

    def __repr__(self):
        return "BN254PairingGroup(alt_bn128)"


def is_on_g1_curve(pt) -> bool:
    """y² == x³ + 3 over F_p (None counts as on-curve)."""
    if pt is None:
        return True
    x, y = pt
    return y * y == x * x * x + FieldElement(3, FQ)


def is_on_g2_curve(pt) -> bool:
    """y² == x³ + 3/(9 + u) over F_p² (None counts as on-curve)."""
    if pt is None:
        return True
    x, y = pt
    b2 = FQ2(3) / FQ2([9, 1])
    return y * y == x * x * x + b2
