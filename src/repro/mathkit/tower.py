"""Generic polynomial extension fields F_p[x] / (modulus).

Used by the BN254 (asymmetric) pairing backend for F_p² = F_p[u]/(u² + 1)
and F_p¹² = F_p[w]/(w¹² − 18w⁶ + 82).  The representation is a plain
coefficient list with schoolbook multiplication followed by reduction by the
(sparse) modulus — simple, easy to audit, and fast enough for the secondary
backend (the primary type-A backend computes F_q² on raw ``(a, b)`` pairs
in :mod:`repro.pairing.type_a`).
"""

from __future__ import annotations


class ExtFieldSpec:
    """Immutable description of an extension: prime p, modulus coefficients.

    ``modulus_coeffs`` are the low-order coefficients c_0..c_{d-1} of a monic
    degree-d modulus  x^d + c_{d-1} x^{d-1} + ... + c_0.
    """

    __slots__ = ("p", "modulus_coeffs", "degree")

    def __init__(self, p: int, modulus_coeffs: tuple[int, ...]):
        self.p = p
        self.modulus_coeffs = tuple(c % p for c in modulus_coeffs)
        self.degree = len(modulus_coeffs)

    def __call__(self, coeffs) -> "ExtFieldElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs] + [0] * (self.degree - 1)
        coeffs = list(coeffs)
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(coeffs)}")
        return ExtFieldElement(tuple(c % self.p for c in coeffs), self)

    def zero(self) -> "ExtFieldElement":
        return self(0)

    def one(self) -> "ExtFieldElement":
        return self(1)

    def gen(self) -> "ExtFieldElement":
        """The adjoined root x (i.e. the polynomial 'x')."""
        coeffs = [0] * self.degree
        coeffs[1 % self.degree] = 1
        return self(coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ExtFieldSpec)
            and other.p == self.p
            and other.modulus_coeffs == self.modulus_coeffs
        )

    def __hash__(self):
        return hash((self.p, self.modulus_coeffs))


class ExtFieldElement:
    """Element of an :class:`ExtFieldSpec` extension field."""

    __slots__ = ("coeffs", "spec")

    def __init__(self, coeffs: tuple[int, ...], spec: ExtFieldSpec):
        self.coeffs = coeffs
        self.spec = spec

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return ExtFieldElement(
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)), self.spec
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return ExtFieldElement(
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)), self.spec
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        p = self.spec.p
        return ExtFieldElement(tuple(-a % p for a in self.coeffs), self.spec)

    def __mul__(self, other):
        p = self.spec.p
        if isinstance(other, int):
            return ExtFieldElement(tuple(a * other % p for a in self.coeffs), self.spec)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.spec.degree
        product = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                product[i + j] += a * b
        # Reduce by the monic sparse modulus: x^d = -sum(c_i x^i).
        mod = self.spec.modulus_coeffs
        for top in range(2 * d - 2, d - 1, -1):
            coefficient = product[top]
            if coefficient == 0:
                continue
            product[top] = 0
            base = top - d
            for i, c in enumerate(mod):
                if c:
                    product[base + i] -= coefficient * c
        return ExtFieldElement(tuple(c % p for c in product[:d]), self.spec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            inv = pow(other, -1, self.spec.p)
            return self * inv
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.spec.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "ExtFieldElement":
        """Extended Euclid on polynomials over F_p."""
        p = self.spec.p
        d = self.spec.degree
        # lm, hm: bezout coefficient polys; low, high: remainder polys.
        lm, hm = [1] + [0] * d, [0] * (d + 1)
        low = list(self.coeffs) + [0]
        high = list(self.spec.modulus_coeffs) + [1]
        while _poly_degree(low):
            r = _poly_div(high, low, p)
            r += [0] * (d + 1 - len(r))
            nm = hm[:]
            new = high[:]
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    nm[i + j] -= lm[i] * r[j]
                    new[i + j] -= low[i] * r[j]
            nm = [x % p for x in nm]
            new = [x % p for x in new]
            lm, low, hm, high = nm, new, lm, low
        if low[0] == 0:
            raise ZeroDivisionError("inverse of zero in extension field")
        inv = pow(low[0], -1, p)
        return ExtFieldElement(tuple(c * inv % p for c in lm[:d]), self.spec)

    # -- misc --------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ExtFieldElement):
            if other.spec != self.spec:
                return NotImplemented
            return other
        if isinstance(other, int):
            return self.spec(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.spec(other)
        return (
            isinstance(other, ExtFieldElement)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.spec.p))

    def __repr__(self):
        return f"ExtFieldElement{self.coeffs}"


def _poly_degree(poly: list[int]) -> int:
    for i in range(len(poly) - 1, -1, -1):
        if poly[i]:
            return i
    return 0


def _poly_div(a: list[int], b: list[int], p: int) -> list[int]:
    """Quotient of polynomial division a // b over F_p."""
    dega = _poly_degree(a)
    degb = _poly_degree(b)
    temp = list(a)
    quotient = [0] * (dega - degb + 1)
    inv_lead = pow(b[degb], -1, p)
    for i in range(dega - degb, -1, -1):
        quotient[i] = (quotient[i] + temp[degb + i] * inv_lead) % p
        for j in range(degb + 1):
            temp[i + j] = (temp[i + j] - b[j] * quotient[i]) % p
    return quotient
