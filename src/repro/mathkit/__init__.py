"""Number-theoretic and finite-field building blocks.

This subpackage is the lowest layer of the reproduction: everything above it
(elliptic curves, pairings, signatures, the PDP protocol) is built on the
primitives defined here.  Nothing in :mod:`repro.mathkit` knows about curves
or cryptography; it is pure algebra.
"""

from repro.mathkit.ntheory import (
    crt,
    egcd,
    inverse_mod,
    is_prime,
    jacobi_symbol,
    next_prime,
    random_prime,
    sqrt_mod,
)
from repro.mathkit.field import PrimeField, FieldElement
from repro.mathkit.poly import Polynomial, lagrange_basis_at_zero, lagrange_interpolate_at_zero

__all__ = [
    "crt",
    "egcd",
    "inverse_mod",
    "is_prime",
    "jacobi_symbol",
    "next_prime",
    "random_prime",
    "sqrt_mod",
    "PrimeField",
    "FieldElement",
    "Polynomial",
    "lagrange_basis_at_zero",
    "lagrange_interpolate_at_zero",
]
