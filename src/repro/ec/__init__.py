"""Elliptic-curve arithmetic: raw type-A G1 point arithmetic in Jacobian
coordinates (scalar and multi-scalar multiplication), fixed-base tables,
and hash-to-curve."""

from repro.ec.hash_to_curve import hash_to_curve_try_increment

__all__ = [
    "hash_to_curve_try_increment",
]
