"""Bilinear pairing groups.

One backend implements the :class:`~repro.pairing.interface.PairingGroup`
API: :mod:`repro.pairing.type_a`, a symmetric pairing e : G1 × G1 → GT on
the supersingular curve y² = x³ + x over F_q with embedding degree 2; the
same family as PBC's ``a.param`` used by the paper (|r| = 160, |q| = 512).

Use :func:`default_group` (or :func:`toy_group` in unit tests) unless you
need a specific parameterization.
"""

from repro.pairing.interface import PairingGroup, GroupElement, GTElement, OperationCounter
from repro.pairing.params import (
    TYPE_A_PARAM_SETS,
    TypeAParams,
    generate_type_a_params,
)
from repro.pairing.type_a import TypeAPairingGroup


def default_group() -> TypeAPairingGroup:
    """The paper's parameterization: 160-bit group order, 512-bit base field."""
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["paper-160"])


def toy_group() -> TypeAPairingGroup:
    """A small (insecure) parameterization for fast unit tests."""
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])


__all__ = [
    "PairingGroup",
    "GroupElement",
    "GTElement",
    "OperationCounter",
    "TypeAPairingGroup",
    "TypeAParams",
    "TYPE_A_PARAM_SETS",
    "generate_type_a_params",
    "default_group",
    "toy_group",
]
