"""BLS short signatures (Boneh–Lynn–Shacham, J. Cryptology 2004).

The paper's verification metadata is exactly a BLS signature on the
"aggregated block" H(id)·∏ u_l^{m_l}; this module provides the plain
(non-blind) scheme, used directly by the SW08 baseline and as the
correctness reference for the blind variant.

Written against the generic :class:`~repro.pairing.interface.PairingGroup`
API: secret keys are scalars; public keys and signatures are both
elements of the one symmetric group G1, matching the paper's notation.

>>> import random
>>> from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
>>> group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
>>> keys = bls_keygen(group, random.Random(1))
>>> sig = bls_sign(group, keys.sk, b"audited block")
>>> bls_verify(group, keys.pk, b"audited block", sig)
True
>>> bls_verify(group, keys.pk, b"tampered block", sig)
False
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pairing.interface import GroupElement, PairingGroup


@dataclass(frozen=True)
class BLSKeyPair:
    """A BLS key pair: sk = y in Z_r, pk = g^y."""

    sk: int
    pk: GroupElement


def bls_keygen(group: PairingGroup, rng=None) -> BLSKeyPair:
    """Sample sk uniformly from Z_r* and derive pk = g^sk."""
    sk = group.random_nonzero_scalar(rng)
    return BLSKeyPair(sk=sk, pk=group.g1() ** sk)


def bls_sign(group: PairingGroup, sk: int, message: bytes) -> GroupElement:
    """sigma = H(message)^sk in G1."""
    return group.hash_to_g1(message) ** sk


def bls_sign_element(element: GroupElement, sk: int) -> GroupElement:
    """Sign a pre-hashed / pre-aggregated G1 element: sigma = element^sk.

    This is the form the PDP scheme uses, where the 'message' is the
    aggregate H(id)·∏ u_l^{m_l} already mapped into G1.
    """
    return element**sk


def bls_verify(
    group: PairingGroup, pk: GroupElement, message: bytes, signature: GroupElement
) -> bool:
    """Check e(sigma, g) == e(H(message), pk).

    One :meth:`~repro.pairing.interface.PairingGroup.hashed_pairing_check`
    with H(message) taken as it is: on type-A, the raw hashed point pairs
    against the cached pk_h = [h mod r]·pk, so no cofactor clearing runs.
    Op-count cost: one ``hash_to_g1`` and 2 Pair.  σ = O is rejected, as
    e(O, g) = 1 ≠ e(H(message), pk).
    """
    return group.hashed_pairing_check(signature, pk, [message], None)


def bls_verify_element(
    group: PairingGroup, pk: GroupElement, element: GroupElement, signature: GroupElement
) -> bool:
    """Check e(sigma, g) == e(element, pk) for a pre-aggregated element."""
    return group.pairing_check([(signature, group.g1()), (element.inverse(), pk)])


def bls_aggregate(signatures: list[GroupElement]) -> GroupElement:
    """Multiply signatures together (aggregation for a common public key)."""
    if not signatures:
        raise ValueError("cannot aggregate zero signatures")
    acc = signatures[0]
    for sig in signatures[1:]:
        acc = acc * sig
    return acc


def bls_batch_verify(
    group: PairingGroup,
    pk: GroupElement,
    elements: list[GroupElement],
    signatures: list[GroupElement],
    rng=None,
) -> bool:
    """Small-exponent batch verification of many signatures under one key.

    Checks e(∏ sigma_i^gamma_i, g) == e(∏ element_i^gamma_i, pk) for random
    gamma_i — the same randomization the paper applies in Eq. 7.  Sound except
    with probability ~1/r per run.  The two products run as multi-scalar
    multiplications; op-count cost is 2n Exp_G1 (as ``exp_g1_msm``) + 2 Pair.

    Raises:
        ValueError: if the element and signature counts differ.
    """
    if len(elements) != len(signatures):
        raise ValueError("elements and signatures length mismatch")
    if not elements:
        return True
    gammas = [group.random_nonzero_scalar(rng) for _ in elements]
    sig_acc = group.multi_exp(signatures, gammas)
    elt_acc = group.multi_exp(elements, gammas)
    return group.pairing_check([(sig_acc, group.g1()), (elt_acc.inverse(), pk)])
