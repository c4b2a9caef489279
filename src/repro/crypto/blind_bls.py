"""Blind BLS signatures (Boldyreva, PKC 2003) — paper Section IV, Eq. 2–5, 7.

Protocol between a message owner and the signer (the SEM):

1. **Blind** (owner):   m̃ = M · g^r  for the message element M ∈ G1 and a
   fresh random blinding factor r ∈ Z_p.   (Eq. 2 — M is the aggregate
   H(id)·∏ u_l^{m_l} in the PDP scheme.)
2. **Sign** (signer):   σ̃ = m̃^y   with the signer's secret key y.  (Eq. 3)
3. **Unblind** (owner): check e(σ̃, g2) == e(m̃, pk)  (Eq. 4), then
   σ = σ̃ · pk^{−r} = M^y.  (Eq. 5 — note pk^{−r} = (g^y)^{−r} cancels the
   blinding exactly.)

Blindness: m̃ is uniform in G1 independently of M, so the signer learns
nothing about the message.  Unlinkability: for every (M, σ) there exists an
r matching any transcript (m̃, σ̃), so transcripts cannot be linked to
published signatures.

Unblinding uses pk as an element of G1, ``pk1 = g1^y``: the pairing is
symmetric, so pk1 and pk are the same point, as in the paper.

The full round trip, recovering exactly the plain BLS signature M^y:

>>> import random
>>> from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
>>> group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
>>> rng = random.Random(0)
>>> y = group.random_nonzero_scalar(rng)          # the SEM's secret key
>>> pk = group.g2() ** y
>>> M = group.random_g1(rng)                      # the aggregated block
>>> state = blind(group, M, rng)                  # Eq. 2 (owner)
>>> sigma_tilde = sign_blinded(state.blinded, y)  # Eq. 3 (SEM)
>>> sigma = unblind(group, state, sigma_tilde, pk)  # Eq. 4 + 5 (owner)
>>> sigma == M ** y
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pairing.interface import GroupElement, PairingGroup


@dataclass(frozen=True)
class BlindingState:
    """The owner's secret per-message blinding state."""

    r: int
    blinded: GroupElement


def blind(group: PairingGroup, message_element: GroupElement, rng=None) -> BlindingState:
    """Eq. 2: m̃ = M · g^r with fresh r."""
    r = group.random_nonzero_scalar(rng)
    blinded = message_element * group.g1() ** r
    return BlindingState(r=r, blinded=blinded)


def sign_blinded(blinded: GroupElement, sk: int) -> GroupElement:
    """Eq. 3: σ̃ = m̃^y.  Runs at the signer (SEM); one G1 exponentiation."""
    return blinded**sk


def verify_blinded(
    group: PairingGroup,
    blinded: GroupElement,
    blind_signature: GroupElement,
    pk: GroupElement,
) -> bool:
    """Eq. 4: e(σ̃, g2) == e(m̃, pk)."""
    return group.pairing_check([(blind_signature, group.g2()), (blinded.inverse(), pk)])


def unblind(
    group: PairingGroup,
    state: BlindingState,
    blind_signature: GroupElement,
    pk: GroupElement,
    pk1: GroupElement | None = None,
    check: bool = True,
) -> GroupElement:
    """Eq. 5: σ = σ̃ · pk1^{−r}; optionally checks Eq. 4 first.

    Args:
        pk1: the signer's public key as a G1 element (g1^y).  Defaults
            to ``pk`` tagged G1, the same point.

    Raises:
        ValueError: if ``check`` is set and the blind signature fails Eq. 4
            (the paper's prescription: discard and re-request).
    """
    if check and not verify_blinded(group, state.blinded, blind_signature, pk):
        raise ValueError("blind signature failed verification (Eq. 4); re-request from SEM")
    if pk1 is None:
        pk1 = GroupElement(group, pk.point, "g1")
    return blind_signature * (pk1 ** (group.order - state.r % group.order))


def batch_unblind_verify(
    group: PairingGroup,
    blinded_messages: list[GroupElement],
    blind_signatures: list[GroupElement],
    pk: GroupElement,
    rng=None,
    pool=None,
) -> bool:
    """Eq. 7: batch-verify n blind signatures with 2 pairings total.

    Checks e(∏ σ̃_i^{γ_i}, g2) == e(∏ m̃_i^{γ_i}, pk) for random γ_i.
    This is the paper's headline optimization ("Our Scheme*"): it replaces
    2n pairings with 3n G1 exponentiations + 2 pairings.  The two products
    run as multi-scalar multiplications
    (:meth:`~repro.pairing.interface.PairingGroup.multi_exp`).

    Args:
        pool: optional :class:`~repro.core.parallel.WorkerPool`; the two
            MSMs then fan out across its workers.  The γ_i are always
            drawn in this process, so results match the serial run
            bit-for-bit.

    Op-count cost: 2n Exp_G1 (as ``exp_g1_msm``) + 2 Pair.

    Raises:
        ValueError: if the message and signature counts differ.
    """
    if len(blinded_messages) != len(blind_signatures):
        raise ValueError("message and signature counts differ")
    if not blinded_messages:
        return True
    gammas = [group.random_nonzero_scalar(rng) for _ in blinded_messages]
    if pool is not None:
        sig_acc = pool.msm(blind_signatures, gammas)
        msg_acc = pool.msm(blinded_messages, gammas)
    else:
        sig_acc = group.multi_exp(blind_signatures, gammas)
        msg_acc = group.multi_exp(blinded_messages, gammas)
    return group.pairing_check([(sig_acc, group.g2()), (msg_acc.inverse(), pk)])
