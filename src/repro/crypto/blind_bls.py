"""Blind BLS signatures (Boldyreva, PKC 2003) — paper Section IV, Eq. 2–5, 7.

Protocol between a message owner and the signer (the SEM):

1. **Blind** (owner):   m̃ = M · g^r  for the message element M ∈ G1 and a
   fresh random blinding factor r ∈ Z_p.   (Eq. 2 — M is the aggregate
   H(id)·∏ u_l^{m_l} in the PDP scheme.)
2. **Sign** (signer):   σ̃ = m̃^y   with the signer's secret key y.  (Eq. 3)
3. **Unblind** (owner): check e(σ̃, g) == e(m̃, pk)  (Eq. 4), then
   σ = σ̃ · pk^{−r} = M^y.  (Eq. 5 — note pk^{−r} = (g^y)^{−r} cancels the
   blinding exactly.)

Blindness: m̃ is uniform in G1 independently of M, so the signer learns
nothing about the message.  Unlinkability: for every (M, σ) there exists an
r matching any transcript (m̃, σ̃), so transcripts cannot be linked to
published signatures.

The pairing is symmetric, so the one key pk = g^y both verifies (Eq. 4)
and unblinds (Eq. 5), as in the paper.

Both masks raise a *fixed* base — g in Eq. 2, pk in Eq. 5 — so a
signer of many messages blinds and unblinds them in batches with
:func:`blind_batch` and :func:`unblind_batch`, each through a
:class:`~repro.ec.fixed_base.FixedBaseTable` for its base: a batch sums
table entries in chunks of :data:`POWERS_CHUNK` exponents instead of
running one scalar multiplication per message.  :func:`blind` and
:func:`unblind` are the paper's per-message algorithms, kept as the
reference the batches are tested against.

The full round trip, recovering exactly the plain BLS signature M^y:

>>> import random
>>> from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
>>> group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
>>> rng = random.Random(0)
>>> y = group.random_nonzero_scalar(rng)          # the SEM's secret key
>>> pk = group.g1() ** y
>>> M = group.random_g1(rng)                      # the aggregated block
>>> state = blind(group, M, rng)                  # Eq. 2 (owner)
>>> sigma_tilde = sign_blinded(state.blinded, y)  # Eq. 3 (SEM)
>>> sigma = unblind(group, state, sigma_tilde, pk)  # Eq. 4 + 5 (owner)
>>> sigma == M ** y
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.threshold import batch_verify_shares, verify_share
from repro.pairing.interface import GroupElement, PairingGroup


class BlindSignatureError(ValueError):
    """The signer's blind signatures failed Eq. 4 or Eq. 7, did not
    answer every blinded message, or were checked for another key."""


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


def blind_batch(
    group: PairingGroup, message_elements: list[GroupElement], rng, table
) -> list[BlindingState]:
    """Eq. 2 for every element, one fresh r each, drawn in input order.

    Args:
        rng: where the blinding factors come from (``None``: the OS).
        table: a :class:`~repro.ec.fixed_base.FixedBaseTable` for
            ``group.g1()``; the masks g^r come from it.
    """
    rs = [group.random_nonzero_scalar(rng) for _ in message_elements]
    masks = fixed_base_powers(table, rs)
    return [BlindingState(r=r, blinded=element * mask)
            for r, element, mask in zip(rs, message_elements, masks)]


def unblind_batch(
    group: PairingGroup,
    states: list[BlindingState],
    blind_signatures: list[GroupElement],
    table,
) -> list[GroupElement]:
    """Eq. 5 for every item, once the signatures are checked.

    Args:
        table: a :class:`~repro.ec.fixed_base.FixedBaseTable` for the
            signer's public key pk = g^y; the unmasks pk^{−r} come from it.
    """
    exponents = [group.order - state.r % group.order for state in states]
    unmasks = fixed_base_powers(table, exponents)
    return [signature * unmask for signature, unmask in zip(blind_signatures, unmasks)]


#: Exponents per :meth:`~repro.ec.fixed_base.FixedBaseTable.powers` call.
#: One call sums all its powers in one affine tree, so an unchunked call
#: over a whole file would hold every power's first tree level at once.
POWERS_CHUNK = 32


def fixed_base_powers(table, exponents: list[int]) -> list[GroupElement]:
    """``[table.base ** e for e in exponents]``, summed from ``table``
    :data:`POWERS_CHUNK` exponents at a time."""
    powers: list[GroupElement] = []
    for lo in range(0, len(exponents), POWERS_CHUNK):
        powers += table.powers(exponents[lo : lo + POWERS_CHUNK])
    return powers


def sign_blinded(blinded: GroupElement, sk: int) -> GroupElement:
    """Eq. 3: σ̃ = m̃^y.  Runs at the signer (SEM); one G1 exponentiation."""
    return blinded**sk


#: Eq. 4: e(σ̃, g) == e(m̃, pk) — Eq. 10 with one SEM holding the whole key.
verify_blinded = verify_share


def unblind(
    group: PairingGroup,
    state: BlindingState,
    blind_signature: GroupElement,
    pk: GroupElement,
    check: bool = True,
) -> GroupElement:
    """Eq. 5: σ = σ̃ · pk^{−r}; optionally checks Eq. 4 first.

    Raises:
        ValueError: if ``check`` is set and the blind signature fails Eq. 4
            (the paper's prescription: discard and re-request).
    """
    if check and not verify_blinded(group, state.blinded, blind_signature, pk):
        raise ValueError("blind signature failed verification (Eq. 4); re-request from SEM")
    return blind_signature * (pk ** (group.order - state.r % group.order))


def batch_unblind_verify(
    group: PairingGroup,
    blinded_messages: list[GroupElement],
    blind_signatures: list[GroupElement],
    pk: GroupElement,
    rng=None,
    pool=None,
) -> bool:
    """Eq. 7: batch-verify n blind signatures with 2 pairings total.

    Checks e(∏ σ̃_i^{γ_i}, g) == e(∏ m̃_i^{γ_i}, pk) for random γ_i: the
    paper's headline optimization ("Our Scheme*"), replacing 2n pairings
    with 2n G1 exponentiations + 2 pairings.  It is Eq. 14
    (:func:`~repro.crypto.threshold.batch_verify_shares`) with one SEM
    holding the whole key, and runs as exactly that call.

    Op-count cost: 2n Exp_G1 (as ``exp_g1_msm``) + 2 Pair.

    Raises:
        ValueError: if the message and signature counts differ.
    """
    return batch_verify_shares(group, blinded_messages, {0: blind_signatures}, {0: pk},
                               rng, pool)
