"""Threshold blind BLS for the multi-SEM model (paper Section V, Eq. 8–14).

A dealer (the "manager of SEMs") Shamir-shares the master signing key y
across w SEMs (Setup′, Eq. 8).  Each SEM S_j signs a blinded message with
its share:  σ̃_{i,j} = m̃_i^{y_j}  (Sign′, Eq. 9).  The owner verifies each
share against the SEM's share public key pk_j = g^{y_j} (Eq. 10), and once
t valid shares are in hand combines them with precomputed Lagrange basis
values L_j(0) (Eq. 11–12):

    σ̃_i = ∏_j σ̃_{i,j}^{L_j(0)} = m̃_i^{Σ L_j(0)·y_j} = m̃_i^{f(0)} = m̃_i^y,

then unblinds exactly as in the single-SEM scheme (Eq. 13), with no second
check.  Batch share verification (Eq. 14) reduces n·t pairings to t + 1;
Eq. 4 and Eq. 7 are Eq. 10 and Eq. 14 with one SEM holding the whole key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.shamir import ShamirShare, split_secret
from repro.mathkit.poly import lagrange_basis_at_zero
from repro.pairing.interface import GroupElement, PairingGroup


@dataclass(frozen=True)
class ThresholdKeyShares:
    """Output of Setup′: per-SEM key shares and public verification keys.

    ``share_pks[j]`` is pk_j = g^{y_j}.  The master public key pk = g^y
    is what public verifiers use; the master secret is *not* retained (the
    dealer goes offline, as the paper prescribes).
    """

    w: int
    t: int
    master_pk: GroupElement
    shares: list[ShamirShare]
    share_pks: list[GroupElement] = field(default_factory=list)

    def share_for(self, index: int) -> ShamirShare:
        """The key share of SEM ``index`` (0-based)."""
        return self.shares[index]


def distribute_key(
    group: PairingGroup, w: int, t: int, rng=None, master_sk: int | None = None
) -> ThresholdKeyShares:
    """Setup′ (Eq. 8): share a master key y across w SEMs with threshold t.

    The paper fixes w = 2t − 1; this function accepts any w >= t and the
    multi-SEM orchestration layer enforces the paper's choice by default.
    """
    if master_sk is None:
        master_sk = group.random_nonzero_scalar(rng)
    shares = split_secret(master_sk, w, t, group.order, rng=rng)
    g = group.g1()
    return ThresholdKeyShares(
        w=w,
        t=t,
        master_pk=g**master_sk,
        shares=shares,
        share_pks=[g**s.y for s in shares],
    )


def sign_share(blinded: GroupElement, key_share: ShamirShare) -> GroupElement:
    """Sign′ (Eq. 9): σ̃_{i,j} = m̃_i^{y_j}, computed by SEM S_j."""
    return blinded**key_share.y


def verify_share(
    group: PairingGroup,
    blinded: GroupElement,
    signature_share: GroupElement,
    share_pk: GroupElement,
) -> bool:
    """Eq. 10: e(σ̃_{i,j}, g) == e(m̃_i, pk_j); Eq. 4 with pk_j for pk."""
    return group.pairing_check(
        [(signature_share, group.g1()), (blinded.inverse(), share_pk)]
    )


def combine_shares(
    group: PairingGroup,
    signature_shares: list[tuple[int, GroupElement]],
    basis: list[int] | None = None,
) -> GroupElement:
    """Eq. 12: σ̃ = ∏ σ̃_j^{L_j(0)} over t (share_x, share_signature) pairs.

    Args:
        signature_shares: list of (x_j, σ̃_{i,j}) — the Shamir abscissa of
            the contributing SEM and its signature share.
        basis: optional precomputed Lagrange basis (Eq. 11) for exactly
            these abscissae in this order; computed on the fly otherwise.

    Each L_j(0) is raised as its signed representative: λ − r when
    λ > r/2, applied as (σ̃_j⁻¹)^{r−λ}.  At abscissae 1..t the coefficients
    are small integers, (2, −1) at t = 2 and (3, −3, 1) at t = 3, so each
    power is a few doublings rather than a 160-bit Exp.  On prime-order
    shares the element is the one the reduced coefficients give.

    Op-count cost: one Exp per coefficient other than 1 (none at t = 1),
    as Table I counts them, however short the exponent.
    """
    if not signature_shares:
        raise ValueError("need at least one signature share")
    xs = [x for x, _ in signature_shares]
    if basis is None:
        basis = lagrange_basis_at_zero(xs, group.order)
    if len(basis) != len(signature_shares):
        raise ValueError("basis length must match share count")
    order = group.order
    acc = None
    for (_, sig), coeff in zip(signature_shares, basis):
        coeff %= order
        if coeff == 1:
            term = sig
        elif coeff > order // 2:
            term = sig.inverse() ** (order - coeff)
        else:
            term = sig**coeff
        acc = term if acc is None else acc * term
    return acc


def batch_verify_shares(
    group: PairingGroup,
    blinded_messages: list[GroupElement],
    shares_by_sem: dict[int, list[GroupElement]],
    share_pks: dict[int, GroupElement],
    rng=None,
    pool=None,
) -> bool:
    """Eq. 14 (randomized): verify all n·t signature shares with t + 1 pairings.

    The one randomized blind-signature check: Eq. 7
    (:func:`~repro.crypto.blind_bls.batch_unblind_verify`) is this check
    with one SEM holding the whole key.  The paper's Eq. 14 multiplies
    everything together unweighted.  We weight SEM j's share of message i
    by γ_i·δ_j, with γ_i fresh per message and δ_j fresh per SEM (δ = 1
    for the first SEM), and check

        e(∏_j ∏_i σ̃_{i,j}^{γ_i·δ_j}, g) == ∏_j e(M^{δ_j}, pk_j),
        M = ∏_i m̃_i^{γ_i},

    which is e(M, pk_j^{δ_j}) per SEM with the long-lived pk_j kept as
    the pairing argument whose Miller lines are cached.  A wrong share
    then passes with probability about 1/r.  Weighting by γ_i alone is
    not enough with several SEMs: offsets in different SEMs' shares of
    one message (Δ and Δ⁻¹, or keys y_0 + d and y_1 − d) cancel.

    Op-count cost: (SEM count + 1)·n ``exp_g1_msm`` (an MSM per SEM and
    one for M), one Exp for M^{δ_j} on every SEM after the first, and
    1 + (SEM count) pairings.  With one SEM: n draws, 2n MSM terms, 2 Pair.

    Args:
        blinded_messages: m̃_1..m̃_n.
        shares_by_sem: SEM index -> [σ̃_{1,j}, ..., σ̃_{n,j}].
        share_pks: SEM index -> pk_j.
        pool: optional :class:`~repro.core.parallel.WorkerPool`; the MSMs
            then fan out across its workers.  The weights are always drawn
            in this process, so results match the serial run bit-for-bit.

    Raises:
        ValueError: if some SEM's share count differs from the message count.
    """
    n = len(blinded_messages)
    if any(len(v) != n for v in shares_by_sem.values()):
        raise ValueError("every SEM must supply one share per message")
    if n == 0 or not shares_by_sem:
        return True
    gammas = [group.random_nonzero_scalar(rng) for _ in range(n)]
    deltas = [1] + [group.random_nonzero_scalar(rng) for _ in range(len(shares_by_sem) - 1)]
    msm = group.multi_exp if pool is None else pool.msm
    lhs_acc: GroupElement | None = None
    for delta, sem_shares in zip(deltas, shares_by_sem.values()):
        weights = gammas if delta == 1 else [gamma * delta % group.order for gamma in gammas]
        sem_acc = msm(sem_shares, weights)
        lhs_acc = sem_acc if lhs_acc is None else lhs_acc * sem_acc
    msg_inv = msm(blinded_messages, gammas).inverse()
    pairs = [(msg_inv if delta == 1 else msg_inv**delta, share_pks[sem_index])
             for delta, sem_index in zip(deltas, shares_by_sem)]
    return group.pairing_check([(lhs_acc, group.g1()), *pairs])
