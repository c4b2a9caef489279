"""Threshold blind BLS for the multi-SEM model (paper Section V, Eq. 8–14).

A dealer (the "manager of SEMs") Shamir-shares the master signing key y
across w SEMs (Setup′, Eq. 8).  Each SEM S_j signs a blinded message with
its share:  σ̃_{i,j} = m̃_i^{y_j}  (Sign′, Eq. 9).  The owner verifies each
share against the SEM's share public key pk_j = g^{y_j} (Eq. 10), and once
t valid shares are in hand combines them with precomputed Lagrange basis
values L_j(0) (Eq. 11–12):

    σ̃_i = ∏_j σ̃_{i,j}^{L_j(0)} = m̃_i^{Σ L_j(0)·y_j} = m̃_i^{f(0)} = m̃_i^y,

then unblinds exactly as in the single-SEM scheme (Eq. 13).  Batch share
verification (Eq. 14) reduces n·t pairings to t + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.shamir import ShamirShare, split_secret
from repro.mathkit.poly import lagrange_basis_at_zero
from repro.pairing.interface import GroupElement, PairingGroup


@dataclass(frozen=True)
class ThresholdKeyShares:
    """Output of Setup′: per-SEM key shares and public verification keys.

    ``share_pks[j]`` is pk_j = g2^{y_j}; ``share_pks_g1[j]`` the G1 copy
    used in share combination checks on asymmetric groups.  The master
    public key pk = g2^y is what public verifiers use; the master secret is
    *not* retained (the dealer goes offline, as the paper prescribes).
    """

    w: int
    t: int
    master_pk: GroupElement
    master_pk_g1: GroupElement
    shares: list[ShamirShare]
    share_pks: list[GroupElement] = field(default_factory=list)
    share_pks_g1: list[GroupElement] = field(default_factory=list)

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
    g2 = group.g2()
    g1 = group.g1()
    return ThresholdKeyShares(
        w=w,
        t=t,
        master_pk=g2**master_sk,
        master_pk_g1=g1**master_sk,
        shares=shares,
        share_pks=[g2**s.y for s in shares],
        share_pks_g1=[g1**s.y for s in shares],
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
    """Eq. 10: e(σ̃_{i,j}, g2) == e(m̃_i, pk_j)."""
    return group.pairing_check(
        [(signature_share, group.g2()), (blinded.inverse(), share_pk)]
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
    """
    if not signature_shares:
        raise ValueError("need at least one signature share")
    xs = [x for x, _ in signature_shares]
    if basis is None:
        basis = lagrange_basis_at_zero(xs, group.order)
    if len(basis) != len(signature_shares):
        raise ValueError("basis length must match share count")
    acc = signature_shares[0][1] ** basis[0]
    for (_, sig), coeff in zip(signature_shares[1:], basis[1:]):
        acc = acc * sig**coeff
    return acc


def batch_verify_shares(
    group: PairingGroup,
    blinded_messages: list[GroupElement],
    shares_by_sem: dict[int, list[GroupElement]],
    share_pks: dict[int, GroupElement],
    rng=None,
) -> bool:
    """Eq. 14 (randomized): verify all n·t signature shares with t + 1 pairings.

    The paper's Eq. 14 multiplies everything together unweighted; we add
    the standard small-exponent randomization per message so that errors in
    distinct shares cannot cancel (same soundness rationale as Eq. 7 — the
    unweighted variant accepts e.g. two shares swapped between messages).
    Pairing count is unchanged: one per SEM plus one on the left.

    Args:
        blinded_messages: m̃_1..m̃_n.
        shares_by_sem: SEM index -> [σ̃_{1,j}, ..., σ̃_{n,j}].
        share_pks: SEM index -> pk_j.
    """
    n = len(blinded_messages)
    if any(len(v) != n for v in shares_by_sem.values()):
        raise ValueError("every SEM must supply one share per message")
    if n == 0 or not shares_by_sem:
        return True
    gammas = [group.random_nonzero_scalar(rng) for _ in range(n)]
    randomized_messages = [m**g for m, g in zip(blinded_messages, gammas)]
    msg_acc = randomized_messages[0]
    for m in randomized_messages[1:]:
        msg_acc = msg_acc * m
    msg_inv = msg_acc.inverse()
    lhs_acc: GroupElement | None = None
    pairs = []
    for sem_index, sem_shares in shares_by_sem.items():
        sem_acc = sem_shares[0] ** gammas[0]
        for share, gamma in zip(sem_shares[1:], gammas[1:]):
            sem_acc = sem_acc * share**gamma
        lhs_acc = sem_acc if lhs_acc is None else lhs_acc * sem_acc
        pairs.append((msg_inv, share_pks[sem_index]))
    return group.pairing_check([(lhs_acc, group.g2()), *pairs])
