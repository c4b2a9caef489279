"""Multi-SEM deployment (paper Section V).

:class:`SEMCluster` is the server side: w mediators, each holding one
Shamir share of the signing key (Setup′).  :class:`MultiSEMClient` is the
owner-side combiner over it: the
:class:`~repro.service.failover.FailoverMultiSEMClient` built from the
cluster's endpoints, which fans a blinded message out, verifies the
returned signature shares (Eq. 10 / Eq. 14), and interpolates any t valid
shares into the blind signature (Eq. 11–12), which the regular
:class:`~repro.core.owner.DataOwner` then unblinds (Eq. 13).

Fault tolerance: with w = 2t − 1 SEMs, up to t − 1 may be crashed or even
byzantine (returning wrong shares) and signing still succeeds — exercised
in ``tests/core/test_multi_sem.py``.
"""

from __future__ import annotations

from repro.core.group_mgmt import MemberCredential
from repro.core.sem import SecurityMediator
from repro.crypto.threshold import ThresholdKeyShares, distribute_key
from repro.pairing.interface import GroupElement, PairingGroup
from repro.service.failover import (
    FailoverMultiSEMClient,
    InsufficientSharesError,
    SEMEndpoint,
)

__all__ = ["InsufficientSharesError", "MultiSEMClient", "SEMCluster"]


class SEMCluster:
    """w security mediators sharing one signing key with threshold t."""

    def __init__(self, group: PairingGroup, t: int, w: int | None = None, rng=None,
                 require_membership: bool = True):
        if w is None:
            w = 2 * t - 1  # the paper's deployment choice
        if not 1 <= t <= w:
            raise ValueError("need 1 <= t <= w")
        self.group = group
        self.t = t
        self.w = w
        self.key_shares: ThresholdKeyShares = distribute_key(group, w, t, rng=rng)
        self.sems: list[SecurityMediator] = [
            SecurityMediator(group, sk=share.y, rng=rng, require_membership=require_membership)
            for share in self.key_shares.shares
        ]

    @property
    def master_pk(self) -> GroupElement:
        """pk = g^y — what data owners and public verifiers use."""
        return self.key_shares.master_pk

    def add_member(self, credential: MemberCredential) -> None:
        for sem in self.sems:
            sem.add_member(credential)

    def remove_member(self, credential: MemberCredential) -> None:
        for sem in self.sems:
            sem.remove_member(credential)

    def endpoints(self) -> list:
        """The cluster as service-layer endpoints (name, abscissa, pk, transport).

        Feeds :class:`repro.service.failover.FailoverMultiSEMClient`, whose
        per-endpoint transports are the SEMs' own ``sign_blinded_batch``
        methods — crash-injected SEMs raise ``ConnectionError`` exactly as
        an unreachable network endpoint would.
        """
        return [
            SEMEndpoint(
                name=f"sem-{j}",
                x=self.key_shares.shares[j].x,
                share_pk=self.key_shares.share_pks[j],
                transport=self.sems[j].sign_blinded_batch,
            )
            for j in range(self.w)
        ]

    def crash(self, index: int) -> None:
        """Inject a crash failure into SEM ``index``."""
        self.sems[index].fail_mode = "crash"

    def corrupt(self, index: int) -> None:
        """Inject a byzantine failure (wrong shares) into SEM ``index``."""
        self.sems[index].fail_mode = "byzantine"

    def heal(self, index: int) -> None:
        self.sems[index].fail_mode = None


class MultiSEMClient(FailoverMultiSEMClient):
    """Owner-side façade over a :class:`SEMCluster`.

    Exposes the same ``sign_blinded_batch`` interface as a single
    :class:`~repro.core.sem.SecurityMediator`, so a
    :class:`~repro.core.owner.DataOwner` works against either transparently
    (the final signatures are identical either way — Section V's point that
    Challenge/Response/Verify are unchanged).  Signing runs one
    :class:`~repro.service.failover.SigningRound` per batch under the
    default failover policy.

    Args:
        cluster: the SEM cluster to talk to.
        batch: verify collected shares with Eq. 14 (t + 1 pairings for the
            whole batch) instead of Eq. 10 per share (2·n·t pairings).
    """

    def __init__(self, cluster: SEMCluster, batch: bool = True, rng=None):
        super().__init__(cluster.group, cluster.endpoints(), cluster.t,
                         rng=rng, batch_verify=batch)
