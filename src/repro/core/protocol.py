"""One-stop facade wiring all actors together.

:class:`SemPdpSystem` is the public API most applications want: create a
system (single- or multi-SEM), enroll members, have them sign-and-upload
files, and audit.  The lower-level actor classes remain available for
anything the facade does not cover.

Example:
    >>> from repro.pairing import toy_group
    >>> from repro.core import SemPdpSystem
    >>> system = SemPdpSystem.create(toy_group(), k=4)
    >>> alice = system.enroll("alice")
    >>> receipt = system.upload(alice, b"hello shared cloud", b"file-1")
    >>> system.audit(b"file-1")
    True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cloud import CloudServer
from repro.core.group_mgmt import GroupManager
from repro.core.multi_sem import SEMCluster
from repro.core.owner import DataOwner, SignedFile
from repro.core.params import SystemParams, setup
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.obs import NULL_OBS
from repro.pairing.interface import PairingGroup
from repro.service.failover import FailoverMultiSEMClient


@dataclass(frozen=True)
class UploadReceipt:
    """What an owner gets back after a successful sign-and-upload."""

    file_id: bytes
    n_blocks: int
    encrypted: bool
    nonce: bytes | None


class SemPdpSystem:
    """An organization's complete SEM-PDP deployment."""

    def __init__(
        self,
        params: SystemParams,
        manager: GroupManager,
        cloud: CloudServer,
        verifier: PublicVerifier,
        sem: SecurityMediator | None = None,
        cluster: SEMCluster | None = None,
        rng=None,
        obs=None,
    ):
        if (sem is None) == (cluster is None):
            raise ValueError("provide exactly one of sem / cluster")
        self.params = params
        self.manager = manager
        self.cloud = cloud
        self.verifier = verifier
        self.sem = sem
        self.cluster = cluster
        # One signer for every upload, so a cluster client's health
        # scoreboard (quarantine of byzantine SEMs) spans uploads.
        self._signer = sem if cluster is None else FailoverMultiSEMClient.from_cluster(
            cluster, rng=rng)
        self._rng = rng
        self.obs = obs if obs is not None else NULL_OBS
        self.obs.observe_group(params.group)
        self.pool = None

    def close(self) -> None:
        """Release the shared worker pool, if any (idempotent)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "SemPdpSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- construction -----------------------------------------------------
    @classmethod
    def create(
        cls,
        group: PairingGroup,
        k: int = 8,
        threshold: int | None = None,
        verify_on_upload: bool = False,
        rng=None,
        obs=None,
        workers: int = 1,
    ) -> "SemPdpSystem":
        """Stand up a full deployment.

        Args:
            group: the pairing group (``default_group()`` for the paper's
                parameters, ``toy_group()`` for fast experiments).
            k: elements aggregated per block.
            threshold: when given, deploy a multi-SEM cluster with this t
                (and w = 2t − 1 SEMs); a single SEM otherwise.
            verify_on_upload: make the cloud check organization signatures
                before accepting uploads.
            obs: an :class:`~repro.obs.Observability` bundle; when given,
                every protocol phase emits a traced span with its Exp/Pair
                tallies and the system's group feeds the shared counter.
            workers: when > 1, share one
                :class:`~repro.core.parallel.WorkerPool` of this many
                processes across the cloud, verifier, and enrolled owners;
                proofs stay bit-identical and op tallies exactly equal to a
                single-process run.  Call :meth:`close` (or use the system
                as a context manager) to release the processes.
        """
        obs = obs if obs is not None else NULL_OBS
        obs.observe_group(group)
        with obs.tracer.span("keygen", k=k, threshold=threshold or 0):
            params = setup(group, k)
            manager = GroupManager(rng=rng)
            if threshold is None:
                sem = SecurityMediator(group, rng=rng)
                cluster = None
                org_pk = sem.pk
                manager.register_sem(sem)
            else:
                cluster = SEMCluster(group, t=threshold, rng=rng)
                sem = None
                org_pk = cluster.master_pk
                for share_sem in cluster.sems:
                    manager.register_sem(share_sem)
            pool = None
            if workers > 1:
                from repro.core.parallel import WorkerPool

                pool = WorkerPool(params, workers, tracer=obs.tracer)
            cloud = CloudServer(
                params, org_pk=org_pk, verify_on_upload=verify_on_upload,
                rng=rng, pool=pool,
            )
            verifier = PublicVerifier(params, org_pk, rng=rng, pool=pool)
        system = cls(
            params=params,
            manager=manager,
            cloud=cloud,
            verifier=verifier,
            sem=sem,
            cluster=cluster,
            rng=rng,
            obs=obs,
        )
        system.pool = pool
        return system

    @property
    def org_pk(self):
        return self.sem.pk if self.sem is not None else self.cluster.master_pk

    # -- membership -----------------------------------------------------------
    def enroll(self, member_id: str) -> DataOwner:
        """Enroll a member and hand back a ready-to-use :class:`DataOwner`.

        The owner shares the system's worker pool, so uploads parallelize
        whenever the system was created with ``workers > 1``.
        """
        credential = self.manager.join(member_id)
        return DataOwner(
            self.params,
            self.org_pk,
            credential=credential,
            rng=self._rng,
            pool=self.pool,
        )

    def revoke(self, member_id: str) -> None:
        """Instant revocation; stored signatures remain valid."""
        self.manager.revoke(member_id)

    # -- data path ---------------------------------------------------------------
    def upload(
        self,
        owner: DataOwner,
        data: bytes,
        file_id: bytes,
        batch: bool = True,
        encrypt_key: bytes | None = None,
    ) -> UploadReceipt:
        """Sign ``data`` via the SEM(s) and store it in the cloud."""
        tracer = self.obs.tracer
        with tracer.span("upload", bytes=len(data)):
            with tracer.span("sign", optimized=batch) as span:
                signed: SignedFile = owner.sign_file(
                    data,
                    file_id,
                    self._signer,
                    batch=batch,
                    encrypt_key=encrypt_key,
                )
                span.set(
                    n_blocks=len(signed.blocks),
                    bytes_to_sem=self.params.group.g1_element_bytes() * len(signed.blocks),
                    bytes_from_sem=self.params.group.g1_element_bytes() * len(signed.blocks),
                )
            with tracer.span("store", n_blocks=len(signed.blocks)):
                self.cloud.store(signed)
        return UploadReceipt(
            file_id=file_id,
            n_blocks=len(signed.blocks),
            encrypted=signed.encrypted,
            nonce=signed.nonce,
        )

    def audit(
        self, file_id: bytes, sample_size: int | None = None, beta_bits: int | None = None
    ) -> bool:
        """Run one Challenge/Response/Verify round as a public verifier."""
        tracer = self.obs.tracer
        with tracer.span("audit"):
            stored = self.cloud.retrieve(file_id)
            with tracer.span("challenge", n_blocks=stored.n_blocks) as span:
                challenge = self.verifier.generate_challenge(
                    file_id, stored.n_blocks, sample_size=sample_size, beta_bits=beta_bits
                )
                span.set(challenged=len(challenge))
            with tracer.span("proofgen", challenged=len(challenge)):
                response = self.cloud.generate_proof(file_id, challenge)
            with tracer.span(
                "proofverify", challenged=len(challenge), k=self.params.k
            ) as span:
                ok = self.verifier.verify(challenge, response)
                span.set(ok=ok)
        return ok
