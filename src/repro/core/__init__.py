"""SEM-PDP: the paper's scheme.

The seven algorithms of Section IV map onto this package as follows:

=============  =====================================================
Algorithm      Implementation
=============  =====================================================
Setup          :func:`repro.core.params.setup` (+ SEM keygen in
               :class:`repro.core.sem.SecurityMediator`)
Blind          :meth:`repro.core.owner.DataOwner.blind_block`
Sign           :meth:`repro.core.sem.SecurityMediator.sign_blinded`
Unblind        :meth:`repro.core.owner.DataOwner.unblind`
Challenge      :meth:`repro.core.verifier.PublicVerifier.generate_challenge`
Response       :meth:`repro.core.cloud.CloudServer.generate_proof`
Verify         :meth:`repro.core.verifier.PublicVerifier.verify`
=============  =====================================================

Section V's multi-SEM variants (Setup′..Verify′) live in
:mod:`repro.core.multi_sem`.  :mod:`repro.core.protocol` offers a one-stop
facade (:class:`~repro.core.protocol.SemPdpSystem`) tying the actors
together, and :mod:`repro.core.group_mgmt` implements the dynamic-group
machinery (member join / instant revocation) of Section IV-C.
"""

from repro.core.params import SystemParams, setup
from repro.core.blocks import Block, encode_data, decode_data, aggregate_block
from repro.core.challenge import Challenge, ProofResponse
from repro.core.owner import DataOwner, SignedFile
from repro.core.sem import SecurityMediator, RevokedMemberError, UnknownMemberError
from repro.core.multi_sem import SEMCluster, InsufficientSharesError
from repro.service.failover import FailoverMultiSEMClient
from repro.core.cloud import CloudServer, StoredFile
from repro.core.verifier import PublicVerifier, detection_probability, blocks_needed_for_detection
from repro.core.group_mgmt import GroupManager, MemberCredential
from repro.core.protocol import SemPdpSystem
from repro.core.shared_file import Contribution, SharedFileBuilder, build_shared_file
from repro.core.accounting import CostTracker

__all__ = [
    "SystemParams",
    "setup",
    "Block",
    "encode_data",
    "decode_data",
    "aggregate_block",
    "Challenge",
    "ProofResponse",
    "DataOwner",
    "SignedFile",
    "SecurityMediator",
    "RevokedMemberError",
    "UnknownMemberError",
    "SEMCluster",
    "FailoverMultiSEMClient",
    "InsufficientSharesError",
    "CloudServer",
    "StoredFile",
    "PublicVerifier",
    "detection_probability",
    "blocks_needed_for_detection",
    "GroupManager",
    "MemberCredential",
    "SemPdpSystem",
    "CostTracker",
    "Contribution",
    "SharedFileBuilder",
    "build_shared_file",
]
