"""SEM-PDP — security-mediated provable data possession for shared cloud data.

A complete, from-scratch reproduction of Wang, Chow, Li, Li, *Storing
Shared Data on the Cloud via Security-Mediator* (ICDCS 2013), including the
pairing-based cryptographic substrate, the blind-BLS signing protocol, the
single- and multi-SEM deployments, the baseline schemes it is evaluated
against (SW08, WCWRL11, Oruta, Knox), a discrete-event network simulation
of the four protocol entities, and the cost models that regenerate every
table and figure of the paper's evaluation.

Quickstart::

    from repro import SemPdpSystem, default_group

    system = SemPdpSystem.create(default_group(), k=100)
    alice = system.enroll("alice")
    system.upload(alice, b"...shared data...", b"records-2026")
    assert system.audit(b"records-2026", sample_size=460)

See examples/ for runnable scenarios and DESIGN.md for the architecture.
"""

from repro.core import (
    Block,
    Challenge,
    CloudServer,
    CostTracker,
    DataOwner,
    FailoverMultiSEMClient,
    GroupManager,
    ProofResponse,
    PublicVerifier,
    SEMCluster,
    SecurityMediator,
    SemPdpSystem,
    SignedFile,
    SystemParams,
    aggregate_block,
    decode_data,
    detection_probability,
    encode_data,
    setup,
)
from repro.pairing import default_group, toy_group

__version__ = "1.0.0"

__all__ = [
    "SemPdpSystem",
    "SystemParams",
    "setup",
    "default_group",
    "toy_group",
    "DataOwner",
    "SecurityMediator",
    "SEMCluster",
    "FailoverMultiSEMClient",
    "CloudServer",
    "PublicVerifier",
    "GroupManager",
    "Block",
    "Challenge",
    "ProofResponse",
    "SignedFile",
    "CostTracker",
    "aggregate_block",
    "encode_data",
    "decode_data",
    "detection_probability",
    "__version__",
]
