"""The vectorized blind-sign pass behind the batching service.

One batch = one pass over every pending request's items:

1-2. **aggregate** all ``blocks``-kind items to G1 and **blind** them
   (Eq. 2) with the pipeline's :class:`~repro.core.owner.DataOwner`
   (:meth:`~repro.core.owner.DataOwner.blind_all`), through its
   fixed-base tables for u_1..u_k and g — the bases never change, so
   each aggregate and each blinding costs table lookups;
3. **sign** every blinded element of the batch in a *single*
   ``sign_blinded_batch`` transport call (one round trip to the SEM or the
   multi-SEM failover client instead of one per request);
4. **verify** all blind signatures at once with Eq. 7 — 2 pairings for the
   whole batch instead of 2 per signature, the paper's own "Our Scheme*"
   trick applied at the service layer (with per-item isolation when the
   batch check fails, so one bad signature cannot poison its batchmates);
5. **unblind** (Eq. 5) with the owner's
   :meth:`~repro.core.owner.DataOwner.unblind_all`, through its table for
   the key pk = g^y.  A service pass and an owner's own
   :meth:`~repro.core.owner.DataOwner.sign_blocks` pass do the same
   per-item work with the same tables.

The sequential path (:meth:`SigningPipeline.sign_sequential`) is the
baseline the service throughput benchmark compares against: per-request
transport calls, the paper's per-item Blind/Unblind with no tables,
per-signature Eq. 4 checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocks import aggregate_block
from repro.core.owner import DataOwner
from repro.core.params import SystemParams
from repro.crypto.blind_bls import (
    BlindingState,
    batch_unblind_verify,
    blind,
    unblind,
    verify_blinded,
)
from repro.obs import NULL_OBS
from repro.pairing.interface import GroupElement
from repro.service.api import SignRequest


class PipelineError(Exception):
    """The signing pass could not produce any valid signatures."""


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one request inside a batch."""

    request_id: int
    signatures: tuple[GroupElement, ...] | None
    ok: bool
    error: str | None = None


@dataclass
class PreparedBatch:
    """Stages 1–2 done: everything needed to sign, then finish.

    ``states[i]`` is the blinding state of ``blinded[i]`` — or ``None``
    for items that arrived pre-blinded and leave as blind signatures.
    """

    requests: list[SignRequest]
    blinded: list[GroupElement]
    states: list  # BlindingState | None per item


class SigningPipeline:
    """Vectorized aggregate → blind → sign → verify → unblind.

    Aggregating, blinding and unblinding are the steps of :attr:`owner`,
    a :class:`~repro.core.owner.DataOwner` for ``org_pk``, through its
    fixed-base tables; the pipeline adds the batching, the Eq. 7 check
    with per-item isolation, and pre-blinded items.

    Args:
        params: system parameters.
        sem: the signing transport — anything exposing
            ``sign_blinded_batch(blinded, credential)``: a
            :class:`~repro.core.sem.SecurityMediator`, a
            :class:`~repro.core.multi_sem.MultiSEMClient`, or a
            :class:`~repro.service.failover.FailoverMultiSEMClient`.
        org_pk: the organizational public key pk = g^y; Eq. 4/7 check
            against it and Eq. 5 unblinds with it.
        credential: the credential forwarded on transport calls; services
            enforce membership at admission and call a trusted SEM.
        rng: randomness source for blinding factors and Eq. 7 coefficients.
        org_pk_g1: kept for the benchmark harness (``perfbench``), which
            still passes the key under this name.  It is only compared
            with ``org_pk``, never used.

    Raises:
        ValueError: if ``org_pk_g1`` is given and is not ``org_pk``.
    """

    def __init__(
        self,
        params: SystemParams,
        sem,
        org_pk: GroupElement,
        credential=None,
        rng=None,
        obs=None,
        org_pk_g1: GroupElement | None = None,
    ):
        if org_pk_g1 is not None and org_pk_g1 != org_pk:
            raise ValueError("org_pk_g1 is not the key this pipeline unblinds with")
        self.obs = obs if obs is not None else NULL_OBS
        self.params = params
        self.group = params.group
        self.sem = sem
        self.org_pk = org_pk
        self.credential = credential
        self._rng = rng
        self.owner = DataOwner(params, org_pk, rng=rng)

    # -- the batched pass ---------------------------------------------------
    def prepare_batch(self, requests: list[SignRequest]) -> PreparedBatch:
        """Stages 1–2: aggregate (u-tables) and blind (g table)."""
        all_blocks = [b for r in requests for b in r.blocks]
        with self.obs.tracer.span(
            "batch.prepare", n_requests=len(requests), n_blocks=len(all_blocks)
        ):
            blindings = iter(self.owner.blind_all(all_blocks))
            blinded: list[GroupElement] = []
            states: list[BlindingState | None] = []  # None = already blinded
            for request in requests:
                if request.kind == "blocks":
                    for _ in request.blocks:
                        state = next(blindings)
                        states.append(state)
                        blinded.append(state.blinded)
                else:
                    for element in request.blinded:
                        states.append(None)
                        blinded.append(element)
        return PreparedBatch(requests=list(requests), blinded=blinded, states=states)

    def finish_batch(
        self, prepared: PreparedBatch, blind_signatures: list[GroupElement]
    ) -> list[PipelineResult]:
        """Stages 4–5: Eq. 7 batch verification, unblinding, regrouping."""
        if len(blind_signatures) != len(prepared.blinded):
            raise PipelineError(
                f"transport returned {len(blind_signatures)} signatures "
                f"for {len(prepared.blinded)} messages"
            )
        with self.obs.tracer.span("batch.finish", n_items=len(prepared.blinded)) as span:
            item_ok = self._verify_or_isolate(prepared.blinded, blind_signatures)
            span.set(n_invalid=item_ok.count(False))
            return self._regroup(prepared, blind_signatures, item_ok)

    def _regroup(self, prepared, blind_signatures, item_ok) -> list[PipelineResult]:
        spans = []
        cursor = 0
        for request in prepared.requests:
            n = request.n_items
            spans.append((request, cursor, cursor + n, all(item_ok[cursor : cursor + n])))
            cursor += n
        # Unblind every blinded item of every verified request in one batch.
        unblind = [i for _, start, end, ok in spans if ok for i in range(start, end)
                   if prepared.states[i] is not None]
        signatures = list(blind_signatures)
        unblinded = self.owner.unblind_all([prepared.states[i] for i in unblind],
                                           [blind_signatures[i] for i in unblind])
        for i, signature in zip(unblind, unblinded):
            signatures[i] = signature
        results: list[PipelineResult] = []
        for request, start, end, ok in spans:
            if not ok:
                results.append(
                    PipelineResult(
                        request_id=request.request_id,
                        signatures=None,
                        ok=False,
                        error="blind signature failed verification (Eq. 4/7)",
                    )
                )
            else:
                results.append(PipelineResult(
                    request_id=request.request_id,
                    signatures=tuple(signatures[start:end]), ok=True))
        return results

    def sign_batch(self, requests: list[SignRequest]) -> list[PipelineResult]:
        """Run one vectorized pass over every item of every request.

        Stage 3 — one ``sign_blinded_batch`` transport call for the whole
        batch — sits between :meth:`prepare_batch` and
        :meth:`finish_batch`; simulator nodes replace it with a message
        fan-out and call the two halves directly.
        """
        if not requests:
            return []
        prepared = self.prepare_batch(requests)
        with self.obs.tracer.span("blindsign.roundtrip", n_items=len(prepared.blinded)):
            blind_signatures = self.sem.sign_blinded_batch(prepared.blinded, self.credential)
        return self.finish_batch(prepared, blind_signatures)

    # -- the per-request baseline ------------------------------------------
    def sign_sequential(self, request: SignRequest) -> PipelineResult:
        """The naive path: per-item transport calls and Eq. 4 checks.

        No fixed-base tables, no batch verification, one
        ``sign_blinded_batch`` round trip per item — what a straight
        library port of the paper does per request, and the baseline the
        throughput benchmark measures the batch pass against.
        """
        signatures = []
        items: list[tuple[BlindingState | None, GroupElement]] = []
        if request.kind == "blocks":
            items = [(state, state.blinded) for state in (
                blind(self.group, aggregate_block(self.params, b), self._rng)
                for b in request.blocks)]
        else:
            items = [(None, element) for element in request.blinded]
        for state, element in items:
            (blind_signature,) = self.sem.sign_blinded_batch([element], self.credential)
            if not verify_blinded(self.group, element, blind_signature, self.org_pk):
                return PipelineResult(
                    request_id=request.request_id,
                    signatures=None,
                    ok=False,
                    error="blind signature failed verification (Eq. 4)",
                )
            if state is None:
                signatures.append(blind_signature)
            else:
                signatures.append(
                    unblind(self.group, state, blind_signature, self.org_pk, check=False))
        return PipelineResult(
            request_id=request.request_id, signatures=tuple(signatures), ok=True
        )

    # -- internals ----------------------------------------------------------
    def _verify_or_isolate(self, blinded, blind_signatures) -> list[bool]:
        if batch_unblind_verify(self.group, blinded, blind_signatures, self.org_pk, self._rng):
            return [True] * len(blinded)
        return [
            verify_blinded(self.group, m, s, self.org_pk)
            for m, s in zip(blinded, blind_signatures)
        ]
