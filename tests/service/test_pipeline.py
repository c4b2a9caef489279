"""The vectorized signing pass: correctness, isolation, parity of paths."""

import pytest

from repro.core.blocks import aggregate_block
from repro.crypto.blind_bls import blind, verify_blinded
from repro.service.api import SignRequest, next_request_id
from repro.service.pipeline import PipelineError, SigningPipeline


@pytest.fixture()
def pipeline(params_k4, sem, rng):
    return SigningPipeline(params_k4, sem, sem.pk, rng=rng)


def assert_final_signatures(params, org_pk, request, signatures):
    """Every σ_i must satisfy e(σ_i, g) == e(H(id)·∏u^m, pk) (Eq. 6)."""
    group = params.group
    for block, signature in zip(request.blocks, signatures):
        lhs = group.pair(signature, group.g1())
        rhs = group.pair(aggregate_block(params, block), org_pk)
        assert lhs == rhs


class TestBatchPass:
    def test_blocks_requests_get_final_signatures(self, params_k4, sem, pipeline, make_request):
        requests = [make_request(bytes([i]), n_blocks=2) for i in range(1, 4)]
        results = pipeline.sign_batch(requests)
        assert all(r.ok for r in results)
        for request, result in zip(requests, results):
            assert result.request_id == request.request_id
            assert len(result.signatures) == request.n_items
            assert_final_signatures(params_k4, sem.pk, request, result.signatures)

    def test_one_transport_round_trip_per_batch(self, sem, pipeline, make_request):
        before = len(sem.transcript)
        pipeline.sign_batch([make_request(bytes([i]), n_blocks=3) for i in range(4)])
        # 12 signatures but every blinded element in one transcript pass.
        assert len(sem.transcript) == before + 12

    def test_blinded_requests_return_blind_signatures(
        self, group, params_k4, sem, pipeline, make_request, rng
    ):
        source = make_request(b"p", n_blocks=2)
        states = [
            blind(group, aggregate_block(params_k4, b), rng) for b in source.blocks
        ]
        request = SignRequest(
            request_id=next_request_id(),
            owner="alice",
            blinded=tuple(s.blinded for s in states),
        )
        (result,) = pipeline.sign_batch([request])
        assert result.ok
        for state, blind_signature in zip(states, result.signatures):
            assert verify_blinded(group, state.blinded, blind_signature, sem.pk)

    def test_mixed_batch_unblinds_only_block_items(
        self, group, params_k4, sem, pipeline, make_request, rng
    ):
        """Block and pre-blinded requests share one pass: the block items
        come back unblinded, the pre-blinded ones as blind signatures."""
        first, source, last = (make_request(bytes([i]), n_blocks=2) for i in (5, 6, 7))
        states = [blind(group, aggregate_block(params_k4, b), rng) for b in source.blocks]
        relay = SignRequest(
            request_id=next_request_id(),
            owner="alice",
            blinded=tuple(s.blinded for s in states),
        )
        results = pipeline.sign_batch([first, relay, last])
        assert all(r.ok for r in results)
        assert_final_signatures(params_k4, sem.pk, first, results[0].signatures)
        assert_final_signatures(params_k4, sem.pk, last, results[2].signatures)
        for state, blind_signature in zip(states, results[1].signatures):
            assert verify_blinded(group, state.blinded, blind_signature, sem.pk)

    def test_empty_batch(self, pipeline):
        assert pipeline.sign_batch([]) == []

    def test_no_fixed_base_matches(self, params_k4, sem, pipeline, make_request):
        """The table-backed batch pass, the per-item sequential path (the
        paper's Blind/Unblind, no tables) and the plain σ = M^y agree."""
        request = make_request(b"q", n_blocks=2)
        (batched,) = pipeline.sign_batch([request])
        sequential = pipeline.sign_sequential(request)
        assert batched.ok and sequential.ok
        assert batched.signatures == sequential.signatures == tuple(
            aggregate_block(params_k4, block) ** sem._sk for block in request.blocks)


class TestFaultIsolation:
    def test_bad_signature_fails_only_its_request(self, params_k4, sem, rng, make_request):
        class CorruptingTransport:
            """Corrupt exactly the first signature of the batch."""

            def __init__(self, sem, group):
                self.sem = sem
                self.group = group

            def sign_blinded_batch(self, blinded, credential=None):
                signatures = self.sem.sign_blinded_batch(blinded, credential)
                signatures[0] = signatures[0] * self.group.g1()
                return signatures

        pipeline = SigningPipeline(
            params_k4,
            CorruptingTransport(sem, params_k4.group),
            sem.pk,
            rng=rng,
        )
        victim = make_request(b"v", n_blocks=2)
        bystander = make_request(b"w", n_blocks=2)
        bad, good = pipeline.sign_batch([victim, bystander])
        assert not bad.ok and "verification" in bad.error
        assert good.ok
        assert_final_signatures(params_k4, sem.pk, bystander, good.signatures)

    @pytest.mark.parametrize("x_byte", range(8))
    def test_flipped_encoding_fails_only_its_request(
        self, params_k4, sem, pipeline, make_request, x_byte
    ):
        """A blind signature re-decoded from its real encoding with one
        x-coordinate byte flipped: either the decode refuses it, or the
        pass fails that request alone."""
        requests = [make_request(bytes([i]), n_blocks=2) for i in (1, 2, 3)]
        prepared = pipeline.prepare_batch(requests)
        signatures = sem.sign_blinded_batch(prepared.blinded)
        encoding = bytearray(signatures[2].to_bytes())
        encoding[x_byte] ^= 0x01
        try:
            signatures[2] = params_k4.group.deserialize_g1(bytes(encoding))
        except ValueError:
            return  # no curve point has this x: the decode refuses it
        first, victim, last = pipeline.finish_batch(prepared, signatures)
        assert not victim.ok and "verification" in victim.error
        for request, result in ((requests[0], first), (requests[2], last)):
            assert result.ok
            assert_final_signatures(params_k4, sem.pk, request, result.signatures)

    def test_byzantine_sem_fails_whole_batch_loudly(self, params_k4, sem, pipeline, make_request):
        sem.fail_mode = "byzantine"
        results = pipeline.sign_batch([make_request(b"z", n_blocks=2)])
        assert not results[0].ok

    def test_length_mismatch_is_a_pipeline_error(self, pipeline, make_request):
        prepared = pipeline.prepare_batch([make_request(b"m", n_blocks=2)])
        with pytest.raises(PipelineError, match="1 signatures"):
            pipeline.finish_batch(prepared, prepared.blinded[:1])


class TestSequentialBaseline:
    def test_matches_batch_semantics(self, params_k4, sem, pipeline, make_request):
        request = make_request(b"s", n_blocks=3)
        result = pipeline.sign_sequential(request)
        assert result.ok
        assert_final_signatures(params_k4, sem.pk, request, result.signatures)

    def test_detects_byzantine_sem(self, sem, pipeline, make_request):
        sem.fail_mode = "byzantine"
        result = pipeline.sign_sequential(make_request(b"t", n_blocks=1))
        assert not result.ok and "Eq. 4" in result.error


class TestBenchmarkKeyword:
    """``org_pk_g1`` survives only as a checked alias of ``org_pk``."""

    def test_mismatched_org_pk_g1_raises_at_construction(self, params_k4, sem, rng):
        from repro.core.sem import SecurityMediator

        other = SecurityMediator(params_k4.group, rng=rng, require_membership=False)
        with pytest.raises(ValueError):
            SigningPipeline(params_k4, sem, sem.pk, org_pk_g1=other.pk, rng=rng)

    def test_matching_org_pk_g1_is_accepted(self, params_k4, sem, rng, make_request):
        pipeline = SigningPipeline(params_k4, sem, sem.pk, org_pk_g1=sem.pk_g1, rng=rng)
        request = make_request(b"k", n_blocks=2)
        (result,) = pipeline.sign_batch([request])
        assert result.ok
        assert_final_signatures(params_k4, sem.pk, request, result.signatures)
