"""Admission-time contract checks on SignRequest/SignResponse."""

from dataclasses import replace

import pytest

from repro.crypto.blind_bls import blind
from repro.core.blocks import aggregate_block
from repro.service.api import (
    RequestValidationError,
    ResponseStatus,
    SignRequest,
    SignResponse,
    next_request_id,
)


class TestSignRequestValidation:
    def test_valid_blocks_request(self, params_k4, make_request):
        request = make_request(b"a")
        request.validate(params_k4)  # does not raise
        assert request.kind == "blocks"
        assert request.n_items == 2

    def test_valid_blinded_request(self, group, params_k4, make_request, rng):
        source = make_request(b"b")
        blinded = tuple(
            blind(group, aggregate_block(params_k4, b), rng).blinded
            for b in source.blocks
        )
        request = SignRequest(
            request_id=next_request_id(), owner="alice", blinded=blinded
        )
        request.validate(params_k4)
        assert request.kind == "blinded"

    def test_neither_blocks_nor_blinded(self, params_k4):
        request = SignRequest(request_id=next_request_id(), owner="alice")
        with pytest.raises(RequestValidationError):
            request.validate(params_k4)

    def test_both_blocks_and_blinded(self, group, params_k4, make_request, rng):
        source = make_request(b"c")
        blinded = (blind(group, aggregate_block(params_k4, source.blocks[0]), rng).blinded,)
        request = replace(source, blinded=blinded)
        with pytest.raises(RequestValidationError):
            request.validate(params_k4)

    def test_empty_owner(self, params_k4, make_request):
        request = replace(make_request(b"d"), owner="")
        with pytest.raises(RequestValidationError, match="owner"):
            request.validate(params_k4)

    def test_wrong_block_width(self, params_k4, make_request):
        source = make_request(b"e")
        short = replace(source.blocks[0], elements=source.blocks[0].elements[:-1])
        request = replace(source, blocks=(short,))
        with pytest.raises(RequestValidationError, match="elements"):
            request.validate(params_k4)

    def test_element_outside_zp(self, params_k4, make_request):
        source = make_request(b"f")
        bad = replace(source.blocks[0], elements=(params_k4.order,) * params_k4.k)
        request = replace(source, blocks=(bad,))
        with pytest.raises(RequestValidationError, match="Z_p"):
            request.validate(params_k4)

    def test_not_a_block(self, params_k4):
        request = SignRequest(
            request_id=next_request_id(), owner="alice", blocks=(object(),)
        )
        with pytest.raises(RequestValidationError, match="not a Block"):
            request.validate(params_k4)

    def test_blinded_must_live_in_g1(self, group, params_k4):
        request = SignRequest(
            request_id=next_request_id(), owner="alice",
            blinded=(group.pair(group.g1(), group.g1()),)
        )
        with pytest.raises(RequestValidationError, match="G1"):
            request.validate(params_k4)


class TestSignResponse:
    def test_ok_property(self):
        ok = SignResponse(request_id=1, status=ResponseStatus.OK)
        bad = SignResponse(request_id=2, status=ResponseStatus.FAILED)
        assert ok.ok and not bad.ok

    def test_request_ids_are_unique(self):
        assert next_request_id() != next_request_id()
