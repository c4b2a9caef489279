"""The type-A ``hash_multi_exp`` (one cofactor clearing per aggregate)
against the default body (``hash_to_g1`` per id, then ``multi_exp``).

Both must give the same point bit for bit and the same op-count tallies,
serial and through the worker pool, and Eq. 6 must still reject a real
proof encoding with one α byte flipped.
"""

import random

import pytest

from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.parallel import WorkerPool
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.core.serial import decode_response, encode_response
from repro.core.verifier import PublicVerifier
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter, PairingGroup

_GROUPS = {name: TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])
           for name in ("toy-64", "test-80")}


def _edge_exponents(rng, order, n, edges):
    """n random exponents with the edge values planted at the front."""
    values = [rng.randrange(order) for _ in range(n)]
    for i, edge in enumerate(edges[:n]):
        values[i] = edge
    rng.shuffle(values)
    return values


def _case(group, seed, c, k):
    rng = random.Random(seed)
    r = group.order
    ids = [b"case-%d|block-%d" % (seed, i) for i in range(c)]
    betas = _edge_exponents(rng, r, c, [0, r - 1, -rng.randrange(1, r), r + 5])
    elements = [group.hash_to_g1(b"case-%d|u-%d" % (seed, l)) for l in range(k)]
    alphas = _edge_exponents(rng, r, k, [0, -1])
    return ids, betas, elements, alphas


def _run(method, group, *args):
    counter = OperationCounter()
    group.attach_counter(counter)
    try:
        point = method(group, *args).point
    finally:
        group.detach_counter()
    return point, counter.snapshot()


def _assert_same_as_default(group, ids, betas, elements, alphas):
    deferred = _run(TypeAPairingGroup.hash_multi_exp, group, ids, betas, elements, alphas)
    default = _run(PairingGroup.hash_multi_exp, group, ids, betas, elements, alphas)
    assert deferred == default
    assert deferred[1]["hash_to_g1"] == len(ids)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("c", [1, 8, 40])
@pytest.mark.parametrize("name", sorted(_GROUPS))
def test_matches_default_body(name, c, seed):
    group = _GROUPS[name]
    k = (0, 1, 4, 8)[seed % 4]
    _assert_same_as_default(group, *_case(group, seed, c, k))


def test_all_zero_exponents_give_identity():
    group = _GROUPS["toy-64"]
    ids, _, elements, _ = _case(group, 99, 8, 2)
    zero = [0] * 8, [0, 0]
    _assert_same_as_default(group, ids, zero[0], elements, zero[1])
    assert group.hash_multi_exp(ids, zero[0], elements, zero[1]).is_identity()


def test_elements_only():
    group = _GROUPS["test-80"]
    _, _, elements, alphas = _case(group, 7, 1, 4)
    _assert_same_as_default(group, [], [], elements, alphas)


@pytest.mark.slow
def test_matches_default_body_at_paper_160(paper_group):
    _assert_same_as_default(paper_group, *_case(paper_group, 3, 8, 4))


@pytest.mark.parametrize("make_args", [
    lambda g: ([b"a"], [1, 2], [], []),          # ids / exponents mismatch
    lambda g: ([b"a"], [1], [g.g1()], []),       # elements / exponents mismatch
    lambda g: ([], [], [], []),                  # no terms
    lambda g: ([b"a"], [1], [g.g2()], [1]),      # element outside G1
])
def test_rejects_bad_arguments(make_args):
    group = _GROUPS["toy-64"]
    for method in (TypeAPairingGroup.hash_multi_exp, PairingGroup.hash_multi_exp):
        with pytest.raises(ValueError):
            method(group, *make_args(group))


def test_pooled_matches_default_body():
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    params = setup(group, 4)
    ids, betas, _, _ = _case(group, 11, 40, 0)
    reference = _run(PairingGroup.hash_multi_exp, group, ids, betas)
    counter = OperationCounter()
    group.attach_counter(counter)
    try:
        with WorkerPool(params, 2) as pool:
            point = pool.hash_msm(ids, betas).point
    finally:
        group.detach_counter()
    assert (point, counter.snapshot()) == reference


@pytest.fixture(scope="module")
def audited():
    group = _GROUPS["toy-64"]
    rng = random.Random(21)
    params = setup(group, 4)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    cloud = CloudServer(params, org_pk=sem.pk, rng=rng)
    signed = owner.sign_file(bytes(range(256)) * 3, b"file", sem)
    cloud.store(signed)
    verifier = PublicVerifier(params, sem.pk, rng=rng)
    challenge = verifier.generate_challenge(b"file", len(signed.blocks), sample_size=12)
    return params, verifier, challenge, cloud.generate_proof(b"file", challenge)


def test_challenge_aggregate_pooled_equals_serial(audited):
    params, verifier, challenge, response = audited
    serial = verifier._challenge_aggregate(challenge, response)
    with WorkerPool(params, 2) as pool:
        pooled = PublicVerifier(params, verifier.org_pk, pool=pool)._challenge_aggregate(
            challenge, response)
    reference = PairingGroup.hash_multi_exp(
        params.group, list(challenge.block_ids), list(challenge.betas),
        list(params.u), list(response.alphas))
    assert serial == pooled == reference


@pytest.mark.parametrize("alpha", range(4))
def test_flipped_alpha_byte_in_real_encoding_is_rejected(audited, alpha):
    params, verifier, challenge, response = audited
    encoded = encode_response(response, params)
    assert verifier.verify(challenge, decode_response(encoded, params))
    width = (params.order.bit_length() + 7) // 8
    data = bytearray(encoded)
    # α_l are the trailing k fixed-width scalars; flip a low byte of one.
    data[len(data) - (params.k - alpha) * width + width - 1] ^= 0x01
    tampered = decode_response(bytes(data), params)
    assert tampered.alphas[alpha] != response.alphas[alpha]
    assert not verifier.verify(challenge, tampered)
