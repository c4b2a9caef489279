"""The type-A ``hashed_pairing_check`` (Eq. 6 and BLS with no cofactor
clearing, against the cached pk_h = [h mod r]·pk) against the default
body it replaced, kept here as the oracle: χ formed in full with
``hash_to_g1`` per id and one ``multi_exp``, then ``pairing_check``.

Both must give the same verdict and the same op-count tallies, serial
and through the worker pool: honest checks accept, and a σ·g, a tampered
exponent or id, or a wrong key reject.  Eq. 6 must still reject a real
proof encoding with one α byte flipped.
"""

import pickle
import random

import pytest

from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.parallel import WorkerPool
from repro.core.params import setup
from repro.core.sem import SecurityMediator
from repro.core.serial import decode_response, encode_response
from repro.core.verifier import PublicVerifier
from repro.crypto.bls import bls_keygen, bls_sign, bls_verify
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing import type_a
from repro.pairing.interface import GroupElement, OperationCounter

_GROUPS = {name: TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])
           for name in ("toy-64", "test-80")}


def _oracle_hash_multi_exp(group, ids, id_exponents, elements=(), exponents=()):
    """χ = ∏ H(ids[i]) ** id_exponents[i] · ∏ elements[l] ** exponents[l]:
    each id hashed with ``hash_to_g1``, then one ``multi_exp`` over all
    terms, tallying what those two tally."""
    group._check_hash_terms(ids, id_exponents, elements, exponents)
    hashed = [group.hash_to_g1(data) for data in ids]
    return group.multi_exp(hashed + list(elements), list(id_exponents) + list(exponents))


def _oracle_hashed_pairing_check(group, sigma, pk, ids, id_exponents, elements=(),
                                 exponents=()):
    """e(σ, g) == e(χ, pk) with χ from :func:`_oracle_hash_multi_exp`;
    ``id_exponents=None`` adds each H(id) once, tallying no Exp for it."""
    if id_exponents is not None:
        chi = _oracle_hash_multi_exp(group, ids, id_exponents, elements, exponents)
    else:
        group._check_hash_terms(ids, [1] * len(ids), elements, exponents)
        # Plain hashes join uncounted, like multi_exp's internal merges.
        point = None
        for data in ids:
            point = group._add(point, group.hash_to_g1(data).point)
        if elements:
            point = group._add(point, group.multi_exp(list(elements), list(exponents)).point)
        chi = GroupElement(group, point)
    return group.pairing_check([(sigma, group.g1()), (chi.inverse(), pk)])


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


def _run(method, group, *args, **kwargs):
    counter = OperationCounter()
    group.attach_counter(counter)
    try:
        verdict = method(group, *args, **kwargs)
    finally:
        group.detach_counter()
    return verdict, counter.snapshot()


def _check_both(group, *args, **kwargs):
    """The type-A verdict and tallies, asserted equal to the oracle's."""
    fast = _run(TypeAPairingGroup.hashed_pairing_check, group, *args, **kwargs)
    oracle = _run(_oracle_hashed_pairing_check, group, *args)
    assert fast == oracle
    return fast[0]


def _assert_same_as_default(group, ids, betas, elements, alphas, seed=0):
    """Honest σ = χ^sk accepts; σ·g, each tampered input and a wrong key
    reject — with the oracle's verdict and tallies every time."""
    rng = random.Random(seed)
    sk = group.random_nonzero_scalar(rng)
    pk = group.g1() ** sk
    chi = _oracle_hash_multi_exp(group, ids, betas, elements, alphas)
    sigma = chi ** sk
    assert _check_both(group, sigma, pk, ids, betas, elements, alphas)
    rejects = [(sigma * group.g1(), pk, ids, betas, elements, alphas)]
    if not chi.is_identity():
        rejects.append((sigma, pk ** 2, ids, betas, elements, alphas))
    if ids:
        rejects.append((sigma, pk, ids, [betas[0] + 1] + betas[1:], elements, alphas))
        live = [i for i, beta in enumerate(betas) if beta % group.order]
        if live:
            renamed = list(ids)
            renamed[live[0]] += b"!"
            rejects.append((sigma, pk, renamed, betas, elements, alphas))
    if elements:
        rejects.append((sigma, pk, ids, betas, elements, [alphas[0] + 1] + alphas[1:]))
    for args in rejects:
        assert not _check_both(group, *args)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("c", [1, 8, 40])
@pytest.mark.parametrize("name", sorted(_GROUPS))
def test_matches_default_body(name, c, seed):
    group = _GROUPS[name]
    k = (0, 1, 4, 8)[seed % 4]
    _assert_same_as_default(group, *_case(group, seed, c, k), seed=seed)


def test_all_zero_exponents_give_identity():
    group = _GROUPS["toy-64"]
    ids, _, elements, _ = _case(group, 99, 8, 2)
    zero = [0] * 8, [0, 0]
    assert _oracle_hash_multi_exp(group, ids, zero[0], elements, zero[1]).is_identity()
    pk = group.g1() ** 5
    assert _check_both(group, group.g1_identity(), pk, ids, zero[0], elements, zero[1])
    assert not _check_both(group, group.g1(), pk, ids, zero[0], elements, zero[1])


def test_elements_only():
    group = _GROUPS["test-80"]
    _, _, elements, alphas = _case(group, 7, 1, 4)
    _assert_same_as_default(group, [], [], elements, alphas, seed=7)


def test_repeated_elements_merge_into_one_term():
    """verify_batch passes each u_l once per file: the merged MSM gives
    the oracle's verdict and the per-term tallies of the unmerged form."""
    group = _GROUPS["toy-64"]
    ids, betas, elements, alphas = _case(group, 5, 8, 4)
    rng = random.Random(5)
    more = [rng.randrange(group.order) for _ in elements]
    _assert_same_as_default(group, ids, betas, elements * 2, alphas + more, seed=5)


def test_chi_raw_at_order_two_point_is_identity(monkeypatch):
    """χ_raw = (0, 0): [h](0, 0) = O, so the check is e(σ, g) == 1, and
    the degenerate Miller evaluation at y = 0 is never reached."""
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    raw = type_a.TypeAPairingGroup._hash_to_curve
    monkeypatch.setattr(group, "_hash_to_curve",
                        lambda data: (0, 0) if data == b"zero" else raw(group, data))
    assert group.raw_hash_msm([b"zero"], [3]) == (0, 0)
    pk = group.g1() ** 7
    for exps in ([1], [3], None):
        assert group.hashed_pairing_check(group.g1_identity(), pk, [b"zero"], exps)
        assert not group.hashed_pairing_check(group.g1(), pk, [b"zero"], exps)


@pytest.mark.slow
def test_matches_default_body_at_paper_160(paper_group):
    _assert_same_as_default(paper_group, *_case(paper_group, 3, 8, 4), seed=3)


@pytest.mark.parametrize("make_args", [
    lambda g: ([b"a"], [1, 2], [], []),          # ids / exponents mismatch
    lambda g: ([b"a"], [1], [g.g1()], []),       # elements / exponents mismatch
    lambda g: ([], [], [], []),                  # no terms
])
def test_rejects_bad_arguments(make_args):
    group = _GROUPS["toy-64"]
    for method in (TypeAPairingGroup.hashed_pairing_check, _oracle_hashed_pairing_check):
        with pytest.raises(ValueError):
            method(group, group.g1(), group.g1(), *make_args(group))
    with pytest.raises(ValueError):
        _oracle_hash_multi_exp(group, *make_args(group))


def test_pooled_matches_default_body():
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    params = setup(group, 4)
    ids, betas, elements, alphas = _case(group, 11, 40, 4)
    pk = group.g1() ** 9
    sigma = _oracle_hash_multi_exp(group, ids, betas, elements, alphas) ** 9
    with WorkerPool(params, 2) as pool:
        assert pool.hash_msm(ids, betas).point == group.raw_hash_msm(ids, betas)
        for s in (sigma, sigma * group.g1()):
            _check_both(group, s, pk, ids, betas, elements, alphas, pool=pool)


class TestClearedKeyCache:
    def test_bounded_like_the_line_cache(self):
        group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
        sigma = group.g1()
        for i in range(type_a._LINE_CACHE_SIZE + 3):
            group.hashed_pairing_check(sigma, group.g1() ** (i + 2), [b"m"], None)
            assert 0 < len(group._pk_h) <= type_a._LINE_CACHE_SIZE
        pk = group.g1() ** 5
        group.hashed_pairing_check(sigma, pk, [b"m"], None)
        assert group._pk_h[pk.point] == (pk ** group.params.h).point

    def test_not_pickled(self):
        group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
        group.hashed_pairing_check(group.g1(), group.g1() ** 3, [b"m"], None)
        assert group._pk_h
        clone = pickle.loads(pickle.dumps(group))
        assert clone._pk_h == {} and clone._lines == {}
        assert clone == group


class TestBlsVerify:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_matches_default_body(self, name):
        group = _GROUPS[name]
        keys = bls_keygen(group, random.Random(4))
        sigma = bls_sign(group, keys.sk, b"root")
        for s, pk, msg in [(sigma, keys.pk, b"root"), (sigma * group.g1(), keys.pk, b"root"),
                           (sigma, keys.pk ** 2, b"root"), (sigma, keys.pk, b"other")]:
            verdict = _check_both(group, s, pk, [msg], None)
            assert verdict == (s is sigma and pk is keys.pk and msg == b"root")
            assert _run(lambda g: bls_verify(g, pk, msg, s), group) == (
                verdict, {**OperationCounter().snapshot(), "hash_to_g1": 1, "pairings": 2})

    def test_identity_signature_rejected(self):
        group = _GROUPS["toy-64"]
        keys = bls_keygen(group, random.Random(5))
        assert not bls_verify(group, keys.pk, b"root", group.g1_identity())


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


def test_verify_pooled_equals_serial(audited):
    params, verifier, challenge, response = audited
    forged = type(response)(sigma=response.sigma * params.group.g1(), alphas=response.alphas)
    with WorkerPool(params, 2) as pool:
        pooled = PublicVerifier(params, verifier.org_pk, pool=pool)
        for proof, expected in ((response, True), (forged, False)):
            serial = _run(lambda g: verifier.verify(challenge, proof), params.group)
            assert serial == _run(lambda g: pooled.verify(challenge, proof), params.group)
            assert serial == _run(
                _oracle_hashed_pairing_check, params.group, proof.sigma,
                verifier.org_pk, list(challenge.block_ids), list(challenge.betas),
                list(params.u), list(proof.alphas))
            assert serial[0] is expected
            audits = [(challenge, response), (challenge, proof)]
            assert _run(lambda g: verifier.verify_batch(audits, random.Random(3)),
                        params.group) == _run(
                lambda g: pooled.verify_batch(audits, random.Random(3)), params.group)


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
