"""The verifier's hash cache: one bounded LRU of raw H(id) points per
:class:`PublicVerifier`, so re-auditing the same blocks skips their
try-and-increment hashing without changing a verdict or a tally.
"""

import pickle
import random

import pytest

from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import setup
from repro.core.parallel import WorkerPool
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier
from repro.ec.hash_to_curve import HASH_CACHE_SIZE, HashCache
from repro.obs import MetricsRegistry, bind_verifier_cache
from repro.obs import ledger as ledger_module
from repro.obs.ledger import Ledger, audit_record, verify_ledger
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import OperationCounter

N_BLOCKS = 40
FILE_ID = b"cache/file"


def _deployment(seed=7):
    """A fresh group with one signed file in the cloud."""
    group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    params = setup(group, 4, seed=b"verifier-cache")
    rng = random.Random(seed)
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    data = bytes(rng.randrange(256) for _ in range(N_BLOCKS * params.block_bytes() - 8))
    signed = owner.sign_file(data, FILE_ID, sem, batch=True)
    assert len(signed.blocks) == N_BLOCKS
    cloud = CloudServer(params, org_pk=sem.pk)
    cloud.store(signed)
    return params, sem, cloud


@pytest.fixture(scope="module")
def deployment():
    return _deployment()


def _audit(verifier, cloud, sample_size=24):
    challenge = verifier.generate_challenge(FILE_ID, N_BLOCKS, sample_size=sample_size)
    return challenge, cloud.generate_proof(FILE_ID, challenge)


class TestVerdicts:
    def test_warm_and_cold_verdicts_agree_on_a_clean_proof(self, deployment):
        params, sem, cloud = deployment
        challenge, proof = _audit(PublicVerifier(params, sem.pk, rng=random.Random(1)), cloud)
        cold = PublicVerifier(params, sem.pk)
        assert cold.verify(challenge, proof)
        assert cold.hash_cache.misses == len(challenge) and cold.hash_cache.hits == 0
        assert cold.verify(challenge, proof)
        assert cold.hash_cache.hits == len(challenge)
        assert cold.hash_cache.misses == len(challenge)

    def test_warm_verifier_rejects_a_tampered_block(self, deployment):
        params, sem, cloud = deployment
        verifier = PublicVerifier(params, sem.pk, rng=random.Random(2))
        challenge, proof = _audit(verifier, cloud)
        assert verifier.verify(challenge, proof)
        stored = cloud.retrieve(FILE_ID)
        index = challenge.indices[0]
        original = stored.blocks[index]
        cloud.tamper_block(FILE_ID, index)
        try:
            tampered = cloud.generate_proof(FILE_ID, challenge)
        finally:
            stored.blocks[index] = original
        assert not verifier.verify(challenge, tampered)
        assert verifier.hash_cache.hits == len(challenge)

    def test_warm_verifier_rejects_a_tampered_sigma(self, deployment):
        params, sem, cloud = deployment
        verifier = PublicVerifier(params, sem.pk, rng=random.Random(3))
        challenge, proof = _audit(verifier, cloud)
        assert verifier.verify(challenge, proof)
        forged = type(proof)(sigma=proof.sigma * params.group.g1(), alphas=proof.alphas)
        assert not verifier.verify(challenge, forged)
        assert not verifier.verify_batch([(challenge, proof), (challenge, forged)])
        assert verifier.verify_batch([(challenge, proof), (challenge, proof)])


def _tallies(workers, rounds=3):
    """Op tallies and verdicts of ``rounds`` audits by one verifier, each
    audit measured on its own; seeded, so every call challenges alike."""
    params, sem, cloud = _deployment()
    group = params.group
    counter = OperationCounter()
    group.attach_counter(counter)
    pool = WorkerPool(params, workers) if workers > 1 else None
    try:
        verifier = PublicVerifier(params, sem.pk, rng=random.Random(9), pool=pool)
        per_audit = []
        for _ in range(rounds):
            challenge, proof = _audit(verifier, cloud)
            before = counter.snapshot()
            ok = verifier.verify(challenge, proof)
            per_audit.append((ok, counter.diff(before)))
        return per_audit, verifier.hash_cache
    finally:
        if pool is not None:
            pool.close()
        group.detach_counter()


class TestTallies:
    def test_cold_and_warm_audits_tally_alike(self):
        (cold_ok, cold), *warm = _tallies(1)[0]
        assert cold_ok and cold["hash_to_g1"] == 24
        for ok, ops in warm:
            assert ok and ops == cold

    def test_tallies_and_cache_agree_at_one_two_and_three_workers(self, monkeypatch):
        shipped = []
        hash_msm = WorkerPool.hash_msm

        def spy(pool, block_ids, betas, cache=None):
            shipped.append(len(block_ids))
            return hash_msm(pool, block_ids, betas, cache=cache)

        monkeypatch.setattr(WorkerPool, "hash_msm", spy)
        runs = {workers: _tallies(workers) for workers in (1, 2, 3)}
        serial, serial_cache = runs[1]
        assert 0 < serial_cache.hits and serial_cache.misses > 24
        # Per pool: the cold audit ships all 24 ids, a warm one only its
        # misses (still enough to fan out), while the parent serves the hits.
        assert shipped[0] == 24 and 8 <= shipped[1] < 24
        assert shipped[:len(shipped) // 2] == shipped[len(shipped) // 2:]
        for workers in (2, 3):
            audits, cache = runs[workers]
            assert audits == serial
            assert (cache.hits, cache.misses, len(cache)) == (
                serial_cache.hits, serial_cache.misses, len(serial_cache))
            assert list(cache._points) == list(serial_cache._points)


class TestBound:
    def test_more_distinct_ids_than_the_bound_keep_at_most_the_bound(self, deployment):
        params, sem, _ = deployment
        verifier = PublicVerifier(params, sem.pk)
        group = params.group
        ids = [b"stream-%d" % i for i in range(HASH_CACHE_SIZE + 100)]
        for lo in range(0, len(ids), 500):
            group.raw_hash_msm(ids[lo:lo + 500], None, cache=verifier.hash_cache)
        cache = verifier.hash_cache
        assert len(cache) == HASH_CACHE_SIZE
        assert cache.misses == len(ids)
        # Least recently used first out: the oldest ids are gone.
        assert ids[0] not in cache._points and ids[-1] in cache._points
        assert ids[99] not in cache._points and ids[100] in cache._points

    def test_a_hit_is_renewed(self):
        cache = HashCache()
        cache.put(b"a", (1, 2))
        for i in range(HASH_CACHE_SIZE - 1):
            cache.put(b"%d" % i, (i, i))
        assert cache.get(b"a") == (1, 2)
        cache.put(b"last", (3, 4))
        assert b"a" in cache._points and b"0" not in cache._points


class TestIsolation:
    def test_a_pickled_verifier_comes_back_with_an_empty_cache(self, deployment):
        params, sem, cloud = deployment
        verifier = PublicVerifier(params, sem.pk, rng=random.Random(4))
        challenge, proof = _audit(verifier, cloud)
        assert verifier.verify(challenge, proof)
        assert len(verifier.hash_cache) == len(challenge)
        clone = pickle.loads(pickle.dumps(verifier))
        assert len(clone.hash_cache) == 0
        assert (clone.hash_cache.hits, clone.hash_cache.misses) == (0, 0)
        assert clone.verify(challenge, proof)
        assert len(verifier.hash_cache) == len(challenge)

    def test_verifiers_share_nothing_and_signing_warms_nothing(self):
        params, sem, cloud = _deployment(seed=8)
        group = params.group
        ids = [block.block_id for block in cloud.retrieve(FILE_ID).blocks]
        raw = {group._hash_to_curve(block_id) for block_id in ids}

        def holds_raw_points(value):
            if isinstance(value, dict):
                return any(holds_raw_points(k) or holds_raw_points(v)
                           for k, v in value.items())
            if isinstance(value, (list, tuple, set)):
                return value in raw if isinstance(value, tuple) else any(
                    holds_raw_points(v) for v in value)
            return isinstance(value, HashCache)

        # The owner hashed every id to sign it; the group kept none of them.
        assert not any(holds_raw_points(value) for value in vars(group).values())
        first = PublicVerifier(params, sem.pk, rng=random.Random(5))
        second = PublicVerifier(params, sem.pk, rng=random.Random(5))
        assert first.hash_cache is not second.hash_cache
        assert len(second.hash_cache) == 0
        challenge, proof = _audit(first, cloud)
        assert first.verify(challenge, proof)
        assert len(first.hash_cache) == len(challenge) and len(second.hash_cache) == 0
        assert second.verify(challenge, proof)
        assert second.hash_cache.hits == 0
        assert second.hash_cache.misses == len(challenge)
        assert not any(holds_raw_points(value) for value in vars(group).values())


class TestMetrics:
    def test_registry_mirrors_hits_misses_and_entries(self, deployment):
        params, sem, cloud = deployment
        verifier = PublicVerifier(params, sem.pk, rng=random.Random(6))
        registry = MetricsRegistry()
        bind_verifier_cache(registry, verifier)
        challenge, proof = _audit(verifier, cloud, sample_size=10)
        assert verifier.verify(challenge, proof)
        assert verifier.verify(challenge, proof)
        snap = registry.snapshot()
        assert snap["verifier_hash_cache_hits_total"] == 10
        assert snap["verifier_hash_cache_misses_total"] == 10
        assert snap["verifier_hash_cache_entries"] == 10


class TestLedgerRecheck:
    def test_one_verifier_per_pinned_key(self, tmp_path, monkeypatch):
        params, sem, cloud = _deployment(seed=10)
        _, other_sem, other_cloud = _deployment(seed=11)
        tpa = PublicVerifier(params, sem.pk, rng=random.Random(12))
        other_tpa = PublicVerifier(params, other_sem.pk, rng=random.Random(13))
        ledger = Ledger(tmp_path / "recheck.jsonl")
        ledger.ensure_genesis({"param_set": "toy-64", "k": params.k,
                               "setup_seed": params.seed.hex()})

        def record(verifier, store, ok=True, forge=False):
            challenge, proof = _audit(verifier, store, sample_size=6)
            if forge:
                proof = type(proof)(sigma=proof.sigma * params.group.g1(),
                                    alphas=proof.alphas)
            ledger.append(*audit_record("tpa", FILE_ID, challenge, proof, ok))

        ledger.pin_verifier("tpa", sem.pk)
        for i in range(ledger_module.MAX_RECHECK_BATCH + 5):
            record(tpa, cloud)
        record(tpa, cloud, ok=False, forge=True)     # an honest FAIL
        ledger.pin_verifier("tpa", other_sem.pk)
        record(other_tpa, other_cloud)
        ledger.pin_verifier("tpa", sem.pk)
        record(tpa, cloud)

        built = []

        class Counted(PublicVerifier):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(ledger_module, "PublicVerifier", Counted)
        report = verify_ledger(ledger.path)
        assert report.ok, report.errors
        assert report.audits_rechecked == ledger_module.MAX_RECHECK_BATCH + 8
        # Key A, key B, then key A again after the re-pin dropped it.
        assert [v.org_pk.point for v in built] == [sem.pk.point, other_sem.pk.point,
                                                   sem.pk.point]
        assert all(v._rng is None for v in built)   # OS-random batch weights
        first = built[0].hash_cache
        assert first.hits > 0
        assert first.misses <= N_BLOCKS
