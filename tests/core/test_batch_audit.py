"""Tests for batch auditing multiple files (verify_batch) and the
fixed-base owner path."""

import random

import pytest

from repro.core.accounting import CostTracker
from repro.core.blocks import aggregate_block
from repro.core.challenge import ProofResponse
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.sem import SecurityMediator
from repro.core.verifier import PublicVerifier, bisect_failures


def _audits(group, params, rng, files):
    sem = SecurityMediator(group, rng=rng, require_membership=False)
    owner = DataOwner(params, sem.pk, rng=rng)
    cloud = CloudServer(params, rng=rng)
    verifier = PublicVerifier(params, sem.pk, rng=rng)
    audits = []
    for i in range(files):
        fid = b"file-%d" % i
        signed = owner.sign_file(b"content %d " % i * 10, fid, sem)
        cloud.store(signed)
        ch = verifier.generate_challenge(fid, len(signed.blocks))
        audits.append((ch, cloud.generate_proof(fid, ch)))
    return sem, cloud, verifier, audits


@pytest.fixture()
def multi_file(group, params_k4, rng):
    return _audits(group, params_k4, rng, 4)


def _forge(audit, group):
    challenge, proof = audit
    return challenge, ProofResponse(sigma=proof.sigma * group.g1(), alphas=proof.alphas)


class TestBatchAudit:
    def test_all_honest_accepts(self, multi_file, rng):
        _, _, verifier, audits = multi_file
        assert verifier.verify_batch(audits, rng)

    def test_empty_batch(self, multi_file, rng):
        _, _, verifier, _ = multi_file
        assert verifier.verify_batch([], rng)

    def test_single_audit_batch(self, multi_file, rng):
        _, _, verifier, audits = multi_file
        assert verifier.verify_batch(audits[:1], rng)

    def test_one_bad_file_fails_batch(self, multi_file, rng, group):
        from repro.core.challenge import ProofResponse

        _, _, verifier, audits = multi_file
        ch, proof = audits[2]
        audits[2] = (ch, ProofResponse(sigma=proof.sigma * group.g1(), alphas=proof.alphas))
        assert not verifier.verify_batch(audits, rng)

    def test_compensating_errors_fail(self, multi_file, rng, group):
        """Random weights defeat error cancellation across files."""
        from repro.core.challenge import ProofResponse

        _, _, verifier, audits = multi_file
        g = group.g1()
        ch0, p0 = audits[0]
        ch1, p1 = audits[1]
        audits[0] = (ch0, ProofResponse(sigma=p0.sigma * g, alphas=p0.alphas))
        audits[1] = (ch1, ProofResponse(sigma=p1.sigma * g.inverse(), alphas=p1.alphas))
        assert not verifier.verify_batch(audits, rng)

    def test_wrong_alpha_count_rejected(self, multi_file, rng):
        from repro.core.challenge import ProofResponse

        _, _, verifier, audits = multi_file
        ch, proof = audits[0]
        audits[0] = (ch, ProofResponse(sigma=proof.sigma, alphas=proof.alphas[:-1]))
        assert not verifier.verify_batch(audits, rng)

    def test_two_pairings_for_l_files(self, multi_file, rng, group):
        _, _, verifier, audits = multi_file
        with CostTracker(group) as tracker:
            assert verifier.verify_batch(audits, rng)
        assert tracker.pairings == 2  # regardless of L = 4 files

    def test_matches_individual_verdicts(self, multi_file, rng):
        _, _, verifier, audits = multi_file
        individually = all(verifier.verify(ch, proof) for ch, proof in audits)
        assert verifier.verify_batch(audits, rng) == individually

    @pytest.mark.parametrize("forged", [(), (0,), (3,), (1, 2)])
    def test_matches_per_file_verdicts_with_forgeries(self, multi_file, rng, group, forged):
        _, _, verifier, audits = multi_file
        audits = [_forge(a, group) if i in forged else a for i, a in enumerate(audits)]
        per_file = [verifier.verify(ch, proof) for ch, proof in audits]
        assert per_file == [i not in forged for i in range(len(audits))]
        assert verifier.verify_batch(audits, rng) == all(per_file)

    def test_one_forged_file_among_16_rejects(self, group, params_k4):
        _, _, verifier, audits = _audits(group, params_k4, random.Random(16), 16)
        assert verifier.verify_batch(audits, random.Random(1))
        for bad in (0, 9, 15):
            forged = list(audits)
            forged[bad] = _forge(audits[bad], group)
            assert not verifier.verify_batch(forged, random.Random(bad))

    def test_counts_the_per_file_model_tally(self, multi_file, rng, group):
        """The fold runs one MSM, but the model still tallies each file's
        c_i hashes and (c_i + k) Exp terms, two Exps per weight, the
        2(L − 1) merges, and 2 pairings — the unfolded form's counts."""
        _, _, verifier, audits = multi_file
        _, proof = audits[1]
        audits[1] = (audits[1][0], ProofResponse(
            sigma=proof.sigma, alphas=(0,) + tuple(proof.alphas[1:])))
        expected = {"exp_g1": 2 * len(audits), "mul_g1": 2 * (len(audits) - 1),
                    "pairings": 2}
        for ch, proof in audits:
            with CostTracker(group) as tracker:
                verifier.verify(ch, proof)
            for key, value in tracker.counter.diff({}).items():
                if key != "pairings":
                    expected[key] = expected.get(key, 0) + value
        with CostTracker(group) as tracker:
            assert not verifier.verify_batch(audits, rng)
        assert tracker.counter.diff({}) == expected
        assert expected["exp_g1_skipped"] >= 1


class TestBisectFailures:
    """The one binary split shared by corruption localization and the
    ledger's batched recheck."""

    @staticmethod
    def _run(n, bad):
        visited = []

        def check_range(lo, hi):
            visited.append((lo, hi))
            return not any(lo <= b < hi for b in bad)

        return bisect_failures(n, check_range), visited

    def test_clean_range_costs_one_check(self):
        assert self._run(9, set()) == ([], [(0, 9)])

    def test_empty_range_checks_nothing(self):
        assert self._run(0, set()) == ([], [])

    def test_depth_first_low_first_schedule(self):
        failures, visited = self._run(8, {1, 6})
        assert failures == [1, 6]
        assert visited == [(0, 8), (0, 4), (0, 2), (0, 1), (1, 2), (2, 4),
                           (4, 8), (4, 6), (6, 8), (6, 7), (7, 8)]

    def test_failing_single_position(self):
        assert self._run(1, {0}) == ([0], [(0, 1)])

    def test_names_every_failure_in_order(self):
        bad = {0, 3, 4, 11, 199}
        failures, visited = self._run(200, bad)
        assert failures == sorted(bad)
        assert len(visited) < 200

    def test_one_forged_audit_among_16(self, group, params_k4):
        _, _, verifier, audits = _audits(group, params_k4, random.Random(16), 16)
        audits[9] = _forge(audits[9], group)
        assert bisect_failures(
            len(audits), lambda lo, hi: verifier.verify_batch(audits[lo:hi])) == [9]


class TestFixedBaseOwner:
    def test_same_signatures_as_plain_owner(self, group, params_k4, rng):
        """The table-backed owner signs exactly the paper's plain σ = M^y."""
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        signed = owner.sign_file(b"either path, same signatures " * 4, b"f", sem)
        assert list(signed.signatures) == [
            aggregate_block(params_k4, block) ** sem._sk for block in signed.blocks]

    def test_fixed_base_skips_u_exponentiations(self, group, params_k4, rng):
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        data = bytes(range(1, 150))
        with CostTracker(group) as tracker:
            signed = owner.sign_file(data, b"f", sem, batch=True)
        n = len(signed.blocks)
        # Bind's k u-exponentiations, blinding and unblinding are table
        # lookups; what remains per block is SEM sign (1) and the Eq. 7
        # batch check's two MSM terms (2).
        assert tracker.exp_g1 == 3 * n

    def test_audits_pass_end_to_end(self, group, params_k4, rng):
        sem = SecurityMediator(group, rng=rng, require_membership=False)
        owner = DataOwner(params_k4, sem.pk, rng=rng)
        cloud = CloudServer(params_k4, rng=rng)
        verifier = PublicVerifier(params_k4, sem.pk, rng=rng)
        cloud.store(owner.sign_file(b"fast-signed data " * 6, b"f", sem))
        ch = verifier.generate_challenge(b"f", cloud.retrieve(b"f").n_blocks)
        assert verifier.verify(ch, cloud.generate_proof(b"f", ch))
