"""Tests for blind BLS (paper Eq. 2–5, 7): correctness, blindness,
unlinkability, and batch verification."""

import random

import pytest

from repro.crypto.blind_bls import (
    batch_unblind_verify,
    blind,
    sign_blinded,
    unblind,
    verify_blinded,
)
from repro.crypto.bls import bls_keygen, bls_verify_element
from repro.crypto.threshold import batch_verify_shares
from repro.pairing.interface import OperationCounter


class TestProtocolCorrectness:
    def test_unblinded_signature_is_plain_bls(self, group, rng):
        """Eq. 5: the unblinded signature equals M^y exactly."""
        kp = bls_keygen(group, rng)
        message = group.hash_to_g1(b"block-0")
        state = blind(group, message, rng)
        sigma_tilde = sign_blinded(state.blinded, kp.sk)
        sigma = unblind(group, state, sigma_tilde, kp.pk)
        assert sigma == message**kp.sk
        assert bls_verify_element(group, kp.pk, message, sigma)

    def test_eq4_verification(self, group, rng):
        kp = bls_keygen(group, rng)
        state = blind(group, group.random_g1(rng), rng)
        sigma_tilde = sign_blinded(state.blinded, kp.sk)
        assert verify_blinded(group, state.blinded, sigma_tilde, kp.pk)

    def test_eq4_rejects_bad_signature(self, group, rng):
        kp = bls_keygen(group, rng)
        state = blind(group, group.random_g1(rng), rng)
        bad = sign_blinded(state.blinded, (kp.sk + 1) % group.order)
        assert not verify_blinded(group, state.blinded, bad, kp.pk)

    def test_unblind_check_raises_on_bad(self, group, rng):
        kp = bls_keygen(group, rng)
        state = blind(group, group.random_g1(rng), rng)
        bad = sign_blinded(state.blinded, (kp.sk + 1) % group.order)
        with pytest.raises(ValueError):
            unblind(group, state, bad, kp.pk)

    def test_unblind_without_check_accepts_garbage(self, group, rng):
        kp = bls_keygen(group, rng)
        message = group.random_g1(rng)
        state = blind(group, message, rng)
        bad = group.random_g1(rng)
        sigma = unblind(group, state, bad, kp.pk, check=False)
        assert not bls_verify_element(group, kp.pk, message, sigma)

    def test_fresh_blinding_factor_each_call(self, group, rng):
        message = group.random_g1(rng)
        s1 = blind(group, message, rng)
        s2 = blind(group, message, rng)
        assert s1.r != s2.r
        assert s1.blinded != s2.blinded


class TestBlindness:
    def test_blinded_message_independent_of_message(self, group, rng):
        """m̃ = M·g^r is uniform: statistically indistinguishable across
        very different messages (sanity-check via value spread)."""
        m1 = group.hash_to_g1(b"A" * 100)
        m2 = group.hash_to_g1(b"B")
        blinded1 = {blind(group, m1, rng).blinded.to_bytes() for _ in range(30)}
        blinded2 = {blind(group, m2, rng).blinded.to_bytes() for _ in range(30)}
        # All fresh values distinct, none repeated across the two message sets.
        assert len(blinded1) == 30
        assert len(blinded2) == 30
        assert not blinded1 & blinded2

    def test_perfect_blindness_witness(self, group, rng):
        """For ANY target message M there exists r mapping it to the
        observed blinded value — the signer's view is consistent with every
        message (the unlinkability argument of Section IV-D)."""
        m_real = group.hash_to_g1(b"real")
        state = blind(group, m_real, rng)
        m_other = group.hash_to_g1(b"decoy")
        # Find the r' that would map m_other to the same blinded element:
        # blinded = m_other * g^{r'}  =>  g^{r'} = blinded / m_other.
        quotient = state.blinded / m_other
        # Solvable iff quotient is in <g> — always true in a prime-order group.
        assert (quotient**group.order).is_identity()

    def test_signer_transcript_unlinkable_to_signature(self, group, rng):
        """Given (m̃, σ̃) and a candidate (M, σ), the linking equation holds
        for EVERY candidate signed under the same key, so the transcript
        carries no linking information."""
        kp = bls_keygen(group, rng)
        messages = [group.hash_to_g1(b"m%d" % i) for i in range(3)]
        states = [blind(group, m, rng) for m in messages]
        tildes = [sign_blinded(s.blinded, kp.sk) for s in states]
        sigmas = [unblind(group, s, t, kp.pk) for s, t in zip(states, tildes)]
        # The only public relation is sigma_tilde / sigma = pk^r for SOME r;
        # check it is satisfiable for every (transcript, signature) pairing.
        for t in tildes:
            for sig in sigmas:
                assert ((t / sig) ** group.order).is_identity()


class TestBatchUnblindVerify:
    def _make_batch(self, group, rng, n):
        kp = bls_keygen(group, rng)
        messages = [group.random_g1(rng) for _ in range(n)]
        states = [blind(group, m, rng) for m in messages]
        blinded = [s.blinded for s in states]
        tildes = [sign_blinded(b, kp.sk) for b in blinded]
        return kp, blinded, tildes

    def test_valid_batch(self, group, rng):
        kp, blinded, tildes = self._make_batch(group, rng, 8)
        assert batch_unblind_verify(group, blinded, tildes, kp.pk, rng)

    def test_single_bad_detected(self, group, rng):
        kp, blinded, tildes = self._make_batch(group, rng, 8)
        tildes[3] = tildes[3] * group.g1()
        assert not batch_unblind_verify(group, blinded, tildes, kp.pk, rng)

    def test_two_compensating_errors_detected(self, group, rng):
        """Errors that cancel in an unrandomized product must still fail."""
        kp, blinded, tildes = self._make_batch(group, rng, 4)
        g = group.g1()
        tildes[0] = tildes[0] * g
        tildes[1] = tildes[1] * g.inverse()
        assert not batch_unblind_verify(group, blinded, tildes, kp.pk, rng)

    def test_swapped_pair_detected(self, group, rng):
        kp, blinded, tildes = self._make_batch(group, rng, 4)
        tildes[0], tildes[1] = tildes[1], tildes[0]
        assert not batch_unblind_verify(group, blinded, tildes, kp.pk, rng)

    def test_empty_batch(self, group, rng):
        kp = bls_keygen(group, rng)
        assert batch_unblind_verify(group, [], [], kp.pk, rng)

    def test_length_mismatch(self, group, rng):
        kp = bls_keygen(group, rng)
        with pytest.raises(ValueError):
            batch_unblind_verify(group, [group.g1()], [], kp.pk, rng)

    def test_batch_pairing_count_is_two(self, group, rng):
        from repro.pairing.interface import OperationCounter

        kp, blinded, tildes = self._make_batch(group, rng, 10)
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            assert batch_unblind_verify(group, blinded, tildes, kp.pk, rng)
        finally:
            group.detach_counter()
        assert counter.pairings == 2  # Eq. 7's whole point


def _eq7_own_body(group, blinded_messages, blind_signatures, pk, rng):
    """Eq. 7 as its own two-MSM body: the reference the one-SEM case of
    Eq. 14 is held to, in verdict, weight draws and tallies."""
    if len(blinded_messages) != len(blind_signatures):
        raise ValueError("message and signature counts differ")
    if not blinded_messages:
        return True
    gammas = [group.random_nonzero_scalar(rng) for _ in blinded_messages]
    sig_acc = group.multi_exp(blind_signatures, gammas)
    msg_acc = group.multi_exp(blinded_messages, gammas)
    return group.pairing_check([(sig_acc, group.g1()), (msg_acc.inverse(), pk)])


class TestEq7IsEq14WithOneSEM:
    """One body computes the randomized check; Eq. 7 is its one-SEM case."""

    CHECKS = {
        "eq7-own-body": _eq7_own_body,
        "batch_unblind_verify": batch_unblind_verify,
        "batch_verify_shares": lambda group, blinded, sigs, pk, rng: batch_verify_shares(
            group, blinded, {0: sigs}, {0: pk}, rng),
    }

    def _run(self, group, check, blinded, tildes, pk):
        rng = random.Random(99)
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            verdict = check(group, blinded, tildes, pk, rng)
        finally:
            group.detach_counter()
        return verdict, rng.getstate(), counter

    @pytest.mark.parametrize("flip", [False, True], ids=["valid", "flipped"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_same_verdict_draws_and_tallies(self, group, n, flip):
        rng = random.Random(n)
        kp = bls_keygen(group, rng)
        blinded = [blind(group, group.random_g1(rng), rng).blinded for _ in range(n)]
        tildes = [sign_blinded(b, kp.sk) for b in blinded]
        if flip and n:
            tildes[n // 2] = tildes[n // 2] * group.g1()
        runs = {name: self._run(group, check, blinded, tildes, kp.pk)
                for name, check in self.CHECKS.items()}
        reference = runs.pop("eq7-own-body")
        assert all(run == reference for run in runs.values())
        verdict, _, counter = reference
        assert verdict is not (flip and n > 0)
        if n:
            assert (counter.exp_g1, counter.exp_g1_msm, counter.pairings) == (0, 2 * n, 2)
