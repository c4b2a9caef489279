"""Tests for threshold blind BLS (paper Section V, Eq. 8–14)."""

import random
from itertools import combinations

import pytest

from repro.crypto.blind_bls import blind, unblind
from repro.crypto.threshold import (
    batch_verify_shares,
    combine_shares,
    distribute_key,
    sign_share,
    verify_share,
)
from repro.mathkit.poly import lagrange_basis_at_zero


@pytest.fixture()
def keys(group, rng):
    return distribute_key(group, w=5, t=3, rng=rng)


class TestDistribution:
    def test_share_pks_match_shares(self, group, keys):
        for share, pk in zip(keys.shares, keys.share_pks):
            assert group.g1() ** share.y == pk

    def test_master_pk_consistency(self, group, rng):
        sk = 123456789 % group.order
        keys = distribute_key(group, 5, 3, rng=rng, master_sk=sk)
        assert keys.master_pk == group.g1() ** sk

    def test_share_for(self, keys):
        assert keys.share_for(2) == keys.shares[2]

    def test_w_t_recorded(self, keys):
        assert keys.w == 5 and keys.t == 3


class TestSignCombine:
    def test_any_t_shares_reconstruct_signature(self, group, rng, keys):
        blinded = group.random_g1(rng)
        all_shares = [
            (keys.shares[j].x, sign_share(blinded, keys.shares[j])) for j in range(keys.w)
        ]
        # Ground truth: signature under the master key.
        master = None
        # Recover master sk only for the test oracle.
        from repro.crypto.shamir import recover_secret

        sk = recover_secret(keys.shares[:3], group.order)
        master = blinded**sk
        for subset in combinations(all_shares, keys.t):
            assert combine_shares(group, list(subset)) == master

    def test_precomputed_basis(self, group, rng, keys):
        blinded = group.random_g1(rng)
        chosen = keys.shares[:3]
        xs = [s.x for s in chosen]
        basis = lagrange_basis_at_zero(xs, group.order)
        shares = [(s.x, sign_share(blinded, s)) for s in chosen]
        assert combine_shares(group, shares, basis=basis) == combine_shares(group, shares)

    def test_too_few_shares_give_wrong_signature(self, group, rng, keys):
        blinded = group.random_g1(rng)
        from repro.crypto.shamir import recover_secret

        sk = recover_secret(keys.shares[:3], group.order)
        master = blinded**sk
        two = [(keys.shares[j].x, sign_share(blinded, keys.shares[j])) for j in range(2)]
        assert combine_shares(group, two) != master

    def test_combine_empty_raises(self, group):
        with pytest.raises(ValueError):
            combine_shares(group, [])

    def test_basis_length_mismatch(self, group, rng, keys):
        blinded = group.random_g1(rng)
        shares = [(keys.shares[0].x, sign_share(blinded, keys.shares[0]))]
        with pytest.raises(ValueError):
            combine_shares(group, shares, basis=[1, 2])

    def test_full_blind_protocol_through_threshold(self, group, rng, keys):
        """Blind -> t share signatures -> combine -> unblind == M^y."""
        from repro.crypto.shamir import recover_secret

        sk = recover_secret(keys.shares[:3], group.order)
        message = group.hash_to_g1(b"threshold block")
        state = blind(group, message, rng)
        shares = [(s.x, sign_share(state.blinded, s)) for s in keys.shares[1:4]]
        sigma_tilde = combine_shares(group, shares)
        sigma = unblind(group, state, sigma_tilde, keys.master_pk)
        assert sigma == message**sk


class TestShareVerification:
    def test_eq10_accepts_honest(self, group, rng, keys):
        blinded = group.random_g1(rng)
        for j in range(keys.w):
            share_sig = sign_share(blinded, keys.shares[j])
            assert verify_share(group, blinded, share_sig, keys.share_pks[j])

    def test_eq10_rejects_wrong_sem(self, group, rng, keys):
        blinded = group.random_g1(rng)
        share_sig = sign_share(blinded, keys.shares[0])
        assert not verify_share(group, blinded, share_sig, keys.share_pks[1])

    def test_eq14_batch_accepts(self, group, rng, keys):
        blinded = [group.random_g1(rng) for _ in range(4)]
        shares_by_sem = {
            j: [sign_share(m, keys.shares[j]) for m in blinded] for j in range(3)
        }
        pks = {j: keys.share_pks[j] for j in range(3)}
        assert batch_verify_shares(group, blinded, shares_by_sem, pks, rng)

    def test_eq14_detects_single_bad_share(self, group, rng, keys):
        blinded = [group.random_g1(rng) for _ in range(4)]
        shares_by_sem = {
            j: [sign_share(m, keys.shares[j]) for m in blinded] for j in range(3)
        }
        shares_by_sem[1][2] = shares_by_sem[1][2] * group.g1()
        pks = {j: keys.share_pks[j] for j in range(3)}
        assert not batch_verify_shares(group, blinded, shares_by_sem, pks, rng)

    def test_eq14_detects_swapped_shares(self, group, rng, keys):
        blinded = [group.random_g1(rng) for _ in range(4)]
        shares_by_sem = {0: [sign_share(m, keys.shares[0]) for m in blinded]}
        shares_by_sem[0][0], shares_by_sem[0][1] = shares_by_sem[0][1], shares_by_sem[0][0]
        pks = {0: keys.share_pks[0]}
        assert not batch_verify_shares(group, blinded, shares_by_sem, pks, rng)

    def test_eq14_pairing_budget(self, group, rng, keys):
        """t + 1 pairings for n·t shares (the paper's Eq. 14 claim)."""
        from repro.pairing.interface import OperationCounter

        t = 3
        blinded = [group.random_g1(rng) for _ in range(5)]
        shares_by_sem = {
            j: [sign_share(m, keys.shares[j]) for m in blinded] for j in range(t)
        }
        pks = {j: keys.share_pks[j] for j in range(t)}
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            assert batch_verify_shares(group, blinded, shares_by_sem, pks, rng)
        finally:
            group.detach_counter()
        assert counter.pairings == t + 1

    def _two_sem_check(self, group, seed, shares_for):
        """Eq. 14 over SEMs 0 and 1 of a (3, 2) deal, 4 blinded messages,
        with SEM j's share of message i given by ``shares_for(j, i, m, y_j)``."""
        rng = random.Random(seed)
        keys = distribute_key(group, w=3, t=2, rng=rng)
        blinded = [group.random_g1(rng) for _ in range(4)]
        shares_by_sem = {
            j: [shares_for(j, i, m, keys.shares[j].y) for i, m in enumerate(blinded)]
            for j in (0, 1)
        }
        pks = {j: keys.share_pks[j] for j in (0, 1)}
        return batch_verify_shares(group, blinded, shares_by_sem, pks, rng)

    def test_eq14_rejects_offsets_cancelling_across_sems(self, group):
        """SEMs 0 and 1 add Δ and Δ⁻¹ to their shares of message 0.  The
        product over SEMs is unchanged, but the Lagrange-combined
        signature is wrong (the coefficients differ), so Eq. 14 must
        weight each SEM independently and reject."""
        delta = group.hash_to_g1(b"collusion offset")

        def shares_for(j, i, m, y):
            share = m**y
            if i == 0:
                share = share * (delta if j == 0 else delta.inverse())
            return share

        for seed in range(20):
            assert not self._two_sem_check(group, seed, shares_for)
            # Control: the same deal and messages pass when honest.
            assert self._two_sem_check(group, seed, lambda j, i, m, y: m**y)

    def test_eq14_rejects_key_shift_across_sems(self, group):
        """SEM 0 signs with y_0 + d and SEM 1 with y_1 − d: every message's
        share product is m̃^{y_0 + y_1}, as if both were honest."""
        d = 987654321

        def shares_for(j, i, m, y):
            return m ** ((y + d) if j == 0 else (y - d))

        for seed in range(20):
            assert not self._two_sem_check(group, seed, shares_for)

    def test_eq14_single_sem_draws_only_message_weights(self, group, keys):
        """With one SEM, δ = 1: the check draws n weights and costs 2n Exp,
        as the per-SEM calls of SigningRound always have."""
        from repro.pairing.interface import OperationCounter

        rng = random.Random(4)
        blinded = [group.random_g1(rng) for _ in range(5)]
        shares = {0: [sign_share(m, keys.shares[0]) for m in blinded]}
        rng, twin = random.Random(5), random.Random(5)
        counter = OperationCounter()
        group.attach_counter(counter)
        try:
            assert batch_verify_shares(group, blinded, shares, {0: keys.share_pks[0]}, rng)
        finally:
            group.detach_counter()
        for _ in blinded:
            group.random_nonzero_scalar(twin)
        assert rng.getstate() == twin.getstate()
        assert (counter.exp_g1, counter.mul_g1, counter.pairings) == (10, 8, 2)

    def test_eq14_empty(self, group, rng):
        assert batch_verify_shares(group, [], {}, {}, rng)

    def test_eq14_ragged_rejected(self, group, rng, keys):
        blinded = [group.random_g1(rng) for _ in range(2)]
        shares_by_sem = {0: [sign_share(blinded[0], keys.shares[0])]}
        with pytest.raises(ValueError):
            batch_verify_shares(group, blinded, shares_by_sem, {0: keys.share_pks[0]}, rng)
