"""Tests for the BBS04 group-signature substrate (used by the Knox baseline)."""

import pytest

from repro.crypto.group_sig import BBS04Group


@pytest.fixture(scope="module")
def bbs(group):
    import random

    return BBS04Group(group, rng=random.Random(0xBB5))


@pytest.fixture(scope="module")
def members(bbs):
    return [bbs.issue_member_key() for _ in range(3)]


class TestSignVerify:
    def test_round_trip_every_member(self, bbs, members):
        for member in members:
            sig = bbs.sign(member, b"message")
            assert bbs.verify(b"message", sig)

    def test_wrong_message_rejected(self, bbs, members):
        sig = bbs.sign(members[0], b"message")
        assert not bbs.verify(b"other message", sig)

    def test_tampered_t3_rejected(self, bbs, members, group):
        import dataclasses

        sig = bbs.sign(members[0], b"m")
        bad = dataclasses.replace(sig, t3=sig.t3 * group.g1())
        assert not bbs.verify(b"m", bad)

    def test_tampered_scalar_rejected(self, bbs, members, group):
        import dataclasses

        sig = bbs.sign(members[0], b"m")
        bad = dataclasses.replace(sig, s_x=(sig.s_x + 1) % group.order)
        assert not bbs.verify(b"m", bad)

    def test_tampered_challenge_rejected(self, bbs, members, group):
        import dataclasses

        sig = bbs.sign(members[0], b"m")
        bad = dataclasses.replace(sig, c=(sig.c + 1) % group.order)
        assert not bbs.verify(b"m", bad)

    def test_signatures_randomized(self, bbs, members):
        s1 = bbs.sign(members[0], b"m")
        s2 = bbs.sign(members[0], b"m")
        assert s1.t1 != s2.t1  # fresh α each time

    def test_member_keys_are_sdh_pairs(self, bbs, members, group):
        # e(A, w·g2^x) == e(g1, g2).
        for member in members:
            lhs = group.pair(member.A, bbs.w * group.g1() ** member.x)
            assert lhs == group.pair(group.g1(), group.g1())


class TestAnonymityAndOpening:
    def test_open_identifies_signer(self, bbs, members):
        for index in range(len(members)):
            sig = bbs.sign(members[index], b"payload")
            assert bbs.open(sig) == index

    def test_open_unknown_member(self, bbs, group):
        import random

        outsider = BBS04Group(group, rng=random.Random(1)).issue_member_key()
        # Signature under a different group's parameters decrypts to an A
        # not in this group's roster.
        sig = bbs.sign(outsider, b"x")
        assert bbs.open(sig) is None

    def test_signatures_do_not_reveal_signer_publicly(self, bbs, members):
        """Without the opening key, T3 = A·h^{α+β} is a fresh encryption —
        the same signer's T3 values are unlinkable."""
        sigs = [bbs.sign(members[0], b"m") for _ in range(5)]
        assert len({s.t3.to_bytes() for s in sigs}) == 5

    def test_size_constant_in_group_size(self, bbs, members, group):
        sig_small = bbs.sign(members[0], b"m")
        for _ in range(10):
            bbs.issue_member_key()
        sig_large = bbs.sign(members[0], b"m")
        assert sig_small.size_bytes() == sig_large.size_bytes()

    def test_size_formula(self, bbs, members, group):
        sig = bbs.sign(members[0], b"m")
        scalar = (group.order.bit_length() + 7) // 8
        g1 = group.g1_element_bytes()
        assert sig.size_bytes() == 3 * g1 + 6 * scalar
