"""BBS04 short group signatures (Boneh, Boyen, Shacham — CRYPTO 2004).

The Knox [13] comparator builds on group signatures; this module supplies a
faithful BBS04 implementation on our pairing substrate:

* Any group member can sign anonymously on behalf of the group.
* Signatures are constant size — but that constant is large (3 G1 elements
  plus 6 Z_p scalars), which is exactly the per-block metadata blow-up the
  paper's Table III charges Knox for.
* The group manager (holding the opening key ξ1, ξ2) can *open* a
  signature and identify the signer — group signatures trade
  unconditional anonymity for accountability.

The signature is a Fiat–Shamir NIZK proof of knowledge of an SDH pair
(A, x) with A^{γ+x} = g1, encrypted under linear encryption (T1, T2, T3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.mathkit.ntheory import inverse_mod
from repro.pairing.interface import GroupElement, GTElement, PairingGroup


@dataclass(frozen=True)
class GroupMemberKey:
    """A member's SDH pair: A = g1^{1/(γ+x)} and exponent x."""

    A: GroupElement
    x: int


@dataclass(frozen=True)
class GroupSignature:
    """(T1, T2, T3, c, s_α, s_β, s_x, s_δ1, s_δ2)."""

    t1: GroupElement
    t2: GroupElement
    t3: GroupElement
    c: int
    s_alpha: int
    s_beta: int
    s_x: int
    s_delta1: int
    s_delta2: int

    def size_bytes(self) -> int:
        scalar = (self.t1.group.order.bit_length() + 7) // 8
        return (
            len(self.t1.to_bytes()) + len(self.t2.to_bytes()) + len(self.t3.to_bytes())
            + 6 * scalar
        )


def _hash_challenge(order: int, message: bytes, *elements) -> int:
    h = hashlib.sha256()
    h.update(message)
    for element in elements:
        if isinstance(element, GroupElement):
            h.update(element.to_bytes())
        elif isinstance(element, GTElement):
            h.update(repr(element.value).encode())
        else:
            raise TypeError(f"unhashable element {type(element)}")
    return int.from_bytes(h.digest(), "big") % order


class BBS04Group:
    """A BBS04 group: manager-side key generation, opening, member signing."""

    def __init__(self, group: PairingGroup, rng=None):
        self.group = group
        self._rng = rng
        p = group.order
        # Public parameters: h, u, v with u^ξ1 = v^ξ2 = h.
        self._xi1 = group.random_nonzero_scalar(rng)
        self._xi2 = group.random_nonzero_scalar(rng)
        self.h = group.random_g1(rng)
        self.u = self.h ** inverse_mod(self._xi1, p)
        self.v = self.h ** inverse_mod(self._xi2, p)
        # Issuing key γ, group public key w = g^γ.
        self._gamma = group.random_nonzero_scalar(rng)
        self.w = group.g1() ** self._gamma
        self._members: list[GroupMemberKey] = []
        # Precomputed pairings used by sign/verify.
        self._e_h_w = group.pair(self.h, self.w)
        self._e_h_g = group.pair(self.h, group.g1())
        self._e_g_g = group.pair(group.g1(), group.g1())

    # -- enrolment -----------------------------------------------------------
    def issue_member_key(self) -> GroupMemberKey:
        """Manager-side join: hand out a fresh SDH pair (A_i, x_i)."""
        p = self.group.order
        while True:
            x = self.group.random_nonzero_scalar(self._rng)
            if (self._gamma + x) % p != 0:
                break
        a = self.group.g1() ** inverse_mod(self._gamma + x, p)
        key = GroupMemberKey(A=a, x=x)
        self._members.append(key)
        return key

    # -- signing ---------------------------------------------------------------
    def sign(self, member: GroupMemberKey, message: bytes) -> GroupSignature:
        """Anonymously sign ``message`` with a member key."""
        group = self.group
        p = group.order
        rand = lambda: group.random_nonzero_scalar(self._rng)  # noqa: E731
        alpha, beta = rand(), rand()
        t1 = self.u**alpha
        t2 = self.v**beta
        t3 = member.A * self.h ** ((alpha + beta) % p)
        delta1 = member.x * alpha % p
        delta2 = member.x * beta % p
        r_alpha, r_beta, r_x, r_d1, r_d2 = rand(), rand(), rand(), rand(), rand()
        r1 = self.u**r_alpha
        r2 = self.v**r_beta
        r3 = (
            group.pair(t3, group.g1()) ** r_x
            * self._e_h_w ** ((-r_alpha - r_beta) % p)
            * self._e_h_g ** ((-r_d1 - r_d2) % p)
        )
        r4 = t1**r_x * self.u ** ((-r_d1) % p)
        r5 = t2**r_x * self.v ** ((-r_d2) % p)
        c = _hash_challenge(p, message, t1, t2, t3, r1, r2, r3, r4, r5)
        return GroupSignature(
            t1=t1,
            t2=t2,
            t3=t3,
            c=c,
            s_alpha=(r_alpha + c * alpha) % p,
            s_beta=(r_beta + c * beta) % p,
            s_x=(r_x + c * member.x) % p,
            s_delta1=(r_d1 + c * delta1) % p,
            s_delta2=(r_d2 + c * delta2) % p,
        )

    # -- verification -------------------------------------------------------------
    def verify(self, message: bytes, sig: GroupSignature) -> bool:
        """Anyone holding the group public key can verify; 2 fresh pairings."""
        group = self.group
        p = group.order
        c = sig.c
        r1 = self.u**sig.s_alpha / sig.t1**c
        r2 = self.v**sig.s_beta / sig.t2**c
        ratio = group.pair(sig.t3, self.w) / self._e_g_g
        r3 = (
            group.pair(sig.t3, group.g1()) ** sig.s_x
            * self._e_h_w ** ((-sig.s_alpha - sig.s_beta) % p)
            * self._e_h_g ** ((-sig.s_delta1 - sig.s_delta2) % p)
            * ratio**c
        )
        r4 = sig.t1**sig.s_x * self.u ** ((-sig.s_delta1) % p)
        r5 = sig.t2**sig.s_x * self.v ** ((-sig.s_delta2) % p)
        return c == _hash_challenge(p, message, sig.t1, sig.t2, sig.t3, r1, r2, r3, r4, r5)

    # -- opening ----------------------------------------------------------------------
    def open(self, sig: GroupSignature) -> int | None:
        """Manager-only: recover the signer's index, or None if unknown.

        Decrypts the linear encryption:  A = T3 / (T1^{ξ1} · T2^{ξ2}).
        """
        a = sig.t3 / (sig.t1**self._xi1 * sig.t2**self._xi2)
        for index, member in enumerate(self._members):
            if member.A == a:
                return index
        return None
