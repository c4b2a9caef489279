"""Hash-to-curve for prime-field short-Weierstrass curves.

The paper's ``H : {0,1}* -> G1`` is instantiated with the classic
try-and-increment method (the construction PBC itself uses for type-A
groups): hash the message with a counter to derive candidate x-coordinates,
take the first x for which x³ + a·x + b is a quadratic residue, and pick
the canonical root.  The result is a point on the *curve*; the caller
clears the cofactor to land in the order-r subgroup.
"""

from __future__ import annotations

import hashlib


def _hash_to_int(message: bytes, counter: int, bits: int, domain: bytes) -> int:
    """Expand (domain, counter, message) into an integer of at most ``bits`` bits."""
    blocks = []
    n_blocks = (bits + 255) // 256
    for block_index in range(n_blocks):
        h = hashlib.sha256()
        h.update(domain)
        h.update(counter.to_bytes(4, "big"))
        h.update(block_index.to_bytes(4, "big"))
        h.update(message)
        blocks.append(h.digest())
    value = int.from_bytes(b"".join(blocks), "big")
    return value >> (n_blocks * 256 - bits)


def hash_to_curve_try_increment(
    message: bytes,
    p: int,
    a: int,
    b: int,
    cofactor: int,
    sqrt_mod,
    domain: bytes = b"repro-h2c-v1",
    max_attempts: int = 256,
) -> tuple[int, int]:
    """Map a message to an affine point on the curve (not yet in G1).

    Returns raw affine coordinates ``(x, y)`` of the curve point.  This
    function never multiplies by ``cofactor``: the caller wraps the point
    in its own type and clears the cofactor with its own group law, which
    keeps this function independent of point representation.

    Raises:
        RuntimeError: if no candidate x works within ``max_attempts``
            (probability ~2^-max_attempts for random oracles).
    """
    del cofactor  # documents the caller's cofactor; clearing is the caller's job
    bits = p.bit_length()
    for counter in range(max_attempts):
        x = _hash_to_int(message, counter, bits, domain) % p
        rhs = (pow(x, 3, p) + a * x + b) % p
        y = sqrt_mod(rhs, p)
        if y is None:
            continue
        # Canonical root: choose the even one so hashing is deterministic.
        if y % 2 == 1:
            y = p - y
        return x, y
    raise RuntimeError("hash_to_curve failed: no quadratic residue found")
