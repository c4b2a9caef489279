"""Elementary number theory: primality, modular square roots, CRT.

These routines back parameter generation for the type-A pairing group
(finding the 160-bit group order ``r`` and 512-bit base field prime ``q``
with ``q + 1 = h * r``), hash-to-curve (modular square roots), and Shamir
secret sharing (modular inverses for Lagrange interpolation).
"""

from __future__ import annotations

import secrets

# Deterministic Miller-Rabin witness sets: testing against these bases is a
# *proof* of primality below the stated bounds (Sorenson & Webster 2015).
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)
_DETERMINISTIC_BOUND = 3317044064679887385961981
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def inverse_mod(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises:
        ZeroDivisionError: if ``gcd(a, m) != 1``.
    """
    # pow(a, -1, m) is C-accelerated and raises ValueError on non-invertible
    # input; normalize that to ZeroDivisionError, which callers treat as a
    # division-by-zero in the field.
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ZeroDivisionError(f"{a} is not invertible modulo {m}") from exc


def _miller_rabin_witness(n: int, a: int, d: int, s: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Deterministic for ``n`` below ~3.3e24; probabilistic with error
    probability at most ``4**-rounds`` above that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = _DETERMINISTIC_WITNESSES
    else:
        witnesses = tuple(secrets.randbelow(n - 3) + 2 for _ in range(rounds))
    return not any(_miller_rabin_witness(n, a, d, s) for a in witnesses)


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def random_prime(bits: int, rng=None) -> int:
    """Return a random prime of exactly ``bits`` bits.

    Args:
        bits: bit length; must be >= 2.
        rng: optional ``random.Random``-like object with ``getrandbits`` for
            deterministic generation; defaults to the OS CSPRNG.
    """
    if bits < 2:
        raise ValueError("primes need at least 2 bits")
    getrandbits = rng.getrandbits if rng is not None else secrets.randbits
    while True:
        candidate = getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    a %= n
    result = 1
    while a:
        # (2/n) = −1 exactly for n ≡ 3, 5 (mod 8); strip every factor 2 at once.
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and (n & 7) in (3, 5):
            result = -result
        # Reciprocity flips the sign exactly when a ≡ n ≡ 3 (mod 4).
        if a & n & 2:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """Return a square root of ``a`` modulo prime ``p``, or None if none exists.

    Uses the fast exponentiation shortcut for ``p % 4 == 3`` (the common case
    for type-A pairing parameters, which require it) and Tonelli-Shanks
    otherwise.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if jacobi_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    root = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) == 1.
        i = 0
        probe = t
        while probe != 1:
            probe = probe * probe % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        root = root * b % p
    return root


def crt(residues: list[int], moduli: list[int]) -> int:
    """Chinese remainder theorem for pairwise-coprime moduli.

    Returns the unique ``x`` modulo ``prod(moduli)`` with
    ``x % moduli[i] == residues[i]`` for all i.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have equal length")
    if not moduli:
        raise ValueError("need at least one congruence")
    x, modulus = residues[0] % moduli[0], moduli[0]
    for residue, m in zip(residues[1:], moduli[1:]):
        g, s, _ = egcd(modulus, m)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        diff = (residue - x) % m
        x = (x + modulus * (diff * s % m)) % (modulus * m)
        modulus *= m
    return x
