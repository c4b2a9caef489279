"""Raw Jacobian-coordinate arithmetic for short-Weierstrass curves a = 1.

The pairing backends' hot paths (scalar multiplication, and since PR 5 the
multi-scalar multiplications behind Eq. 6/Eq. 7) cannot afford one modular
inversion per group operation, which is what affine addition costs.  This
module keeps intermediate points in Jacobian coordinates — ``(X, Y, Z)``
representing the affine point ``(X/Z², Y/Z³)``, with ``Z = 0`` marking the
point at infinity — and defers all inversions to the very end, where
:func:`batch_normalize` amortizes them down to **one** field inversion for
any number of points via Montgomery's simultaneous-inversion trick.

Only the curve family the type-A pairing uses is supported:
``y² = x³ + a·x`` with ``a = 1`` (the supersingular curve of
:mod:`repro.pairing.type_a`).  Points and field elements are plain integers;
nothing here touches :class:`~repro.pairing.interface.GroupElement` or the
operation counters — callers account for operations at the API boundary.

The MSM entry point :func:`jac_msm` runs the shared Straus/Pippenger cores
from :mod:`repro.ec.scalar_mul` over these coordinates, with Pippenger's
bucket collapse batch-normalized so the suffix-sum additions work on Z = 1
points.  :func:`jac_scalar_mul` is the single-point multiplication (width-4
NAF), and :func:`jac_sum` folds many affine points with one inversion.
"""

from __future__ import annotations

from repro.ec.scalar_mul import (
    _pippenger_core,
    _straus_core,
    _wnaf_digits,
    pippenger_crossover,
    pippenger_window,
)

#: Canonical point-at-infinity marker (any Z = 0 triple is infinity).
JAC_INFINITY = (0, 0, 0)


def jac_double(x, y, z, q):
    """One Jacobian doubling on ``y² = x³ + a·x`` with ``a = 1``."""
    if y == 0:
        return JAC_INFINITY
    ysq = y * y % q
    s = 4 * x * ysq % q
    z2 = z * z % q
    # m = 3x² + a·z⁴ with a = 1
    m = (3 * x * x + z2 * z2) % q
    nx = (m * m - 2 * s) % q
    ny = (m * (s - nx) - 8 * ysq * ysq) % q
    nz = 2 * y * z % q
    return (nx, ny, nz)


def jac_add(x1, y1, z1, x2, y2, z2, q):
    """General Jacobian addition (falls back to doubling when P1 = P2)."""
    if z1 == 0:
        return (x2, y2, z2)
    if z2 == 0:
        return (x1, y1, z1)
    z1sq = z1 * z1 % q
    z2sq = z2 * z2 % q
    u1 = x1 * z2sq % q
    u2 = x2 * z1sq % q
    s1 = y1 * z2sq * z2 % q
    s2 = y2 * z1sq * z1 % q
    if u1 == u2:
        if s1 != s2:
            return JAC_INFINITY
        return jac_double(x1, y1, z1, q)
    h = (u2 - u1) % q
    r = (s2 - s1) % q
    hsq = h * h % q
    hcu = hsq * h % q
    v = u1 * hsq % q
    nx = (r * r - hcu - 2 * v) % q
    ny = (r * (v - nx) - s1 * hcu) % q
    nz = h * z1 * z2 % q
    return (nx, ny, nz)


def jac_add_mixed(x1, y1, z1, x2, y2, q):
    """Jacobian + affine (Z₂ = 1) addition — saves the Z₂ powers.

    ``(x2, y2)`` must be a finite affine point; the Jacobian operand may be
    infinity.
    """
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = z1 * z1 % q
    u2 = x2 * z1sq % q
    s2 = y2 * z1sq * z1 % q
    if x1 == u2:
        if y1 != s2:
            return JAC_INFINITY
        return jac_double(x1, y1, z1, q)
    h = (u2 - x1) % q
    r = (s2 - y1) % q
    hsq = h * h % q
    hcu = hsq * h % q
    v = x1 * hsq % q
    nx = (r * r - hcu - 2 * v) % q
    ny = (r * (v - nx) - y1 * hcu) % q
    nz = h * z1 % q
    return (nx, ny, nz)


def jac_from_affine(point):
    """Lift an affine ``(x, y)`` tuple (or ``None`` = infinity) to Jacobian."""
    if point is None:
        return JAC_INFINITY
    return (point[0], point[1], 1)


def jac_to_affine(point, q):
    """Drop a single Jacobian point to affine ``(x, y)`` (``None`` if ∞).

    Costs one field inversion; use :func:`batch_normalize` for many points.
    """
    x, y, z = point
    if z == 0:
        return None
    zinv = pow(z, -1, q)
    zinv2 = zinv * zinv % q
    return (x * zinv2 % q, y * zinv2 % q * zinv % q)


def jac_sum(points, q):
    """Sum of affine points (``None`` = infinity) with one field inversion.

    Accumulates with mixed Jacobian + affine additions and normalizes once
    at the end, where an affine fold would pay one inversion per add.

    Returns:
        The affine sum (``None`` if infinity, including for no points).
    """
    x, y, z = JAC_INFINITY
    for pt in points:
        if pt is not None:
            x, y, z = jac_add_mixed(x, y, z, pt[0], pt[1], q)
    return jac_to_affine((x, y, z), q)


#: NAF width of :func:`jac_scalar_mul`: digits are odd and in (−8, 8).
_NAF_WIDTH = 4


def jac_scalar_mul(point, n, q):
    """``n·point`` for an affine point by width-4 NAF (``None`` = infinity).

    Precomputes P, 3P, 5P, 7P (normalized with one shared inversion), then
    runs one doubling per digit plus one mixed add of ± a table entry per
    nonzero digit — about ``bits/5`` adds against ``bits/2`` for binary
    double-and-add.  Correct for any point on the curve, including points
    outside the order-r subgroup: a table entry that is infinity (a point
    of order 3, 5 or 7) is simply skipped.
    """
    if point is None or n == 0:
        return None
    x, y = point
    if n < 0:
        y, n = (-y) % q, -n
    two = jac_double(x, y, 1, q)
    odd = [(x, y, 1)]
    for _ in range((1 << (_NAF_WIDTH - 2)) - 1):
        prev = odd[-1]
        odd.append(jac_add(prev[0], prev[1], prev[2], two[0], two[1], two[2], q))
    plus = batch_normalize(odd, q)
    minus = [None if pt is None else (pt[0], (-pt[1]) % q) for pt in plus]
    ax, ay, az = JAC_INFINITY
    for digit in reversed(_wnaf_digits(n, _NAF_WIDTH)):
        ax, ay, az = jac_double(ax, ay, az, q)
        if digit:
            pt = plus[digit >> 1] if digit > 0 else minus[-digit >> 1]
            if pt is not None:
                ax, ay, az = jac_add_mixed(ax, ay, az, pt[0], pt[1], q)
    return jac_to_affine((ax, ay, az), q)


def batch_inverse(values, q):
    """Invert every element of ``values`` with one modular inversion.

    Montgomery's trick: prefix-multiply, invert the total product once, then
    walk backwards peeling off one inverse per element.

    Args:
        values: nonzero field elements mod ``q``.
        q: the field modulus (prime).

    Returns:
        ``[pow(v, -1, q) for v in values]`` — at the cost of ``3(n−1)``
        multiplications plus a single inversion.

    Raises:
        ZeroDivisionError: if any value is zero mod ``q`` (raised by the
            single ``pow(..., -1, q)`` on the zeroed product).
    """
    if not values:
        return []
    prefix = [0] * len(values)
    acc = 1
    for i, v in enumerate(values):
        acc = acc * v % q
        prefix[i] = acc
    inv_acc = pow(acc, -1, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = prefix[i - 1] * inv_acc % q
        inv_acc = inv_acc * values[i] % q
    out[0] = inv_acc
    return out


def batch_normalize(points, q):
    """Normalize many Jacobian points to affine with one shared inversion.

    Args:
        points: iterable of Jacobian triples (``None`` entries and Z = 0
            triples pass through as ``None``).
        q: the field modulus.

    Returns:
        A list of affine ``(x, y)`` tuples (``None`` for infinity), in input
        order.
    """
    points = list(points)
    zs = [p[2] for p in points if p is not None and p[2] != 0]
    inverses = iter(batch_inverse(zs, q))
    out = []
    for p in points:
        if p is None or p[2] == 0:
            out.append(None)
            continue
        zinv = next(inverses)
        zinv2 = zinv * zinv % q
        out.append((p[0] * zinv2 % q, p[1] * zinv2 % q * zinv % q))
    return out


def _collapse_buckets(buckets, q):
    """Batch-normalize Pippenger buckets to Z = 1 before the suffix sum.

    After the bucket-accumulation phase each non-empty bucket is a Jacobian
    point with an arbitrary Z; one Montgomery inversion flattens them all so
    the ~2·(2^c − 1) suffix-sum additions run as cheap mixed adds.
    """
    affine = batch_normalize([b for b in buckets if b is not None], q)
    flat = iter(affine)
    out = []
    for b in buckets:
        if b is None:
            out.append(None)
            continue
        pt = next(flat)
        out.append(None if pt is None else (pt[0], pt[1], 1))
    return out


def jac_msm(points, scalars, q, neg=None):
    """Multi-scalar multiplication over raw affine points, via Jacobian.

    Dispatches between Straus and Pippenger at the shared
    :func:`repro.ec.scalar_mul.pippenger_crossover` threshold, exactly like
    the :class:`CurvePoint` front end.

    Args:
        points: affine ``(x, y)`` tuples (``None`` = infinity allowed).
        scalars: one integer per point (zero and negative allowed).
        q: field modulus of the curve ``y² = x³ + x``.
        neg: affine negation, defaulting to ``(x, −y mod q)``.

    Returns:
        The affine sum ``Σ scalars[i]·points[i]`` (``None`` if infinity).
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    if neg is None:
        neg = lambda p: (p[0], (-p[1]) % q)
    terms = []
    max_bits = 0
    for pt, sc in zip(points, scalars):
        if pt is None or sc == 0:
            continue
        if sc < 0:
            pt, sc = neg(pt), -sc
        terms.append(((pt[0], pt[1], 1), sc))
        if sc.bit_length() > max_bits:
            max_bits = sc.bit_length()
    if not terms:
        return None

    def add(a, b):
        if b[2] == 1:
            return jac_add_mixed(a[0], a[1], a[2], b[0], b[1], q)
        return jac_add(a[0], a[1], a[2], b[0], b[1], b[2], q)

    def double(a):
        return jac_double(a[0], a[1], a[2], q)

    if len(terms) >= pippenger_crossover():
        window = pippenger_window(len(terms), max_bits)
        result = _pippenger_core(
            terms,
            JAC_INFINITY,
            add,
            double,
            window,
            collapse=lambda buckets: _collapse_buckets(buckets, q),
        )
    else:
        result = _straus_core(terms, JAC_INFINITY, add, double)
    return jac_to_affine(result, q)
