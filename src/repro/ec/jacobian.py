"""Raw point arithmetic on the type-A curve ``y² = x³ + x``: the one G1 library.

Every G1 operation of the type-A backend runs here: scalar multiplication,
the multi-scalar multiplications behind Eq. 6/Eq. 7, the fixed-base table
sums and the affine group law.  A modular inversion per group operation,
which is what a lone affine addition costs, is too slow for the hot paths.
So sequential chains (doubling chains, Straus) stay in Jacobian
coordinates — ``(X, Y, Z)`` representing the affine point ``(X/Z², Y/Z³)``,
with ``Z = 0`` marking the point at infinity — and defer their inversion to
the end, where :func:`batch_normalize` amortizes it over any number of
points via Montgomery's simultaneous-inversion trick.  Many independent
additions instead run affinely and share one inversion per step:
:func:`batch_affine_sums` sums lists by pairwise tree levels, at about 6
field multiplications per add against about 11 for a mixed Jacobian add.

Only the curve family the type-A pairing uses is supported:
``y² = x³ + a·x`` with ``a = 1`` (the supersingular curve of
:mod:`repro.pairing.type_a`).  Points and field elements are plain integers;
nothing here touches :class:`~repro.pairing.interface.GroupElement` or the
operation counters — callers account for operations at the API boundary.

:func:`jac_msm` picks interleaved w-NAF Straus (:func:`jac_straus`: every
term's odd multiples P, 3P, 5P, 7P normalized together, one shared doubling
chain, one mixed add per nonzero digit) below :data:`PIPPENGER_THRESHOLD`
terms and Pippenger bucketing (:func:`jac_pippenger`: signed window
digits, each window's buckets summed by one :func:`batch_affine_sums`
call, the suffix sums of all windows run side by side) at or above it.
The threshold and the Pippenger window come from one cost model in field
multiplications.  The same tree kernel sums the fixed-base table entries.
:func:`jac_scalar_mul` is one-term Straus, and :func:`affine_add` is the
one-inversion affine add.
"""

from __future__ import annotations

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


def affine_add(p1, p2, q):
    """Affine sum of two points (``None`` = infinity), one field inversion."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        slope = (3 * x1 * x1 + 1) * pow(2 * y1, -1, q) % q
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (slope * slope - x1 - x2) % q
    y3 = (slope * (x1 - x3) - y1) % q
    return (x3, y3)


def _wnaf_digits(scalar, width):
    """Windowed non-adjacent form of a non-negative scalar, low digit first."""
    digits = []
    power = 1 << width
    half = 1 << (width - 1)
    while scalar:
        if scalar & 1:
            digit = scalar % power
            if digit >= half:
                digit -= power
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


#: NAF width of :func:`jac_scalar_mul` and Straus: digits are odd and in
#: (−8, 8), so every point needs the odd multiples P, 3P, 5P, 7P.
_NAF_WIDTH = 4


def _odd_multiples(points, q):
    """The odd multiples P, 3P, …, (2^(w−1) − 1)·P of every affine point
    (w = :data:`_NAF_WIDTH`), built in Jacobian and normalized for all
    points with one :func:`batch_normalize`.

    A multiple that is infinity (P of order 3, 5 or 7) comes back as
    ``None``; (0, 0) gives ``(0, 0)`` for every odd multiple.
    """
    jacobians = []
    for x, y in points:
        two = jac_double(x, y, 1, q)
        prev = (x, y, 1)
        jacobians.append(prev)
        for _ in range((1 << (_NAF_WIDTH - 2)) - 1):
            prev = jac_add(prev[0], prev[1], prev[2], two[0], two[1], two[2], q)
            jacobians.append(prev)
    flat = batch_normalize(jacobians, q)
    size = 1 << (_NAF_WIDTH - 2)
    return [flat[i:i + size] for i in range(0, len(flat), size)]


def jac_scalar_mul(point, n, q):
    """``n·point`` for an affine point by width-4 NAF (``None`` = infinity).

    The one-term case of :func:`jac_straus`: P, 3P, 5P, 7P
    (:func:`_odd_multiples`), then one doubling per digit plus one mixed
    add of ± a table entry per nonzero digit — about ``bits/5`` adds
    against ``bits/2`` for binary double-and-add.  Correct for any point on
    the curve, including points outside the order-r subgroup: a table
    entry that is infinity (a point of order 3, 5 or 7) is simply skipped.
    """
    return jac_straus([point], [n], q)


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


def _add_pairs(lefts, rights, q):
    """Affine ``lefts[i] + rights[i]`` for every ``i``, one shared inversion.

    Operands are affine ``(x, y)`` tuples or ``None`` (infinity).  The slope
    denominators (``x2 − x1`` for an add, ``2·y`` for a doubling) are all
    inverted by one :func:`batch_inverse`; a sum that is infinity (``P +
    (−P)``, or a 2-torsion point doubled) needs no slope.
    """
    denominators = []
    for p1, p2 in zip(lefts, rights):
        if p1 is not None and p2 is not None:
            if p1[0] != p2[0]:
                denominators.append(p2[0] - p1[0])
            elif p1[1] == p2[1] and p1[1]:
                denominators.append(2 * p1[1])
    inverses = iter(batch_inverse(denominators, q))
    out = []
    for p1, p2 in zip(lefts, rights):
        if p1 is None or p2 is None:
            out.append(p2 if p1 is None else p1)
            continue
        (x1, y1), (x2, y2) = p1, p2
        if x1 != x2:
            slope = (y2 - y1) * next(inverses) % q
        elif y1 == y2 and y1:
            slope = (3 * x1 * x1 + 1) * next(inverses) % q
        else:
            out.append(None)
            continue
        x3 = (slope * slope - x1 - x2) % q
        out.append((x3, (slope * (x1 - x3) - y1) % q))
    return out


def batch_affine_sums(lists, q):
    """The affine sum of every list of affine points, by pairwise tree levels.

    Each level adds neighbouring points pairwise in every list at once,
    and all the slopes of that level share one Montgomery inversion
    (:func:`_add_pairs`): an affine add then costs about 6 field
    multiplications, against about 11 for a mixed Jacobian add.  A list
    of ``n`` points takes ``ceil(log2(n))`` levels.  Any points on the
    curve are allowed: ``P + P`` doubles, ``P + (−P)`` and ``(0, 0) +
    (0, 0)`` give infinity, and ``None`` entries are skipped.

    Args:
        lists: iterables of affine ``(x, y)`` tuples (``None`` = infinity).
        q: the field modulus.

    Returns:
        One affine sum per list, in input order (``None`` for infinity,
        including for an empty list).
    """
    levels = [[pt for pt in points if pt is not None] for points in lists]
    while any(len(points) > 1 for points in levels):
        sums = iter(_add_pairs(
            [pt for points in levels for pt in points[:-1:2]],
            [pt for points in levels for pt in points[1::2]], q))
        # An odd list carries its last point up to the next level.
        levels = [[next(sums) for _ in range(len(points) >> 1)]
                  + points[len(points) & ~1:] for points in levels]
    return [points[0] if points else None for points in levels]


# ---------------------------------------------------------------------------
# Multi-scalar multiplication: Straus below the threshold, Pippenger at/above
# ---------------------------------------------------------------------------

#: Scalar size the dispatch threshold is modeled at: the paper's |r| = 160.
_MODEL_BITS = 160

# The dispatch model prices each kernel in field multiplications (a
# squaring counts as one), counted in the kernels above.
_DOUBLE_MULS = 9  # jac_double
_ADD_MULS = 16  # jac_add, which builds the odd multiples
_MIXED_ADD_MULS = 11  # jac_add_mixed
_NORMALIZE_MULS = 7  # per point of batch_normalize: 3 in batch_inverse, 4 to scale
_AFFINE_ADD_MULS = 6  # per add of _add_pairs: 3 in batch_inverse, 3 for the sum
#: One ``pow(z, -1, q)`` in multiplications: 37–46 measured with CPython
#: on x86-64 at the paper's 512-bit q.  Every batch-affine step shares one.
_INVERSION_MULS = 40


def _pippenger_mul_estimate(n_terms, bits, window):
    # Signed digits: bits // window + 1 windows (the top one takes the
    # carry), 2^(window−1) buckets each.  Per window the bucket tree adds
    # about n_terms points affinely, with one shared inversion for each of
    # its ~log2(n_terms / 2^(window−1)) + 1 levels; the suffix sums take
    # 2^window affine steps, each run for all windows with one inversion;
    # the Horner pass doubles bits times and adds one sum per window.
    windows = bits // window + 1
    levels = max(1, (n_terms >> (window - 1)).bit_length())
    return (windows * (n_terms * _AFFINE_ADD_MULS + levels * _INVERSION_MULS)
            + (1 << window) * (windows * _AFFINE_ADD_MULS + _INVERSION_MULS)
            + bits * _DOUBLE_MULS + windows * _MIXED_ADD_MULS)


def _straus_mul_estimate(n_terms, bits):
    # One shared chain of bits doublings.  Per term: its odd multiples (a
    # doubling, 2^(w−2) − 1 adds, 2^(w−2) normalized points) and one
    # mixed add per nonzero w-NAF digit (density 1/(w+1) on average).
    odd = 1 << (_NAF_WIDTH - 2)
    per_term = (_DOUBLE_MULS + (odd - 1) * _ADD_MULS + odd * _NORMALIZE_MULS
                + bits * _MIXED_ADD_MULS // (_NAF_WIDTH + 1))
    return bits * _DOUBLE_MULS + n_terms * per_term


def pippenger_window(n_terms, bits=_MODEL_BITS):
    """The bucket width minimizing the modeled Pippenger cost for ``n_terms``.

    Per signed window of width ``c`` Pippenger pays ~``n`` affine bucket
    adds plus ``2·2^(c−1)`` suffix-sum adds, and one shared inversion per
    tree level and per suffix step; there are ``bits // c + 1`` windows
    plus the shared ``bits`` doublings.  The optimum grows like
    ``log2(n) − log2(log2(n))``; this just evaluates the model directly.
    """
    if n_terms < 1:
        return 1
    best_c, best_cost = 1, None
    for c in range(1, max(2, bits.bit_length() + 8)):
        cost = _pippenger_mul_estimate(n_terms, bits, c)
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _modeled_threshold(bits):
    """Smallest term count where the Pippenger model beats Straus."""
    n = 2
    while (_pippenger_mul_estimate(n, bits, pippenger_window(n, bits))
           >= _straus_mul_estimate(n, bits)):
        n += 1
    return n


#: Nonzero-term count at or above which :func:`jac_msm` runs Pippenger
#: (45 at 160 bits; measured wall times tie from about 32 to 56 terms).
PIPPENGER_THRESHOLD = _modeled_threshold(_MODEL_BITS)


def _msm_terms(points, scalars, q):
    """``(x, y, s)`` per term with ``s > 0``: identity and zero terms are
    dropped, negative scalars folded into the negated point."""
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    terms = []
    for pt, sc in zip(points, scalars):
        if pt is None or sc == 0:
            continue
        x, y = pt
        if sc < 0:
            y, sc = (-y) % q, -sc
        terms.append((x, y, sc))
    return terms


def _straus(terms, q):
    """Interleaved width-4 NAF Straus: one shared doubling chain over the
    longest digit string, one mixed add of ± an odd multiple per nonzero
    digit of every term.

    The adds are scheduled per digit position first, so the chain itself
    only walks a list; an odd multiple that is infinity adds nothing.
    """
    if not terms:
        return None
    tables = _odd_multiples([(x, y) for x, y, _ in terms], q)
    rows = [_wnaf_digits(sc, _NAF_WIDTH) for _, _, sc in terms]
    schedule = [[] for _ in range(max(map(len, rows)))]
    for row, plus in zip(rows, tables):
        for i, digit in enumerate(row):
            if digit:
                pt = plus[abs(digit) >> 1]
                if pt is not None:
                    schedule[i].append(pt if digit > 0 else (pt[0], (-pt[1]) % q))
    rx, ry, rz = JAC_INFINITY
    for adds in reversed(schedule):
        rx, ry, rz = jac_double(rx, ry, rz, q)
        for x, y in adds:
            rx, ry, rz = jac_add_mixed(rx, ry, rz, x, y, q)
    return jac_to_affine((rx, ry, rz), q)


def _signed_digit(scalar, window):
    """The low digit of ``scalar ≥ 0`` in (−2^(window−1), 2^(window−1)],
    and the scalar left for the windows above it.

    A digit above the half range borrows from the next window, so the
    top window may carry one more digit; window 1 is plain binary.
    """
    digit = scalar & ((1 << window) - 1)
    if digit > 1 << (window - 1):
        digit -= 1 << window
    return digit, (scalar - digit) >> window


def _pippenger(terms, q, window=None):
    """Pippenger bucketing over signed ``window``-bit scalar digits.

    Per digit position each term goes into bucket ``|d|`` (its point
    negated for a negative digit), and the ``2^(window−1)`` buckets are
    summed affinely by one :func:`batch_affine_sums` call; one window's
    digits and buckets are live at a time.  Every window's
    ``Σ d·bucket[d]`` then comes from a running suffix sum,
    ``2·2^(window−1)`` affine adds run for all windows side by side, so
    each step shares one inversion.  A Jacobian Horner pass with
    ``window`` doublings per window combines the window sums.
    """
    if not terms:
        return None
    if window is None:
        bits = max(sc.bit_length() for _, _, sc in terms)
        window = pippenger_window(len(terms), bits)
    if window < 1:
        raise ValueError("window must be >= 1")
    rest = [sc for _, _, sc in terms]
    signed = [((x, y), (x, (-y) % q)) for x, y, _ in terms]
    half = 1 << (window - 1)
    bucket_sums = []
    while any(rest):
        buckets = [[] for _ in range(half)]
        for i, (plus, minus) in enumerate(signed):
            digit, rest[i] = _signed_digit(rest[i], window)
            if digit > 0:
                buckets[digit - 1].append(plus)
            elif digit:
                buckets[-digit - 1].append(minus)
        bucket_sums.append(batch_affine_sums(buckets, q))
    running = acc = [None] * len(bucket_sums)
    for d in range(half - 1, -1, -1):
        running = _add_pairs(running, [sums[d] for sums in bucket_sums], q)
        acc = _add_pairs(acc, running, q)
    rx, ry, rz = JAC_INFINITY
    for window_sum in reversed(acc):
        if rz:
            for _ in range(window):
                rx, ry, rz = jac_double(rx, ry, rz, q)
        if window_sum is not None:
            rx, ry, rz = jac_add_mixed(rx, ry, rz, *window_sum, q)
    return jac_to_affine((rx, ry, rz), q)


def jac_straus(points, scalars, q):
    """``Σ scalars[i]·points[i]`` by w-NAF Straus, whatever the size.

    Same arguments and result as :func:`jac_msm`.
    """
    return _straus(_msm_terms(points, scalars, q), q)


def jac_pippenger(points, scalars, q, window=None):
    """``Σ scalars[i]·points[i]`` by Pippenger bucketing, whatever the size.

    Same arguments and result as :func:`jac_msm`; ``window`` is the bucket
    width in scalar bits (:func:`pippenger_window` when omitted).

    Raises:
        ValueError: on a length mismatch or a window below 1.
    """
    return _pippenger(_msm_terms(points, scalars, q), q, window)


def jac_msm(points, scalars, q):
    """Multi-scalar multiplication over raw affine points, via Jacobian.

    Straus below :data:`PIPPENGER_THRESHOLD` nonzero terms, Pippenger at or
    above it.  Correct for any points on ``y² = x³ + x``, also outside the
    order-r subgroup (raw try-and-increment points, (0, 0)).

    Args:
        points: affine ``(x, y)`` tuples (``None`` = infinity allowed).
        scalars: one integer per point (zero and negative allowed).
        q: field modulus of the curve ``y² = x³ + x``.

    Returns:
        The affine sum ``Σ scalars[i]·points[i]`` (``None`` if infinity,
        including for no terms).

    Raises:
        ValueError: if ``points`` and ``scalars`` differ in length.
    """
    terms = _msm_terms(points, scalars, q)
    if len(terms) >= PIPPENGER_THRESHOLD:
        return _pippenger(terms, q)
    return _straus(terms, q)
