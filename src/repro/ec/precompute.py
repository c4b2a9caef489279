"""Persistent fixed-base precompute tables (build fast, build once).

:class:`~repro.ec.fixed_base.FixedBaseTable` trades one-time table
construction for cheap per-exponentiation lookups — but the generic
constructor pays one group multiplication per stored point (an affine add
with a modular inversion on the type-A backend), and before this module the
CLI rebuilt the u_1..u_k tables on every process start, including once *per
worker* under the parallel fan-out.  Two fixes live here:

* :func:`build_tables_fast` — constructs the same rows in Jacobian
  coordinates and flattens them with **one** Montgomery batch inversion
  (:func:`repro.ec.jacobian.batch_normalize`) instead of one inversion per
  point.
* a JSON-on-disk cache — :func:`load_or_build` keys a cache file by group,
  bases, and table geometry under the CLI state dir, so worker processes
  deserialize coordinates instead of redoing the group math.  Points are
  stored **uncompressed**: loading a compressed point costs a modular
  square root, which at ~600 points per base would rival the rebuild.

Cache integrity is belt-and-braces: a SHA-256 checksum over the payload,
shape validation against the requested geometry, and an on-curve check per
point.  Any failure raises
:class:`PrecomputeCacheError`; :func:`load_or_build` then falls back to a
rebuild — a corrupt cache can cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.ec.fixed_base import FixedBaseTable
from repro.ec.jacobian import (
    batch_normalize,
    jac_add,
    jac_double,
    jac_from_affine,
)
from repro.pairing.interface import GroupElement, PairingGroup

#: Bumped whenever the on-disk layout changes; old files fail validation
#: and get rebuilt.
CACHE_VERSION = 1


class PrecomputeCacheError(Exception):
    """A cache file failed validation (missing, corrupt, or mismatched)."""


def build_tables_fast(
    bases: list[GroupElement], exponent_bits: int, window: int = 4
) -> list[FixedBaseTable]:
    """Precompute tables for fixed bases with batch-affine normalization.

    Produces the same rows as the generic
    :class:`~repro.ec.fixed_base.FixedBaseTable` constructor, but builds
    each row in Jacobian coordinates and normalizes *all* points of a
    base's table with a single shared field inversion.  It runs the same
    group operations as that constructor, so it tallies the same
    ``mul_g1``.  An identity base gets the generic constructor's table.

    Args:
        bases: the fixed bases (e.g. the u_1..u_k system parameters).
        exponent_bits: maximum exponent size the tables must cover.
        window: radix-2^w window width.

    Returns:
        One :class:`FixedBaseTable` per base, in input order.

    >>> import random
    >>> from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
    >>> group = TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])
    >>> base = group.random_g1(random.Random(5))
    >>> (table,) = build_tables_fast([base], 64)
    >>> table.power(999) == base ** 999
    True
    """
    if not bases:
        return []
    group = bases[0].group
    q = group.q
    tables = []
    digits = (exponent_bits + window - 1) // window
    radix = 1 << window
    for base in bases:
        if base.point is None:
            tables.append(FixedBaseTable(base, exponent_bits, window))
            continue
        # Row j's entries are d · (2^(w·j) · P) for d = 1..radix−1; build
        # them all in Jacobian and defer every inversion to one
        # batch_normalize over the whole table.
        jac_rows = []
        running = jac_from_affine(base.point)
        for _ in range(digits):
            row = [None] * radix
            row[1] = running
            for d in range(2, radix):
                prev = row[d - 1]
                row[d] = jac_add(
                    prev[0], prev[1], prev[2],
                    running[0], running[1], running[2], q,
                )
            jac_rows.append(row)
            for _ in range(window):
                running = jac_double(running[0], running[1], running[2], q)
        flat = [pt for row in jac_rows for pt in row[1:]]
        affine = batch_normalize(flat, q)
        it = iter(affine)
        rows = []
        for _ in range(digits):
            row = [None] * radix
            for d in range(1, radix):
                row[d] = GroupElement(group, next(it))
            rows.append(row)
        tables.append(FixedBaseTable.from_rows(base, exponent_bits, window, rows))
        if group.counter is not None:
            # The same group operations as the generic constructor, so the
            # same tally: radix − 2 adds and ``window`` doublings per row.
            group.counter.mul_g1 += digits * (radix - 2 + window)
    return tables


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

def cache_key(
    group: PairingGroup, bases: list[GroupElement], exponent_bits: int, window: int
) -> str:
    """Content-addressed key for one (group, bases, geometry) combination."""
    h = hashlib.sha256()
    h.update(b"repro-precompute-v%d" % CACHE_VERSION)
    h.update(group.order.to_bytes((group.order.bit_length() + 7) // 8, "big"))
    for base in bases:
        h.update(base.to_bytes())
    h.update(exponent_bits.to_bytes(4, "big"))
    h.update(window.to_bytes(2, "big"))
    return h.hexdigest()[:32]


def cache_path(cache_dir: str | os.PathLike, key: str) -> Path:
    return Path(cache_dir) / f"fixed_base_{key}.json"


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_tables(
    path: str | os.PathLike,
    group: PairingGroup,
    tables: list[FixedBaseTable],
    exponent_bits: int,
) -> Path:
    """Serialize fixed-base tables to ``path`` (uncompressed coordinates)."""
    path = Path(path)
    serialized = []
    for table in tables:
        rows = []
        for row in table._table:
            entries = []
            for el in row[1:]:
                pt = el.point
                entries.append(None if pt is None else [pt[0], pt[1]])
            rows.append(entries)
        serialized.append(
            {
                "base": table.base.to_bytes().hex(),
                "window": table.window,
                "rows": rows,
            }
        )
    payload = {
        "version": CACHE_VERSION,
        "kind": "fixed-base-tables",
        "order": group.order,
        "exponent_bits": exponent_bits,
        "tables": serialized,
    }
    document = dict(payload, checksum=_payload_checksum(payload))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document))
    os.replace(tmp, path)
    return path


def load_tables(
    path: str | os.PathLike,
    group: PairingGroup,
    bases: list[GroupElement],
    exponent_bits: int,
    window: int,
) -> list[FixedBaseTable]:
    """Deserialize tables from ``path``, validating them against the request.

    Validation layers: JSON well-formedness, checksum, version/geometry
    match, base identity match, and an on-curve check of every stored
    point.  Any failure raises so callers rebuild instead of trusting a
    damaged file.

    Raises:
        PrecomputeCacheError: on any validation failure.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PrecomputeCacheError(f"unreadable cache file: {exc}") from exc
    if not isinstance(document, dict):
        raise PrecomputeCacheError("cache document is not an object")
    checksum = document.pop("checksum", None)
    if checksum != _payload_checksum(document):
        raise PrecomputeCacheError("cache checksum mismatch")
    if document.get("version") != CACHE_VERSION:
        raise PrecomputeCacheError("cache version mismatch")
    if document.get("kind") != "fixed-base-tables":
        raise PrecomputeCacheError("not a fixed-base table cache")
    if document.get("order") != group.order:
        raise PrecomputeCacheError("cache built for a different group")
    if document.get("exponent_bits") != exponent_bits:
        raise PrecomputeCacheError("cache built for different exponent size")
    entries = document.get("tables")
    if not isinstance(entries, list) or len(entries) != len(bases):
        raise PrecomputeCacheError("cache base count mismatch")
    q = group.q
    digits = (exponent_bits + window - 1) // window
    radix = 1 << window
    tables = []
    for base, entry in zip(bases, entries):
        if entry.get("window") != window:
            raise PrecomputeCacheError("cache built for a different window")
        if entry.get("base") != base.to_bytes().hex():
            raise PrecomputeCacheError("cache built for different bases")
        raw_rows = entry.get("rows")
        if not isinstance(raw_rows, list) or len(raw_rows) != digits:
            raise PrecomputeCacheError("cache row count mismatch")
        rows = []
        for raw_row in raw_rows:
            if not isinstance(raw_row, list) or len(raw_row) != radix - 1:
                raise PrecomputeCacheError("cache row width mismatch")
            row = [None]
            for raw_pt in raw_row:
                row.append(GroupElement(group, _validate_point(raw_pt, q)))
            rows.append(row)
        tables.append(FixedBaseTable.from_rows(base, exponent_bits, window, rows))
    return tables


def _validate_point(raw, q):
    """Check one stored point: shape, range, and curve membership."""
    if raw is None:
        return None
    if not (isinstance(raw, list) and len(raw) == 2):
        raise PrecomputeCacheError("malformed stored point")
    x, y = raw
    if not (isinstance(x, int) and isinstance(y, int)):
        raise PrecomputeCacheError("non-integer stored coordinate")
    if not (0 <= x < q and 0 <= y < q):
        raise PrecomputeCacheError("stored coordinate out of range")
    if (y * y - (x * x * x + x)) % q != 0:
        raise PrecomputeCacheError("stored point is not on the curve")
    return (x, y)


def load_or_build(
    cache_dir: str | os.PathLike | None,
    group: PairingGroup,
    bases: list[GroupElement],
    exponent_bits: int,
    window: int = 4,
) -> tuple[list[FixedBaseTable], str]:
    """Fetch fixed-base tables from the cache, rebuilding on any miss.

    The one-call API the CLI and worker processes use.  With
    ``cache_dir=None`` it just builds (fast path) and reports
    ``"uncached"``.

    Returns:
        ``(tables, status)`` with status one of ``"hit"`` (loaded from
        disk), ``"rebuilt"`` (cache existed but failed validation),
        ``"miss"`` (no cache file; built and saved), or ``"uncached"``
        (no cache dir).
    """
    if cache_dir is None:
        return build_tables_fast(bases, exponent_bits, window), "uncached"
    key = cache_key(group, bases, exponent_bits, window)
    path = cache_path(cache_dir, key)
    existed = path.exists()
    if existed:
        try:
            return load_tables(path, group, bases, exponent_bits, window), "hit"
        except PrecomputeCacheError:
            pass
    tables = build_tables_fast(bases, exponent_bits, window)
    save_tables(path, group, tables, exponent_bits)
    return tables, "rebuilt" if existed else "miss"
