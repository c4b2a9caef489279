"""Deterministic hot-path profiler over tracer spans.

Answers "where did ProofGen's 40 ms go?" without a sampling profiler:
every tracer span already carries the exact EC-primitive counts performed
while it was open (inclusive of children), so attributing wall time is
arithmetic — measure each primitive's unit cost once at startup
(:func:`calibrate_primitive_costs`), multiply by the *self* counts of
each span (inclusive minus children), and whatever remains is genuinely
non-EC time (serialization, hashing of payloads, Python overhead).

Because both inputs are deterministic for a seeded run — the counts
exactly, the unit costs up to measurement noise of a tight timing loop —
two profiles of the same run agree on structure and attribution shares,
unlike a sampling profiler whose hit counts vary run to run.

The renderer prints a flamegraph-style indented tree: inclusive bar,
inclusive/self milliseconds, and the per-primitive breakdown of each
span's self time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.calibrate import time_pairing
from repro.obs.tracer import OP_KEYS, Span

#: Operation-counter keys → the calibrated primitive that explains them.
#: ``exp_g1_skipped`` costs nothing by construction.
#: ``exp_g1_msm`` is the amortized per-term cost inside a multi-scalar
#: multiplication — far below a standalone exponentiation once Straus or
#: Pippenger shares the doubling ladder across terms.
_PRIMITIVE_FOR_OP = {
    "exp_g1": "exp_g1",
    "exp_g1_fixed_base": "exp_g1_fixed_base",
    "exp_g1_msm": "exp_g1_msm",
    "pairings": "pairing",
    "hash_to_g1": "hash_to_g1",
    "mul_g1": "mul_g1",
}


@dataclass(frozen=True)
class PrimitiveCosts:
    """Seconds per EC primitive, measured on this machine at startup."""

    exp_g1: float
    exp_g1_fixed_base: float
    pairing: float
    hash_to_g1: float
    mul_g1: float
    exp_g1_msm: float = 0.0

    def unit_cost(self, op_key: str) -> float:
        primitive = _PRIMITIVE_FOR_OP.get(op_key)
        return getattr(self, primitive) if primitive is not None else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "exp_g1": self.exp_g1,
            "exp_g1_fixed_base": self.exp_g1_fixed_base,
            "exp_g1_msm": self.exp_g1_msm,
            "pairing": self.pairing,
            "hash_to_g1": self.hash_to_g1,
            "mul_g1": self.mul_g1,
        }


def _time_loop(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def calibrate_primitive_costs(group, repeats: int = 8, rng=None) -> PrimitiveCosts:
    """Measure each primitive's unit cost on ``group``.

    The group's operation counter is detached for the duration, so the
    calibration loop never pollutes the run being profiled — a profile
    attributes exactly the operations the traced phases performed.
    """
    from repro.ec.fixed_base import FixedBaseTable

    previous = group.counter
    group.counter = None
    try:
        g = group.random_g1(rng)
        h = group.random_g1(rng)
        scalar = group.random_nonzero_scalar(rng)
        key = group.random_g1(rng)
        exp_g1 = _time_loop(lambda: g**scalar, repeats)
        table = FixedBaseTable(g, group.order.bit_length())
        exp_fixed = _time_loop(lambda: table.power(scalar), repeats)
        pairing = time_pairing(group, g, key, max(repeats // 2, 2))
        tick = [0]

        def _hash():
            tick[0] += 1
            group.hash_to_g1(b"profile-calibrate-%d" % tick[0])

        hash_g1 = _time_loop(_hash, repeats)
        mul_g1 = _time_loop(lambda: g * h, repeats * 10)
        msm_points = [g, h] * 16
        msm_scalars = [group.random_nonzero_scalar(rng) for _ in msm_points]
        exp_msm = _time_loop(
            lambda: group.multi_exp(msm_points, msm_scalars), max(repeats // 4, 1)
        ) / len(msm_points)
    finally:
        group.counter = previous
    return PrimitiveCosts(
        exp_g1=exp_g1,
        exp_g1_fixed_base=exp_fixed,
        pairing=pairing,
        hash_to_g1=hash_g1,
        mul_g1=mul_g1,
        exp_g1_msm=exp_msm,
    )


@dataclass
class ProfileNode:
    """One span in the profile tree with self-time attribution."""

    span: Span
    children: list["ProfileNode"] = field(default_factory=list)
    self_s: float = 0.0
    self_ops: dict[str, int] = field(default_factory=dict)
    attributed: dict[str, float] = field(default_factory=dict)  # op key -> s

    @property
    def inclusive_s(self) -> float:
        return self.span.duration

    @property
    def attributed_s(self) -> float:
        return sum(self.attributed.values())

    @property
    def unattributed_s(self) -> float:
        return max(self.self_s - self.attributed_s, 0.0)


def build_profile(tracer, costs: PrimitiveCosts) -> list[ProfileNode]:
    """The span forest with per-node self time, self ops, and attribution.

    Inclusive op counts and durations come straight off the spans; each
    node's *self* values subtract its direct children, clamped at zero
    (virtual-time spans can have zero-width children).
    """
    spans = tracer.spans if hasattr(tracer, "spans") else list(tracer)
    nodes: dict[int, ProfileNode] = {}
    roots: list[ProfileNode] = []
    for span in spans:
        nodes[span.span_id] = ProfileNode(span=span)
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: (child.span.start, child.span.span_id))
        child_time = sum(child.span.duration for child in node.children)
        node.self_s = max(node.span.duration - child_time, 0.0)
        own = node.span.op_counts()
        for child in node.children:
            for key, count in child.span.op_counts().items():
                own[key] = own.get(key, 0) - count
        node.self_ops = {k: v for k, v in own.items() if v > 0}
        node.attributed = {
            key: count * costs.unit_cost(key)
            for key, count in node.self_ops.items()
            if costs.unit_cost(key) > 0.0
        }
    roots.sort(key=lambda node: (node.span.start, node.span.span_id))
    return roots


def _format_attribution(node: ProfileNode) -> str:
    parts = []
    for key in OP_KEYS:
        seconds = node.attributed.get(key)
        if seconds is None:
            continue
        parts.append(f"{key} {node.self_ops[key]}x={seconds * 1000:.2f}ms")
    skipped = node.self_ops.get("exp_g1_skipped")
    if skipped:
        parts.append(f"exp_g1_skipped {skipped}x=0ms")
    if node.self_s > 0:
        parts.append(f"other {node.unattributed_s * 1000:.2f}ms")
    return "; ".join(parts)


def render_profile(tracer_or_roots, costs: PrimitiveCosts | None = None,
                   bar_width: int = 12) -> str:
    """Flamegraph-style text tree of a trace's wall time.

    Pass a tracer plus calibrated costs, or a prebuilt node forest.  The
    bar visualizes each span's inclusive share of the total root time.
    """
    if costs is not None and hasattr(tracer_or_roots, "spans"):
        roots = build_profile(tracer_or_roots, costs)
    else:
        roots = list(tracer_or_roots)
    total = sum(node.span.duration for node in roots)
    header = (
        f"{'span':<42} {'bar':<{bar_width}} {'incl(ms)':>9} {'self(ms)':>9}  "
        "self-time attribution"
    )
    lines = [header, "-" * len(header)]

    def walk(node: ProfileNode, depth: int) -> None:
        share = node.span.duration / total if total > 0 else 0.0
        bar = "#" * max(int(round(share * bar_width)), 1 if share > 0 else 0)
        label = ("  " * depth + node.span.name)[:42]
        lines.append(
            f"{label:<42} {bar:<{bar_width}} {node.span.duration * 1000:>9.2f} "
            f"{node.self_s * 1000:>9.2f}  {_format_attribution(node)}"
        )
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    if total > 0:
        lines.append(
            f"total {total * 1000:.2f}ms; 'other' = self time the EC unit "
            "costs do not explain (serialization, hashing, Python overhead)"
        )
    return "\n".join(lines)
