"""Measured hot-path profiler over tracer spans.

Answers "where did ProofGen's 40 ms go?" without a sampling profiler:
the type-A group times each of its kernels (hash onto the curve, scalar
multiplication, MSM, fixed-base sums, Miller loop, final exponentiation,
point decoding) into the attached operation counter, and every tracer
span records how many kernel seconds passed while it was open (inclusive
of children, like its op counts and duration).  A span's *self* values
subtract its children's, so each span's self time splits into measured
kernel seconds plus ``other``: the self time no kernel covers
(serialization, hashing of payloads, Python overhead, and kernels that
ran in worker processes).  The kernels never nest and run inside the
span, so ``other`` is not negative.

The renderer prints a flamegraph-style indented tree: inclusive bar,
inclusive/self milliseconds, the per-kernel split of each span's self
time, and the span's self op counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import OP_KEYS, Span

#: Self kernel seconds smaller than this (a nanosecond, below the clock's
#: resolution) are float noise from subtracting the children's sums.
_NOISE_S = 1e-9


@dataclass
class ProfileNode:
    """One span in the profile tree with its measured self-time split."""

    span: Span
    children: list["ProfileNode"] = field(default_factory=list)
    self_s: float = 0.0
    self_ops: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)  # kernel -> self s

    @property
    def inclusive_s(self) -> float:
        return self.span.duration

    @property
    def other_s(self) -> float:
        return self.self_s - sum(self.layers.values())


def build_profile(tracer) -> list[ProfileNode]:
    """The span forest with per-node self time, self ops and self layers.

    Inclusive op counts, kernel seconds and durations come straight off
    the spans; each node's *self* values subtract its direct children.
    Self time is clamped at zero (virtual-time spans can have zero-width
    children).
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
        layers = dict(node.span.layers)
        for child in node.children:
            for key, count in child.span.op_counts().items():
                own[key] = own.get(key, 0) - count
            for kernel, seconds in child.span.layers.items():
                layers[kernel] = layers.get(kernel, 0.0) - seconds
        node.self_ops = {k: v for k, v in own.items() if v > 0}
        node.layers = {k: v for k, v in layers.items() if abs(v) > _NOISE_S}
    roots.sort(key=lambda node: (node.span.start, node.span.span_id))
    return roots


def _format_attribution(node: ProfileNode) -> str:
    parts = [
        f"{kernel} {seconds * 1000:.2f}ms"
        for kernel, seconds in sorted(node.layers.items(), key=lambda kv: -kv[1])
    ]
    if node.self_s > 0:
        parts.append(f"other {node.other_s * 1000:.2f}ms")
    text = "; ".join(parts)
    ops = ", ".join(f"{key} {node.self_ops[key]}" for key in OP_KEYS if key in node.self_ops)
    return f"{text}  [{ops}]" if ops else text


def render_profile(tracer_or_roots, bar_width: int = 12) -> str:
    """Flamegraph-style text tree of a trace's wall time.

    Pass a tracer or a prebuilt node forest.  The bar visualizes each
    span's inclusive share of the total root time.
    """
    if hasattr(tracer_or_roots, "spans"):
        roots = build_profile(tracer_or_roots)
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
            f"total {total * 1000:.2f}ms; 'other' = self time outside the timed "
            "group kernels (serialization, hashing, Python overhead, worker processes)"
        )
    return "\n".join(lines)
