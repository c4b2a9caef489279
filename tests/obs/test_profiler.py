"""Measured profiler: self-time math over kernel seconds, and a real run."""

import json
import random

from repro.core import SemPdpSystem
from repro.obs import Observability, Tracer, trace_to_jsonl
from repro.obs.profiler import build_profile, render_profile
from repro.obs.tracer import OP_KEYS
from repro.pairing import toy_group
from repro.pairing.interface import OperationCounter


class FakeClock:
    """Advances one second per call — exact, repeatable span durations."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


def _traced_pair():
    """outer(3s, self 2s, 3 exp, msm 0.5s) wrapping
    inner(1s, 2 exp + 1 pair, msm 0.25s + miller 0.5s)."""
    counter = OperationCounter()
    tracer = Tracer(clock=FakeClock(), counter=counter)
    kernels = counter.kernel_s
    with tracer.span("outer"):
        counter.exp_g1 += 3
        kernels["msm"] = 0.5
        with tracer.span("inner"):
            counter.exp_g1 += 2
            counter.pairings += 1
            kernels["msm"] += 0.25
            kernels["miller"] = 0.5
    return tracer


def _flatten(roots):
    for node in roots:
        yield node
        yield from _flatten(node.children)


class TestBuildProfile:
    def test_self_time_and_ops_subtract_children(self):
        (outer,) = build_profile(_traced_pair())
        (inner,) = outer.children
        assert outer.inclusive_s == 3.0
        assert outer.self_s == 2.0
        assert outer.self_ops == {"exp_g1": 3}  # 5 inclusive - 2 in child
        assert inner.self_s == 1.0
        assert inner.self_ops == {"exp_g1": 2, "pairings": 1}

    def test_self_layers_subtract_children_and_other_is_the_rest(self):
        (outer,) = build_profile(_traced_pair())
        (inner,) = outer.children
        assert outer.span.layers == {"msm": 0.75, "miller": 0.5}  # inclusive
        assert outer.layers == {"msm": 0.5}
        assert outer.other_s == 1.5
        assert inner.layers == {"msm": 0.25, "miller": 0.5}
        assert inner.other_s == 0.25

    def test_sibling_roots_sorted_by_start(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        roots = build_profile(tracer)
        assert [r.span.name for r in roots] == ["first", "second"]


class TestRender:
    def test_tree_shows_names_bars_and_other(self):
        text = render_profile(_traced_pair())
        lines = text.splitlines()
        assert any(line.startswith("outer") for line in lines)
        assert any(line.startswith("  inner") for line in lines)  # indented
        assert "msm 500.00ms; other 1500.00ms  [exp_g1 3]" in text
        assert "miller 500.00ms; msm 250.00ms; other 250.00ms  [exp_g1 2, pairings 1]" in text
        assert text.endswith("(serialization, hashing, Python overhead, worker processes)")

    def test_empty_trace_renders_header_only(self):
        text = render_profile(Tracer(clock=FakeClock()))
        assert "span" in text and "total" not in text


class TestMeasuredRun:
    """A seeded toy-64 upload + audit, timed by the group's own kernels."""

    def _run(self):
        obs = Observability.create()
        system = SemPdpSystem.create(toy_group(), k=4, rng=random.Random(11), obs=obs)
        alice = system.enroll("alice")
        system.upload(alice, bytes(range(256)) * 3, b"profiled")
        assert system.audit(b"profiled")
        return obs

    def test_every_node_splits_its_own_self_time(self):
        obs = self._run()
        nodes = list(_flatten(build_profile(obs.tracer)))
        assert len(nodes) == len(obs.tracer.spans)
        for node in nodes:
            assert all(seconds >= 0 for seconds in node.layers.values()), node.span
            assert sum(node.layers.values()) <= node.self_s + 1e-9, node.span
        (verify,) = [node for node in nodes if node.span.name == "proofverify"]
        for kernel in ("msm", "miller", "final_exp"):
            assert verify.layers[kernel] > 0

    def test_tallies_and_trace_keep_their_schema(self):
        obs = self._run()
        assert set(obs.counter.snapshot()) == set(OP_KEYS)
        assert obs.counter.kernel_s  # the kernels were timed ...
        for line in trace_to_jsonl(obs.tracer).splitlines():
            record = json.loads(line)
            # ... but no kernel seconds reach the serialized spans.
            assert set(record) == {"span_id", "parent_id", "name", "start", "end",
                                   "duration", "attrs"}
            assert not set(record["attrs"]) & set(obs.counter.kernel_s)
