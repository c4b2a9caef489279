"""Layer tracer: spans around the public entry point of each repro layer.

End-to-end numbers are measured with tracing off.  A traced run installs
wrappers around one or two public entry points per layer (see
:data:`TRACE_POINTS`), keeps every span in memory, and writes the spans
out when the run ends.  A span's *self time* is its wall time minus the
wall time of its child spans, so the self times of all spans plus the
untraced residual add up to the traced wall time.

Wrappers are patched onto classes, and onto every loaded ``repro`` module
that holds a reference to a wrapped module-level function, so call sites
that imported a function by name are traced too.  Install the tracer
*before* the system under test is built: objects that capture a bound
method at construction (the SEM cluster's endpoint transports) then
capture the wrapper.  An installed but inactive tracer forwards each call
after one attribute check.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass


def _one(args, kwargs, result) -> int:
    return 1


def _zero(args, kwargs, result) -> int:
    return 0


def _len_arg(position: int):
    def measure(args, kwargs, result) -> int:
        return len(args[position])
    return measure


def _shares(args, kwargs, result) -> int:
    # batch_verify_shares(group, blinded_messages, shares_by_sem, ...)
    return len(args[1]) * len(args[2])


def _flushed_blocks(args, kwargs, result) -> int:
    return sum(len(r.signatures or ()) for r in result)


@dataclass(frozen=True)
class TracePoint:
    """One wrapped entry point.

    ``target`` is ``"module:attr"`` for a module function or
    ``"module:Class.attr"`` for a method.  ``work`` names the work count
    the point adds to (``None`` when the layer reports time only) and
    ``measure(args, kwargs, result)`` says how much work one call did.
    """

    layer: str
    target: str
    work: str | None = None
    measure: object = _one


#: Entry points per layer, named after the repro packages they live in.
TRACE_POINTS: tuple[TracePoint, ...] = (
    TracePoint("pairing.pair", "repro.pairing.interface:PairingGroup.pair", "calls"),
    TracePoint("pairing.multi_pair", "repro.pairing.type_a:TypeAPairingGroup.multi_pair",
               "terms", _len_arg(1)),
    TracePoint("ec.hash_to_g1", "repro.pairing.type_a:TypeAPairingGroup.hash_to_g1", "calls"),
    TracePoint("ec.fixed_base", "repro.ec.fixed_base:FixedBaseTable.power", "calls"),
    TracePoint("ec.fixed_base", "repro.ec.fixed_base:aggregate_with_tables", "calls", _zero),
    TracePoint("ec.multi_exp", "repro.pairing.interface:PairingGroup.multi_exp",
               "terms", _len_arg(1)),
    TracePoint("ec.exp", "repro.pairing.interface:GroupElement.__pow__", "calls"),
    TracePoint("ec.decode", "repro.pairing.type_a:TypeAPairingGroup.deserialize_g1", "calls"),
    TracePoint("mathkit.sqrt_mod", "repro.mathkit.ntheory:sqrt_mod", "calls"),
    TracePoint("crypto.eq7", "repro.crypto.blind_bls:batch_unblind_verify",
               "messages", _len_arg(1)),
    TracePoint("crypto.eq14", "repro.crypto.threshold:batch_verify_shares", "shares", _shares),
    TracePoint("core.sem_sign", "repro.core.sem:SecurityMediator.sign_blinded_batch",
               "messages", _len_arg(1)),
    TracePoint("core.proofgen", "repro.core.cloud:CloudServer.generate_proof"),
    TracePoint("core.verify", "repro.core.verifier:PublicVerifier.verify"),
    TracePoint("core.verify", "repro.core.verifier:PublicVerifier.verify_batch"),
    TracePoint("service.flush", "repro.service.batcher:BatchingSEMService.flush",
               "batch_blocks", _flushed_blocks),
    TracePoint("service.failover",
               "repro.service.failover:FailoverMultiSEMClient.sign_blinded_batch",
               "messages", _len_arg(1)),
    TracePoint("dynamic.update", "repro.dynamic.store:DynamicStore.update"),
    TracePoint("dynamic.rank_path", "repro.dynamic.rank_tree:RankTree.prove", "calls"),
    TracePoint("dynamic.rank_path", "repro.dynamic.rank_tree:RankTree.verify_path", "calls"),
    TracePoint("erasure.rs", "repro.erasure.reed_solomon:ReedSolomonCode.encode"),
    TracePoint("erasure.rs", "repro.erasure.reed_solomon:ReedSolomonCode.decode"),
    TracePoint("erasure.audit_round", "repro.erasure.fleet:FleetStore.audit_round"),
    TracePoint("erasure.repair", "repro.erasure.fleet:FleetStore.repair"),
    TracePoint("obs.ledger.append", "repro.obs.ledger:Ledger.append"),
    TracePoint("obs.ledger.verify", "repro.obs.ledger:verify_ledger"),
)

#: Every layer, in table order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in TRACE_POINTS))


class LayerTracer:
    """In-memory span recorder with per-layer self time and work counts."""

    def __init__(self, points=TRACE_POINTS):
        self.points = tuple(points)
        self.layers = tuple(dict.fromkeys(p.layer for p in self.points))
        self.active = False
        self.spans: list[tuple] = []          # (id, parent, layer, thread, start, end, self)
        self.self_s = dict.fromkeys(self.layers, 0.0)
        self.calls = dict.fromkeys(self.layers, 0)
        self.work: dict[str, int] = dict.fromkeys(self.layers, 0)
        self.wall_s = 0.0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._window_start: float | None = None

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Patch every trace point; the tracer starts inactive."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for point in self.points:
            module_name, _, path = point.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(point, raw.__func__))
                else:
                    wrapped = self._wrap(point, raw)
                self._patch(owner, attr, raw, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self._wrap(point, original)
                for holder in list(sys.modules.values()):
                    name = getattr(holder, "__name__", "") or ""
                    if not name.startswith("repro"):
                        continue
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, original, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- recording window ----------------------------------------------------
    def start(self) -> None:
        """Open the traced window: spans record from now on."""
        self._window_start = time.perf_counter()
        self.active = True

    def stop(self) -> None:
        """Close the traced window and add its wall time."""
        self.active = False
        if self._window_start is not None:
            self.wall_s += time.perf_counter() - self._window_start
            self._window_start = None

    @property
    def residual_s(self) -> float:
        """Traced wall time no layer span covers."""
        return self.wall_s - sum(self.self_s.values())

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, point: TracePoint, fn):
        tracer = self
        layer = point.layer
        measure = point.measure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]            # [child wall time, id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                with tracer._lock:
                    tracer.self_s[layer] += own
                    tracer.calls[layer] += 1
                    tracer.spans.append((span_id, parent, layer,
                                         threading.get_ident(), start, end, own))
            work = measure(args, kwargs, result)
            if work:
                with tracer._lock:
                    tracer.work[layer] += work
            return result

        return traced

    # -- output --------------------------------------------------------------
    def write_spans(self, path, header: dict) -> None:
        """Write one JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, layer, thread, start, end, own in sorted(
                self.spans, key=lambda s: s[4]
            ):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "thread": thread, "start": start, "end": end, "self_s": own,
                }) + "\n")

    def table(self) -> list[dict]:
        """One row per layer that recorded a span, largest self time first."""
        rows = []
        for layer in self.layers:
            if not self.calls[layer]:
                continue
            rows.append({
                "layer": layer,
                "self_s": self.self_s[layer],
                "share": self.self_s[layer] / self.wall_s if self.wall_s else 0.0,
                "calls": self.calls[layer],
                "work": self.work[layer],
            })
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows
