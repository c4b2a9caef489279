"""Deterministic discrete-event network simulator.

A virtual clock advances through a priority queue of message deliveries.
Determinism: ties break on insertion order, and all randomness comes from
caller-supplied RNGs, so every run of a seeded experiment is identical.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.net.channel import Channel
from repro.net.message import Message, TraceContext
from repro.net.node import Node


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    message: Message | None = field(compare=False, default=None)
    callback: object = field(compare=False, default=None)
    timer_id: int = field(compare=False, default=-1)
    ctx: TraceContext | None = field(compare=False, default=None)


class Simulator:
    """Owns the nodes, the channel matrix, and the virtual clock."""

    def __init__(self, default_channel: Channel | None = None):
        self.nodes: dict[str, Node] = {}
        self._channels: dict[tuple[str, str], Channel] = {}
        self._default_channel = default_channel if default_channel is not None else Channel()
        self._queue: list[_Event] = []
        self._seq = itertools.count()
        self._timer_ids = itertools.count()
        self._pending_timers: set[int] = set()
        self._cancelled_timers: set[int] = set()
        self._daemon_timers: set[int] = set()
        self.now = 0.0
        self.delivered = 0
        self.dropped = 0
        self.timers_fired = 0
        # Chaos hook: a FaultInjector (repro.net.faults) consulted on every
        # send; None means no fault injection (the common, fast path).
        self.faults = None
        # Flight-recorder hook: a Tracer (repro.obs.tracer) that records one
        # span per message delivery; None/disabled means no causal tracing.
        self.tracer = None
        # Metering hook: a Meter (repro.obs.meter) bracketing every event
        # with begin/commit so operation-counter deltas are attributed to
        # the node that processed the event; None means no metering.
        self.meter = None
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._current_ctx: TraceContext | None = None

    # -- causal tracing ------------------------------------------------------
    def _tracing(self) -> bool:
        return self.tracer is not None and getattr(self.tracer, "enabled", True)

    def root_context(self) -> TraceContext:
        """A fresh trace root: the first hop of a new causal tree."""
        return TraceContext(trace_id=next(self._trace_ids),
                           span_id=next(self._span_ids))

    def child_context(self, parent: TraceContext | None) -> TraceContext:
        """The next hop under ``parent`` (a new root when parent is None)."""
        if parent is None:
            return self.root_context()
        return TraceContext(trace_id=parent.trace_id,
                            span_id=next(self._span_ids),
                            parent_span_id=parent.span_id,
                            hop=parent.hop + 1)

    def start_trace(self, message: Message) -> Message:
        """Explicitly root a new causal tree at ``message``.

        Workload generators call this when a *new* request originates
        inside the handler of a previous response — without it the
        ambient context would chain successive independent requests into
        one ever-deeper tree.
        """
        if self._tracing() and message.trace is None:
            message.trace = self.root_context()
        return message

    def _record_span(self, message: Message, start: float, end: float,
                     copy: int = 0, dropped: bool = False) -> None:
        ctx = message.trace
        if ctx is None or not self._tracing():
            return
        attrs = {
            "trace": ctx.trace_id,
            "span": ctx.span_id,
            "parent_span": ctx.parent_span_id,
            "hop": ctx.hop,
            "src": message.sender,
            "dst": message.recipient,
        }
        if copy:
            attrs["copy"] = copy
        if dropped:
            attrs["dropped"] = True
        self.tracer.record(f"msg.{message.msg_type}", start, end, **attrs)

    # -- topology -----------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.sim = self
        return node

    # -- timers ----------------------------------------------------------------
    def schedule(self, delay_s: float, callback, daemon: bool = False) -> int:
        """Fire ``callback()`` after ``delay_s`` virtual seconds.

        The callback may return a Message or a list of Messages to send.
        Returns a timer id usable with :meth:`cancel_timer`.

        A ``daemon`` timer is housekeeping (telemetry samplers, metering
        epochs): it fires normally while real work remains but does not
        count as a pending event, and :meth:`run` stops once only daemon
        timers are left — so several self-rescheduling observers can
        coexist without keeping each other (and the run) alive forever.
        """
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        timer_id = next(self._timer_ids)
        self._pending_timers.add(timer_id)
        if daemon:
            self._daemon_timers.add(timer_id)
        heapq.heappush(
            self._queue,
            _Event(
                time=self.now + delay_s,
                seq=next(self._seq),
                callback=callback,
                timer_id=timer_id,
                # Timers keep the causal context of the turn that armed
                # them, so retries/flushes stay in the originating trace.
                ctx=self._current_ctx,
            ),
        )
        return timer_id

    def every(self, interval_s: float, fn, until_s: float | None = None) -> None:
        """Call ``fn(now)`` every ``interval_s`` virtual seconds.

        The one periodic timer of the observers (the SLO sampler, the
        metering epochs, the dashboard): a daemon timer that re-arms
        while real work is pending and, given ``until_s``, while
        ``now < until_s`` — so it never keeps a run alive on its own.
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")

        def fire():
            fn(self.now)
            if (until_s is None or self.now < until_s) and self.pending_events():
                self.schedule(interval_s, fire, daemon=True)

        self.schedule(interval_s, fire, daemon=True)

    def cancel_timer(self, timer_id: int) -> None:
        """Cancel a pending timer; a no-op for timers that already fired."""
        if timer_id in self._pending_timers:
            self._cancelled_timers.add(timer_id)

    def pending_events(self) -> int:
        """Events still queued (messages + timers), cancelled timers excluded.

        Periodic observers (the serve-sim dashboard) use this to stop
        rescheduling themselves once they are the only event source left —
        otherwise :meth:`run` would never drain the queue.  Cancelled
        timers still sit in the heap until popped, but they will neither
        fire nor advance the clock, so they do not count as pending;
        daemon timers are housekeeping and do not count either.
        """
        live_daemons = len(self._daemon_timers - self._cancelled_timers)
        return len(self._queue) - len(self._cancelled_timers) - live_daemons

    def connect(self, sender: str, recipient: str, channel: Channel,
                bidirectional: bool = True) -> None:
        self._channels[(sender, recipient)] = channel
        if bidirectional:
            # Independent reverse channel: fresh stats and a derived RNG.
            self._channels[(recipient, sender)] = channel.clone()

    def channel(self, sender: str, recipient: str) -> Channel:
        """The directed channel between two nodes.

        Unconnected pairs get a dedicated channel cloned from the default
        template on first use, so per-direction byte accounting never
        conflates traffic of different node pairs.
        """
        key = (sender, recipient)
        existing = self._channels.get(key)
        if existing is None:
            existing = self._default_channel.clone()
            self._channels[key] = existing
        return existing

    # -- traffic ---------------------------------------------------------------
    def send(self, message: Message, at: float | None = None) -> None:
        """Enqueue a message for delivery after its channel delay.

        When a fault injector is armed (``self.faults``), it may drop the
        message (partition), corrupt its payload, duplicate it, or delay
        it (reordering / slow links); each extra delivery is enqueued with
        its own extra delay on top of the channel's latency model.
        """
        if message.recipient not in self.nodes:
            raise KeyError(f"unknown recipient {message.recipient!r}")
        if self._tracing() and message.trace is None:
            message.trace = self.child_context(self._current_ctx)
        channel = self.channel(message.sender, message.recipient)
        channel.record(message)
        if channel.should_drop():
            self.dropped += 1
            channel.record_drop()
            self._record_span(message, self.now, self.now, dropped=True)
            return
        base = self.now if at is None else at
        deliveries = [(0.0, message)]
        if self.faults is not None:
            deliveries = self.faults.apply(message, channel, self.now)
            if not deliveries:
                self.dropped += 1
                channel.record_drop()
                self._record_span(message, self.now, self.now, dropped=True)
                return
        for copy, (extra_delay, delivered) in enumerate(deliveries):
            when = base + channel.delay_for(delivered) + extra_delay
            heapq.heappush(
                self._queue, _Event(time=when, seq=next(self._seq), message=delivered)
            )
            self._record_span(delivered, base, when, copy=copy)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in time order; returns the final virtual time."""
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and self._queue[0].time > until:
                break
            if self._daemon_timers and self.pending_events() <= 0:
                # Only daemon housekeeping (and cancelled timers) remain:
                # the run is drained.  Unfired daemon timers stay queued
                # but will never fire or advance the clock.
                break
            event = heapq.heappop(self._queue)
            if event.callback is not None and event.timer_id in self._cancelled_timers:
                # Cancelled timers neither fire nor advance the clock — a
                # run's final virtual time reflects only events that happened.
                self._cancelled_timers.discard(event.timer_id)
                self._pending_timers.discard(event.timer_id)
                self._daemon_timers.discard(event.timer_id)
                continue
            self.now = max(self.now, event.time)
            processed += 1
            meter = self.meter
            if event.callback is not None:
                self._pending_timers.discard(event.timer_id)
                self._daemon_timers.discard(event.timer_id)
                self.timers_fired += 1
                self._current_ctx = event.ctx
                if meter is not None:
                    owner = getattr(event.callback, "__self__", None)
                    meter.begin(getattr(owner, "name", None))
                replies = event.callback()
            else:
                node = self.nodes[event.message.recipient]
                self._current_ctx = event.message.trace
                if meter is not None:
                    meter.begin(event.message.recipient)
                replies = node.receive(event.message)
                self.delivered += 1
            if meter is not None:
                meter.commit()
            if replies is not None:
                if isinstance(replies, Message):
                    replies = [replies]
                for reply in replies:
                    self.send(reply)
            self._current_ctx = None
        return self.now

    # -- accounting --------------------------------------------------------------
    def bytes_between(self, sender: str, recipient: str) -> int:
        return self.channel(sender, recipient).stats.bytes_total

    def total_bytes(self) -> int:
        # The default channel is only ever a clone template — traffic is
        # recorded on the per-pair clones in ``_channels``, never on it.
        return sum(ch.stats.bytes_total for ch in self._channels.values())
