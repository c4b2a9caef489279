"""Deterministic, seeded fault injection for the discrete-event simulator.

The multi-SEM availability claim (Section V: signing survives up to t − 1
unavailable mediators) is only as strong as the failure modes it is tested
against.  This module turns the simulator into a chaos harness: a
:class:`FaultPlan` is a schedule of composable fault actions, replayable
from JSON, whose every random decision comes from one seeded RNG — the
same plan and seed always produce the identical run.

Fault taxonomy (see DESIGN.md §7 for the full model):

============  ===============================================================
kind          effect
============  ===============================================================
crash         node is fail-silent from ``at`` until ``until`` (restart)
byzantine     a :class:`~repro.net.actors.SEMNode` signs under a perturbed
              key share — well-formed responses that fail Eq. 14
partition     matching links drop every message during the window
corrupt       payloads on matching links are perturbed in transit
duplicate     matching messages are delivered twice
reorder       matching messages are held back by a random extra delay, so
              later traffic overtakes them
slow          matching links add a fixed extra latency (transient brown-out)
============  ===============================================================

Link faults match ``(sender, recipient)`` pairs against patterns where
``"*"`` is a wildcard; ``bidirectional`` (default) also matches the
reverse direction.  Node faults (``crash``/``byzantine``) are installed as
simulator timers, so a SEM can crash and come back *mid-round*.

Corruption and the authenticated-channel assumption: Section II-A assumes
integrity-protected channels, which rules tampering out.  A ``corrupt``
fault therefore *declares* its links unauthenticated — the first time it
fires on a channel, ``channel.authenticated`` is forced to ``False`` so
the run's channel inventory records exactly which links operated outside
the paper's assumption.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace

from repro.net.message import Message

#: Fault kinds that target a single node (installed as simulator timers).
NODE_KINDS = frozenset({"crash", "byzantine"})
#: Fault kinds that act on messages in flight on matching links.
LINK_KINDS = frozenset({"partition", "corrupt", "duplicate", "reorder", "slow"})


class FaultPlanError(ValueError):
    """A fault plan failed structural validation."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault action.

    ``at``/``until`` bound the active window in virtual seconds
    (``until=None`` means for the rest of the run).  ``rate`` is the
    per-message injection probability of link faults; ``delay_s`` is the
    extra latency of ``slow`` links and the hold-back bound of ``reorder``.
    """

    kind: str
    node: str | None = None
    links: tuple[tuple[str, str], ...] = ()
    bidirectional: bool = True
    at: float = 0.0
    until: float | None = None
    rate: float = 1.0
    delay_s: float = 0.05

    def __post_init__(self):
        if self.kind not in NODE_KINDS | LINK_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.kind in NODE_KINDS and not self.node:
            raise FaultPlanError(f"{self.kind!r} fault needs a 'node'")
        if self.kind in LINK_KINDS and not self.links:
            raise FaultPlanError(f"{self.kind!r} fault needs 'links'")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError("rate must be within [0, 1]")
        if self.until is not None and self.until < self.at:
            raise FaultPlanError("until must not precede at")
        if self.delay_s < 0:
            raise FaultPlanError("delay_s must be non-negative")

    def active(self, now: float) -> bool:
        return now >= self.at and (self.until is None or now < self.until)

    def matches(self, sender: str, recipient: str) -> bool:
        for pattern_sender, pattern_recipient in self.links:
            if _match(pattern_sender, sender) and _match(pattern_recipient, recipient):
                return True
            if self.bidirectional and _match(pattern_sender, recipient) and _match(
                pattern_recipient, sender
            ):
                return True
        return False


def _match(pattern: str, name: str) -> bool:
    return pattern == "*" or pattern == name


def finite_number(value) -> float | None:
    """``value`` as a finite float, or ``None`` if it is not one.

    Numbers and numeric strings (PyYAML reads ``1e-3`` as a string) are
    accepted; a bool is never a number, and NaN and ±inf are rejected.
    Fault entries and scenario documents share this rule.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        number = float(value)
    except (ValueError, OverflowError):
        return None
    return number if math.isfinite(number) else None


def _number(value, key: str) -> float:
    number = finite_number(value)
    if number is None:
        raise FaultPlanError(f"{key} must be a finite number, got {value!r}")
    return number


def _is_pair(pair) -> bool:
    return (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(end, str) for end in pair))


def _fault_from_dict(raw: dict) -> Fault:
    """One fault entry, every field type-checked (fails closed)."""
    if not isinstance(raw, dict):
        raise FaultPlanError(f"fault entries must be objects, got {raw!r}")
    known = {"kind", "node", "links", "bidirectional", "at", "until", "rate", "delay_s"}
    unknown = set(raw) - known
    if unknown:
        raise FaultPlanError(f"unknown fault fields {sorted(unknown, key=str)}")
    kind, node = raw.get("kind", ""), raw.get("node")
    if not isinstance(kind, str):
        raise FaultPlanError(f"kind must be a string, got {kind!r}")
    if node is not None and not isinstance(node, str):
        raise FaultPlanError(f"node must be a string, got {node!r}")
    links = raw.get("links", ())
    if not isinstance(links, (list, tuple)) or not all(map(_is_pair, links)):
        raise FaultPlanError(
            f"links must be a list of [sender, recipient] name pairs, got {links!r}")
    bidirectional = raw.get("bidirectional", True)
    if not isinstance(bidirectional, bool):
        raise FaultPlanError(f"bidirectional must be a boolean, got {bidirectional!r}")
    until = raw.get("until")
    return Fault(
        kind=kind,
        node=node,
        links=tuple((src, dst) for src, dst in links),
        bidirectional=bidirectional,
        at=_number(raw.get("at", 0.0), "at"),
        until=None if until is None else _number(until, "until"),
        rate=_number(raw.get("rate", 1.0), "rate"),
        delay_s=_number(raw.get("delay_s", 0.05), "delay_s"),
    )


@dataclass
class FaultPlan:
    """A seeded, replayable schedule of fault actions.

    ``meta`` carries any extra top-level keys of the JSON document (test
    scenarios keep their expectations there); the injector ignores it.
    """

    faults: list[Fault] = field(default_factory=list)
    seed: int = 0
    name: str = ""
    meta: dict = field(default_factory=dict)

    # -- (de)serialization ---------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict, seed: int | None = None) -> "FaultPlan":
        faults = [_fault_from_dict(entry) for entry in raw.get("faults", [])]
        meta = {
            key: value
            for key, value in raw.items()
            if key not in ("faults", "seed", "name")
        }
        return cls(
            faults=faults,
            seed=int(raw.get("seed", 0)) if seed is None else seed,
            name=str(raw.get("name", "")),
            meta=meta,
        )

    @classmethod
    def from_json(cls, text: str, seed: int | None = None) -> "FaultPlan":
        return cls.from_dict(json.loads(text), seed=seed)

    @classmethod
    def from_file(cls, path, seed: int | None = None) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read(), seed=seed)

    def to_dict(self) -> dict:
        entries = []
        for fault in self.faults:
            entry: dict = {"kind": fault.kind, "at": fault.at}
            if fault.node is not None:
                entry["node"] = fault.node
            if fault.links:
                entry["links"] = [list(pair) for pair in fault.links]
                entry["bidirectional"] = fault.bidirectional
                entry["rate"] = fault.rate
                entry["delay_s"] = fault.delay_s
            if fault.until is not None:
                entry["until"] = fault.until
            entries.append(entry)
        doc = {"name": self.name, "seed": self.seed, "faults": entries}
        doc.update(self.meta)
        return doc

    # -- installation --------------------------------------------------------
    def install(self, sim) -> "FaultInjector":
        """Arm this plan on a simulator; returns the live injector.

        Node faults become timers on the simulator's wheel (so ``at`` and
        ``until`` respect virtual time exactly); link faults are consulted
        by :meth:`~repro.net.simulator.Simulator.send` for every message.
        """
        injector = FaultInjector(self, rng=random.Random(self.seed))
        for fault in self.faults:
            if fault.kind not in NODE_KINDS:
                continue
            node = sim.nodes.get(fault.node)
            if node is None:
                raise FaultPlanError(f"fault targets unknown node {fault.node!r}")
            if fault.kind == "crash":
                sim.schedule(fault.at, _crash_action(injector, node))
                if fault.until is not None:
                    sim.schedule(fault.until, _recover_action(injector, node))
            elif fault.kind == "byzantine":
                if not hasattr(node, "fail_mode"):
                    raise FaultPlanError(
                        f"node {fault.node!r} does not support byzantine mode"
                    )
                sim.schedule(fault.at, _byzantine_action(injector, node, "byzantine"))
                if fault.until is not None:
                    sim.schedule(fault.until, _byzantine_action(injector, node, None))
        sim.faults = injector
        return injector


def _crash_action(injector: "FaultInjector", node):
    def fire():
        node.crash()
        injector.count("crash")
        return None

    return fire


def _recover_action(injector: "FaultInjector", node):
    def fire():
        node.recover()
        injector.count("restart")
        return None

    return fire


def _byzantine_action(injector: "FaultInjector", node, mode):
    def fire():
        node.fail_mode = mode
        injector.count("byzantine" if mode else "byzantine_healed")
        return None

    return fire


class FaultInjector:
    """The live decision-maker consulted on every :meth:`Simulator.send`.

    All randomness flows from the single plan-seeded RNG; because the
    simulator processes events in a deterministic order, every decision —
    and therefore the whole chaotic run — replays identically.
    """

    def __init__(self, plan: FaultPlan, rng: random.Random):
        self.plan = plan
        self.rng = rng
        self.counts: dict[str, int] = {}

    def count(self, kind: str, amount: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + amount

    def _chance(self, rate: float) -> bool:
        return rate >= 1.0 or self.rng.random() < rate

    def apply(self, message: Message, channel, now: float) -> list[tuple[float, Message]]:
        """Decide the fate of one message.

        Returns ``(extra_delay_s, message)`` deliveries — empty when the
        message is lost to a partition.  The channel's stats record what
        was injected, so per-link corruption/duplication/reordering is
        visible in the same place byte accounting already lives.
        """
        deliveries: list[tuple[float, Message]] = [(0.0, message)]
        for fault in self.plan.faults:
            if fault.kind in NODE_KINDS or not fault.active(now):
                continue
            if not fault.matches(message.sender, message.recipient):
                continue
            if fault.kind == "partition":
                if self._chance(fault.rate):
                    self.count("partition")
                    return []
            elif fault.kind == "corrupt":
                if self._chance(fault.rate):
                    # A tampering adversary is exactly what "unauthenticated"
                    # means — record that this link left Section II-A's model.
                    channel.authenticated = False
                    deliveries = [
                        (delay, _corrupted_copy(msg, self.rng))
                        for delay, msg in deliveries
                    ]
                    channel.stats.record_corrupted()
                    self.count("corrupt")
            elif fault.kind == "duplicate":
                if self._chance(fault.rate):
                    deliveries = deliveries + [
                        (delay + fault.delay_s, msg) for delay, msg in deliveries
                    ]
                    channel.stats.record_duplicated()
                    self.count("duplicate")
            elif fault.kind == "reorder":
                if self._chance(fault.rate):
                    hold = self.rng.uniform(0.0, fault.delay_s)
                    deliveries = [(delay + hold, msg) for delay, msg in deliveries]
                    channel.stats.record_reordered()
                    self.count("reorder")
            elif fault.kind == "slow":
                deliveries = [
                    (delay + fault.delay_s, msg) for delay, msg in deliveries
                ]
                self.count("slow")
        return deliveries


# ---------------------------------------------------------------------------
# Payload corruption
# ---------------------------------------------------------------------------

def corrupt_payload(payload, rng: random.Random):
    """A structurally identical payload with one perturbed value.

    Type-aware so the receiver exercises its *validation* path rather than
    its parser: group elements are nudged by the generator (still on the
    curve, but now failing Eq. 14 share verification), bytes get a bit
    flip, ints an off-by-a-bit.  Containers corrupt one element and share
    the rest.  Unknown types are returned unchanged (counted by the caller
    as uncorruptible).  The input is never mutated — senders may hold
    references to the same objects.
    """
    from repro.pairing.interface import GroupElement

    if isinstance(payload, GroupElement):
        return payload * payload.group.g1()
    if isinstance(payload, (bytes, bytearray)):
        if not payload:
            return b"\x01"
        data = bytearray(payload)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        return payload ^ (1 << rng.randrange(max(payload.bit_length(), 8)))
    if isinstance(payload, str):
        return payload + "\x00" if payload else "\x00"
    if isinstance(payload, (list, tuple)):
        if not payload:
            return payload
        items = list(payload)
        index = rng.randrange(len(items))
        items[index] = corrupt_payload(items[index], rng)
        return type(payload)(items) if isinstance(payload, tuple) else items
    return payload


def _corrupted_copy(message: Message, rng: random.Random) -> Message:
    """A new envelope carrying the corrupted payload.

    ``size_bytes`` is preserved: tampering changes bits, not lengths, and
    the sender already paid to transmit the original.
    """
    return replace(
        message,
        payload=corrupt_payload(message.payload, rng),
        size_bytes=message.size_bytes,
    )
