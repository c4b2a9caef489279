"""Point-to-point channels with a latency/bandwidth model and accounting.

The paper assumes the verifier ↔ cloud channel is authenticated (Section
II-A) and suggests the owner ↔ SEM channel may run over an anonymizing
network (Tor) with correspondingly higher latency; both are just parameter
choices here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.message import Message


@dataclass
class ChannelStats:
    """Accumulated traffic over one directed channel.

    Beyond byte accounting, the channel records what the network *did* to
    its traffic: drops (lossy links or partitions), duplications,
    reorderings, and in-transit corruptions injected by the chaos harness
    (:mod:`repro.net.faults`).  Bytes are counted once per send — the
    sender pays to transmit regardless of the message's fate.
    """

    messages: int = 0
    bytes_total: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        self.messages += 1
        self.bytes_total += message.size_bytes
        self.by_type[message.msg_type] = self.by_type.get(message.msg_type, 0) + message.size_bytes

    def record_drop(self) -> None:
        """Count a message this channel silently lost (bytes were already
        recorded by :meth:`record` — the sender still paid to transmit)."""
        self.dropped += 1

    def record_duplicated(self) -> None:
        """Count a message the network delivered more than once."""
        self.duplicated += 1

    def record_reordered(self) -> None:
        """Count a message held back so later traffic could overtake it."""
        self.reordered += 1

    def record_corrupted(self) -> None:
        """Count a payload perturbed in transit (unauthenticated links)."""
        self.corrupted += 1


@dataclass
class Channel:
    """A directed link with fixed latency plus per-byte transmission delay.

    Args:
        latency_s: one-way propagation delay in (virtual) seconds.
        bandwidth_bps: link bandwidth in bytes/second (None = infinite).
        authenticated: whether messages are integrity-protected in transit
            (the paper's standard assumption for verifier ↔ cloud).
        anonymous: models an onion-routed link (e.g. Tor) between owner and
            SEM; only affects latency bookkeeping and documentation.
        drop_rate: probability a message is silently dropped (needs ``rng``).
    """

    latency_s: float = 0.0
    bandwidth_bps: float | None = None
    authenticated: bool = True
    anonymous: bool = False
    drop_rate: float = 0.0
    rng: object | None = None
    stats: ChannelStats = field(default_factory=ChannelStats)

    def delay_for(self, message: Message) -> float:
        transmit = 0.0 if self.bandwidth_bps is None else message.size_bytes / self.bandwidth_bps
        return self.latency_s + transmit

    def clone(self) -> "Channel":
        """An independent channel with this one's parameters.

        The clone gets fresh stats and its own deterministically derived
        RNG — sharing this RNG object would correlate drop decisions across
        links that are supposed to be independent.
        """
        rng = self.rng
        if rng is not None:
            rng = random.Random(rng.getrandbits(64))
        return Channel(
            latency_s=self.latency_s,
            bandwidth_bps=self.bandwidth_bps,
            authenticated=self.authenticated,
            anonymous=self.anonymous,
            drop_rate=self.drop_rate,
            rng=rng,
        )

    def should_drop(self) -> bool:
        if self.drop_rate <= 0.0:
            return False
        if self.rng is None:
            raise ValueError("drop_rate > 0 requires an rng for determinism")
        return self.rng.random() < self.drop_rate

    def record(self, message: Message) -> None:
        self.stats.record(message)

    def record_drop(self) -> None:
        self.stats.record_drop()
