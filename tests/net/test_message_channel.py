"""Tests for message sizing and channel modelling."""

import random

import pytest

from repro.net.channel import Channel, ChannelStats
from repro.net.message import Message, payload_size


class TestPayloadSize:
    def test_primitives(self):
        assert payload_size(None) == 0
        assert payload_size(True) == 1
        assert payload_size(0) == 1
        assert payload_size(255) == 1
        assert payload_size(256) == 2
        assert payload_size(b"abcd") == 4
        assert payload_size("hi") == 2

    def test_containers(self):
        assert payload_size([b"ab", b"cd"]) == 4
        assert payload_size((1, 2, 3)) == 3
        assert payload_size({b"k": b"vv"}) == 3

    def test_group_element(self, group):
        e = group.g1()
        assert payload_size(e) == len(e.to_bytes())

    def test_gt_element(self, group):
        e = group.pair(group.g1(), group.g1())
        assert payload_size(e) > 0

    def test_wire_size_protocol(self):
        class Sized:
            def wire_size_bytes(self):
                return 99

        assert payload_size(Sized()) == 99

    def test_dataclass_recursion(self, group):
        from dataclasses import dataclass

        @dataclass
        class Bundle:
            tag: bytes
            element: object

        assert payload_size(Bundle(tag=b"xy", element=group.g1())) == 2 + len(
            group.g1().to_bytes()
        )

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            payload_size(object())

    def test_message_autosize(self, group):
        m = Message(sender="a", recipient="b", msg_type="t", payload=[group.g1()])
        assert m.size_bytes == len(group.g1().to_bytes())

    def test_message_explicit_size(self):
        m = Message(sender="a", recipient="b", msg_type="t", payload=b"xx", size_bytes=1000)
        assert m.size_bytes == 1000

    def test_message_ids_unique(self):
        a = Message(sender="a", recipient="b", msg_type="t")
        b = Message(sender="a", recipient="b", msg_type="t")
        assert a.msg_id != b.msg_id


class TestChannel:
    def test_delay_fixed_latency(self):
        ch = Channel(latency_s=0.05)
        m = Message(sender="a", recipient="b", msg_type="t", payload=b"x" * 100)
        assert ch.delay_for(m) == pytest.approx(0.05)

    def test_delay_with_bandwidth(self):
        ch = Channel(latency_s=0.01, bandwidth_bps=1000)
        m = Message(sender="a", recipient="b", msg_type="t", payload=b"x" * 100)
        assert ch.delay_for(m) == pytest.approx(0.01 + 0.1)

    def test_stats_accumulate(self):
        ch = Channel()
        for size in (10, 20):
            ch.record(Message(sender="a", recipient="b", msg_type="t", payload=b"x" * size))
        assert ch.stats.messages == 2
        assert ch.stats.bytes_total == 30
        assert ch.stats.by_type == {"t": 30}

    def test_by_type_breakdown(self):
        ch = Channel()
        ch.record(Message(sender="a", recipient="b", msg_type="x", payload=b"1"))
        ch.record(Message(sender="a", recipient="b", msg_type="y", payload=b"22"))
        assert ch.stats.by_type == {"x": 1, "y": 2}

    def test_drop_rate_requires_rng(self):
        ch = Channel(drop_rate=0.5)
        with pytest.raises(ValueError):
            ch.should_drop()

    def test_drop_rate_statistics(self):
        ch = Channel(drop_rate=0.5, rng=random.Random(1))
        drops = sum(ch.should_drop() for _ in range(1000))
        assert 400 < drops < 600

    def test_no_drops_by_default(self):
        assert not Channel().should_drop()

    def test_channel_stats_dataclass(self):
        s = ChannelStats()
        assert s.messages == 0 and s.bytes_total == 0
