"""Unit tests of the fault-injection primitives themselves."""

from __future__ import annotations

import random

import pytest

from repro.net.channel import Channel
from repro.net.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    corrupt_payload,
)
from repro.net.message import Message
from repro.net.node import Node
from repro.net.simulator import Simulator


def make_message(sender="a", recipient="b", payload=b"hello", msg_type="t"):
    return Message(
        sender=sender, recipient=recipient, msg_type=msg_type,
        payload=payload, size_bytes=len(payload),
    )


def make_injector(*faults, seed=0):
    return FaultInjector(FaultPlan(faults=list(faults), seed=seed),
                         rng=random.Random(seed))


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            Fault(kind="meteor", node="sem-0")

    def test_node_kind_needs_node(self):
        with pytest.raises(FaultPlanError, match="needs a 'node'"):
            Fault(kind="crash")

    def test_link_kind_needs_links(self):
        with pytest.raises(FaultPlanError, match="needs 'links'"):
            Fault(kind="partition")

    def test_window_ordering(self):
        with pytest.raises(FaultPlanError, match="until"):
            Fault(kind="crash", node="n", at=2.0, until=1.0)

    def test_rate_bounds(self):
        with pytest.raises(FaultPlanError, match="rate"):
            Fault(kind="slow", links=(("a", "b"),), rate=1.5)

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault fields"):
            FaultPlan.from_dict({"faults": [{"kind": "crash", "node": "n", "sev": 9}]})

    @pytest.mark.parametrize("entry, problem", [
        ({"kind": "partition", "links": [["a"]]}, "links"),
        ({"kind": "partition", "links": "ab"}, "links"),
        ({"kind": "partition", "links": [["a", 3]]}, "links"),
        ({"kind": "crash", "node": "n", "at": "soon"}, "at"),
        ({"kind": "partition", "links": [["a", "b"]], "bidirectional": "false"},
         "bidirectional"),
        ({"kind": "crash", "node": "n", "at": True}, "at"),
        ({"kind": "crash", "node": "n", "until": float("inf")}, "until"),
        ({"kind": "slow", "links": [["a", "b"]], "delay_s": float("nan")}, "delay_s"),
        ({"kind": ["crash"], "node": "n"}, "kind"),
        ({"kind": "crash", "node": {"n": 1}}, "node"),
    ], ids=["short-pair", "string-links", "non-string-end", "at-soon",
            "string-bool", "bool-at", "inf-until", "nan-delay", "list-kind",
            "mapping-node"])
    def test_malformed_entry_fails_closed(self, entry, problem):
        with pytest.raises(FaultPlanError, match=f"^{problem} must be"):
            FaultPlan.from_dict({"faults": [entry]})

    def test_numeric_strings_still_read_as_numbers(self):
        (fault,) = FaultPlan.from_dict({"faults": [
            {"kind": "crash", "node": "n", "at": "1e-3", "until": 2}]}).faults
        assert (fault.at, fault.until) == (0.001, 2.0)


class TestFaultMatching:
    def test_wildcard_and_exact(self):
        fault = Fault(kind="partition", links=(("service", "*"),))
        assert fault.matches("service", "sem-0")
        assert fault.matches("sem-3", "service")  # bidirectional default
        assert not fault.matches("client-0", "sem-0")

    def test_unidirectional(self):
        fault = Fault(kind="partition", links=(("a", "b"),), bidirectional=False)
        assert fault.matches("a", "b")
        assert not fault.matches("b", "a")

    def test_window(self):
        fault = Fault(kind="slow", links=(("a", "b"),), at=1.0, until=2.0)
        assert not fault.active(0.5)
        assert fault.active(1.0)
        assert not fault.active(2.0)  # half-open window


class TestInjectorLinkFaults:
    def test_partition_drops(self):
        injector = make_injector(Fault(kind="partition", links=(("a", "b"),)))
        assert injector.apply(make_message(), Channel(), now=0.0) == []
        assert injector.counts["partition"] == 1

    def test_duplicate_delivers_twice(self):
        injector = make_injector(
            Fault(kind="duplicate", links=(("a", "b"),), delay_s=0.02)
        )
        channel = Channel()
        deliveries = injector.apply(make_message(), channel, now=0.0)
        assert len(deliveries) == 2
        assert deliveries[0][0] == 0.0
        assert deliveries[1][0] == pytest.approx(0.02)
        assert channel.stats.duplicated == 1

    def test_reorder_holds_back(self):
        injector = make_injector(
            Fault(kind="reorder", links=(("a", "b"),), delay_s=0.1)
        )
        channel = Channel()
        ((delay, _),) = injector.apply(make_message(), channel, now=0.0)
        assert 0.0 <= delay <= 0.1
        assert channel.stats.reordered == 1

    def test_slow_adds_fixed_delay(self):
        injector = make_injector(Fault(kind="slow", links=(("a", "b"),), delay_s=0.25))
        ((delay, _),) = injector.apply(make_message(), Channel(), now=0.0)
        assert delay == pytest.approx(0.25)

    def test_corrupt_marks_channel_unauthenticated(self):
        injector = make_injector(Fault(kind="corrupt", links=(("a", "b"),)))
        channel = Channel(authenticated=True)
        message = make_message(payload=b"payload")
        ((_, delivered),) = injector.apply(message, channel, now=0.0)
        assert delivered.payload != b"payload"
        assert message.payload == b"payload"  # original untouched
        assert channel.authenticated is False
        assert channel.stats.corrupted == 1

    def test_inactive_fault_is_a_passthrough(self):
        injector = make_injector(
            Fault(kind="partition", links=(("a", "b"),), at=5.0)
        )
        message = make_message()
        assert injector.apply(message, Channel(), now=0.0) == [(0.0, message)]

    def test_rate_is_seeded(self):
        fault = Fault(kind="partition", links=(("a", "b"),), rate=0.5)
        outcomes = []
        for _ in range(2):
            injector = make_injector(fault, seed=42)
            outcomes.append(
                [len(injector.apply(make_message(), Channel(), 0.0)) for _ in range(32)]
            )
        assert outcomes[0] == outcomes[1]
        assert 0 < sum(n == 0 for n in outcomes[0]) < 32  # both fates occur


class TestCorruptPayload:
    def test_group_element_stays_on_curve_but_differs(self, group, rng):
        element = group.hash_to_g1(b"m")
        corrupted = corrupt_payload(element, rng)
        assert corrupted != element
        assert (corrupted ** group.order).is_identity()

    def test_containers_corrupt_one_element(self, rng):
        payload = [1, 2, 3]
        corrupted = corrupt_payload(payload, rng)
        assert payload == [1, 2, 3]
        assert sum(a != b for a, b in zip(payload, corrupted)) == 1

    def test_scalar_types(self, rng):
        assert corrupt_payload(True, rng) is False
        assert corrupt_payload(7, rng) != 7
        assert corrupt_payload("s", rng) != "s"
        assert corrupt_payload(b"", rng) != b""

    def test_unknown_type_unchanged(self, rng):
        marker = object()
        assert corrupt_payload(marker, rng) is marker


class TestFaultPlanJSON:
    def test_round_trip(self):
        plan = FaultPlan(
            faults=[
                Fault(kind="crash", node="sem-0", at=0.1, until=0.5),
                Fault(kind="corrupt", links=(("a", "b"),), rate=0.3, delay_s=0.01),
            ],
            seed=99,
            name="rt",
            meta={"scenario": {"expect": "complete"}},
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.faults == plan.faults
        assert clone.seed == 99
        assert clone.name == "rt"
        assert clone.meta["scenario"] == {"expect": "complete"}

    def test_seed_override(self):
        plan = FaultPlan.from_json('{"seed": 1, "faults": []}', seed=77)
        assert plan.seed == 77

    def test_install_rejects_unknown_node(self):
        sim = Simulator()
        plan = FaultPlan(faults=[Fault(kind="crash", node="ghost")])
        with pytest.raises(FaultPlanError, match="unknown node"):
            plan.install(sim)

    def test_install_rejects_non_byzantine_capable_node(self):
        sim = Simulator()
        sim.add_node(Node("plain"))
        plan = FaultPlan(faults=[Fault(kind="byzantine", node="plain")])
        with pytest.raises(FaultPlanError, match="byzantine"):
            plan.install(sim)


class TestSimulatorIntegration:
    def _echo_pair(self):
        sim = Simulator()
        received = []

        class Sink(Node):
            def __init__(self, name):
                super().__init__(name)
                self.on("t", lambda m: received.append((sim.now, m.payload)))

        sim.add_node(Node("a"))
        sim.add_node(Sink("b"))
        return sim, received

    def test_partition_window_drops_then_heals(self):
        sim, received = self._echo_pair()
        plan = FaultPlan(
            faults=[Fault(kind="partition", links=(("a", "b"),), at=0.0, until=1.0)]
        )
        plan.install(sim)
        sim.send(make_message(payload=b"lost"))
        sim.schedule(1.5, lambda: make_message(payload=b"heals"))
        sim.run()
        assert [p for _, p in received] == [b"heals"]
        assert sim.dropped == 1

    def test_duplicate_and_crash_timers(self):
        sim, received = self._echo_pair()
        plan = FaultPlan(faults=[
            Fault(kind="duplicate", links=(("a", "b"),), delay_s=0.01),
            Fault(kind="crash", node="b", at=0.5, until=0.6),
        ])
        injector = plan.install(sim)
        sim.send(make_message(payload=b"dup"))
        sim.schedule(0.55, lambda: make_message(payload=b"while-down"))
        sim.schedule(0.7, lambda: make_message(payload=b"after-restart"))
        sim.run()
        payloads = [p for _, p in received]
        assert payloads.count(b"dup") == 2
        assert b"while-down" not in payloads  # both copies land mid-crash
        assert payloads.count(b"after-restart") == 2
        assert injector.counts == {"duplicate": 3, "crash": 1, "restart": 1}
