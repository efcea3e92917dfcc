"""Unit tests for the ordered event bus."""

import json

import pytest

from repro.obs.events import Event, EventBus


class TestOrdering:
    def test_seq_is_monotonic_and_total(self):
        bus = EventBus()
        events = [bus.publish("a", source="x"),
                  bus.publish("b", source="y"),
                  bus.publish("c", source="x")]
        assert [e.seq for e in events] == [1, 2, 3]
        assert [e.seq for e in bus.history] == [1, 2, 3]

    def test_subscribers_called_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append(("first", e.kind)))
        bus.subscribe(lambda e: order.append(("second", e.kind)))
        bus.publish("tick")
        assert order == [("first", "tick"), ("second", "tick")]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        token = bus.subscribe(seen.append)
        bus.publish("one")
        bus.unsubscribe(token)
        bus.publish("two")
        assert [e.kind for e in seen] == ["one"]

    def test_subscriber_exception_propagates(self):
        """A failing subscriber fails the fit loudly, never drops
        events silently."""
        bus = EventBus()

        def bad(event):
            raise RuntimeError("hook broke")

        bus.subscribe(bad)
        with pytest.raises(RuntimeError, match="hook broke"):
            bus.publish("tick")

    def test_history_is_bounded(self):
        bus = EventBus(max_history=3)
        for i in range(5):
            bus.publish("e", i=i)
        assert len(bus) == 3
        assert [e.fields["i"] for e in bus.history] == [2, 3, 4]
        # seq keeps counting even after history wraps
        assert bus.history[-1].seq == 5


class TestExport:
    def test_event_is_frozen(self):
        e = Event(kind="a", source="b", seq=1)
        with pytest.raises(Exception):
            e.kind = "c"

    def test_to_jsonl_round_trips(self):
        bus = EventBus()
        bus.publish("checkpoint_save", source="checkpoint",
                    iteration=2, nbytes=128, mode="disk")
        (doc,) = [json.loads(line)
                  for line in bus.to_jsonl().strip().split("\n")]
        assert doc == {"kind": "checkpoint_save", "source": "checkpoint",
                       "seq": 1, "iteration": 2, "nbytes": 128,
                       "mode": "disk"}
