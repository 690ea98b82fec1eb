"""Wildcard subscriptions live in their own list, in subscription order.

``ContextBus.publish`` tries the exact-topic subscribers first, then the
prefix (``*``) ones, instead of rescanning every subscription for
wildcards.  Deliveries must come in the order the frozen rescan gives,
through any sequence of subscribes and cancellations.
"""

from hypothesis import given, strategies as st

from repro.context.bus import ContextBus
from repro.context.model import ContextEvent
from repro.net.kernel import EventLoop

from tests.frozen_hotpath import matches, publish_candidates

TOPICS = ["context.location", "context.activity", "raw.temp", "raw.light"]
PATTERNS = TOPICS + ["context.*", "raw.*", "*", "context.location*"]


def ev(topic):
    return ContextEvent(topic=topic, subject="alice")


def test_exact_subscribers_deliver_before_wildcards():
    loop = EventLoop()
    bus = ContextBus(loop)
    order = []
    bus.subscribe("context.*", lambda e: order.append("wild-1"))
    bus.subscribe("context.location", lambda e: order.append("exact-1"))
    bus.subscribe("*", lambda e: order.append("wild-2"))
    bus.subscribe("context.location", lambda e: order.append("exact-2"))
    assert bus.publish(ev("context.location")) == 4
    loop.run()
    assert order == ["exact-1", "exact-2", "wild-1", "wild-2"]


def test_cancelled_wildcard_stops_receiving():
    loop = EventLoop()
    bus = ContextBus(loop)
    got = []
    sub = bus.subscribe("raw.*", got.append)
    keep = bus.subscribe("raw.*", got.append)
    sub.cancel()
    sub.cancel()  # idempotent
    assert bus.publish(ev("raw.temp")) == 1
    loop.run()
    assert len(got) == 1 and keep.delivered == 1 and sub.delivered == 0
    assert bus._wildcards == [keep]
    keep.cancel()
    assert bus.publish(ev("raw.temp")) == 0
    assert bus._wildcards == [] and bus.subscription_count == 0


@given(st.lists(st.one_of(
    st.tuples(st.just("subscribe"), st.sampled_from(PATTERNS)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("publish"), st.sampled_from(TOPICS)),
), max_size=40))
def test_delivery_order_matches_frozen_rescan(ops):
    loop = EventLoop()
    bus = ContextBus(loop)
    subs = []
    delivered = []
    for op in ops:
        if op[0] == "subscribe":
            subs.append(bus.subscribe(
                op[1], lambda e, i=len(subs): delivered.append(i)))
        elif op[0] == "cancel":
            if subs:
                subs[op[1] % len(subs)].cancel()
        else:
            topic = op[1]
            expected = [subs.index(s) for s in publish_candidates(
                bus._exact_index, bus._subscriptions, topic)
                if matches(s, ev(topic))]
            del delivered[:]
            assert bus.publish(ev(topic)) == len(expected)
            loop.run()
            assert delivered == expected
