"""The per-link latency-flight index holds booked bulk deliveries only.

A bulk job enters the index when its delivery/forward event is booked
and leaves it when that event fires, so the link never keeps a delivered
job (or its receipt and payload) alive.  The order the index presents to
``_begin_contention`` and ``abort_bulk`` must stay that of the old
append-then-prune list, which the frozen prune reproduces.
"""

from hypothesis import given, strategies as st

from repro.net.kernel import EventLoop
from repro.net.simnet import Network, register_bulk_protocol

from tests.frozen_hotpath import prune_latency_flight
from tests.net.test_in_flight_index import reachable_receipts

register_bulk_protocol("test.bulk")

ENDPOINTS = ["a", "b", "c", "x"]
PAIRS = [(s, d) for s in ENDPOINTS for d in ENDPOINTS
         if s != d and "a" in (s, d)]


def build():
    """a-b is the link under test; flows to and from c and x cross it."""
    loop = EventLoop()
    net = Network(loop)
    for name in ENDPOINTS:
        net.create_host(name).register_handler("test.bulk", lambda m: None)
    link = net.connect("a", "b", bandwidth_mbps=10.0, latency_ms=2.0)
    net.connect("b", "c", bandwidth_mbps=10.0, latency_ms=1.0)
    net.connect("b", "x", bandwidth_mbps=10.0, latency_ms=1.0)
    net.set_forward_delay("b", 0.5)
    return loop, net, link


def shadowed(link):
    """Mirror of the old list: every flown job appended (a pulled-back
    job that flies again moves to the end), never pruned here."""
    shadow = []
    fly = link._fly

    def spy(job):
        if job in shadow:
            shadow.remove(job)
        shadow.append(job)
        fly(job)

    link._fly = spy
    return shadow


def check(link, shadow):
    indexed = list(link._latency_flight.values())
    assert all(job.timer is not None and job.timer.active for job in indexed)
    assert indexed == prune_latency_flight(shadow)


operations = st.lists(st.one_of(
    st.tuples(st.just("send"), st.sampled_from(PAIRS),
              st.integers(min_value=0, max_value=250_000),
              st.floats(min_value=0.0, max_value=300.0)),
    st.tuples(st.just("window"), st.integers(min_value=2, max_value=5),
              st.integers(min_value=1_000, max_value=60_000)),
    st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=400.0)),
    st.tuples(st.just("abort"),),
), max_size=30)


@given(operations)
def test_index_matches_pruned_list(ops):
    loop, net, link = build()
    shadow = shadowed(link)
    for op in ops:
        if op[0] == "send":
            _, (src, dst), size, delay = op
            loop.call_later(delay, net.send, src, dst, "test.bulk",
                            None, size)
        elif op[0] == "window":
            _, count, size = op
            batch = [(None, size, None, None)] * count
            if net.send_window("a", "b", "test.bulk", batch) is None:
                for item in batch:
                    net.send("a", "b", "test.bulk", None, item[1])
        elif op[0] == "run":
            target = loop.now + op[1]
            while (due := loop._peek_due()) is not None \
                    and due.due <= target:
                loop.step()
                check(link, shadow)
            loop.advance(target - loop.now)
        else:
            link.abort_bulk()
        check(link, shadow)
    while loop.step():
        check(link, shadow)
    assert link._latency_flight == {}


def test_delivered_jobs_are_not_kept_alive():
    loop, net, link = build()
    receipts = [net.send("a", "b", "test.bulk", "x" * 100, 50_000)]
    loop.run_until_idle()
    assert receipts[0].delivered
    # No later enqueue prunes the link: the delivery itself must have
    # taken the job off.
    assert link._latency_flight == {}
    assert reachable_receipts(link) == []
    # Two contending flows on to the relay, then drained.
    receipts += [net.send("a", "c", "test.bulk", None, 120_000),
                 net.send("a", "x", "test.bulk", None, 90_000)]
    assert link.bulk_contended
    loop.run_until_idle()
    assert all(r.delivered for r in receipts)
    assert link._latency_flight == {}
    assert reachable_receipts(link) == []
