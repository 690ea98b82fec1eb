"""The busy-flow index against the frozen full scan over every flow.

``Link`` keeps an index of the bulk flows whose cursor may still be ahead
of ``now`` and drops idle ones as it meets them; the uncontended gate of
``enqueue_bulk`` and ``bulk_window_eligible`` reads it instead of
scanning every (source, destination) flow that ever crossed the link.
Random sequences of enqueues, overlapping flows (contention), drains and
hard cuts must give the same answer at every gate, and at extra probes
between operations.
"""

from hypothesis import given, strategies as st

from repro.net.kernel import EventLoop
from repro.net.simnet import Network, register_bulk_protocol

from tests.frozen_hotpath import other_flow_busy

register_bulk_protocol("test.bulk")

#: a-b is the link under test; flows to and from c and x cross it too.
ENDPOINTS = ["a", "b", "c", "x"]
PAIRS = [(s, d) for s in ENDPOINTS for d in ENDPOINTS
         if s != d and "a" in (s, d)]


def build():
    loop = EventLoop()
    net = Network(loop)
    for name in ENDPOINTS:
        net.create_host(name).register_handler("test.bulk", lambda m: None)
    link = net.connect("a", "b", bandwidth_mbps=10.0, latency_ms=2.0)
    net.connect("b", "c", bandwidth_mbps=10.0, latency_ms=1.0)
    net.connect("b", "x", bandwidth_mbps=10.0, latency_ms=1.0)
    return loop, net, link


def checked(link, gates):
    """Compare every gate the link consults with the full scan."""
    indexed = link._other_flow_busy

    def gate(flow_key, now):
        expected = other_flow_busy(link, flow_key, now)
        got = indexed(flow_key, now)
        assert got == expected, (flow_key, now)
        gates.append(got)
        return got

    link._other_flow_busy = gate
    return gate


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
def test_index_matches_full_scan(ops):
    loop, net, link = build()
    gates = []
    gate = checked(link, gates)
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
            loop.advance(op[1])
        else:
            link.abort_bulk()
        for key in list(link._flows) + [("b", "a")]:
            gate(key, loop.now)
    loop.run_until_idle()
    assert not any(gate(key, loop.now) for key in link._flows)


def test_contention_then_drain_reopens_the_fast_path():
    """Two overlapping flows go fluid; once both drain, a new flow sees
    an idle wire and the index has forgotten the stale flows."""
    loop, net, link = build()
    gates = []
    checked(link, gates)
    net.send("a", "b", "test.bulk", None, 125_000)
    net.send("a", "c", "test.bulk", None, 125_000)  # contends
    assert link.bulk_contended
    loop.run_until_idle()
    assert not link.bulk_contended
    net.send("a", "x", "test.bulk", None, 1_000)
    assert gates == [False, True, False]
    assert list(link._busy) == [("a", "x")]
