"""The per-link in-flight index holds pending control hops only.

A hop enters the index when it goes on the wire and leaves it when its
delivery or forward event fires, so the index never keeps a delivered
receipt (or its payload) alive, and a hard cut still finds every hop it
must drop, in send order.
"""

import gc
import types

from repro.net.kernel import EventLoop
from repro.net.simnet import DeliveryReceipt, Network


def chain(hosts=4, latency_ms=5.0):
    """h0 - h1 - ... - h{n-1}; every host accepts protocol ``ctl``."""
    loop = EventLoop()
    net = Network(loop)
    for i in range(hosts):
        net.create_host(f"h{i}").register_handler("ctl", lambda m: None)
    for i in range(hosts - 1):
        net.connect(f"h{i}", f"h{i + 1}", bandwidth_mbps=10.0,
                    latency_ms=latency_ms)
        net.set_forward_delay(f"h{i + 1}", 1.0)
    return loop, net


def indexed(net):
    return [entry for entries in net._in_flight.values()
            for entry in entries.values()]


def reachable_receipts(root):
    """Every DeliveryReceipt reachable from ``root`` by object references
    (modules and classes are not followed)."""
    seen, found, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, DeliveryReceipt):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_index_holds_only_pending_hops_and_drains_empty():
    loop, net = chain()
    receipts = []
    for i in range(12):
        loop.call_at(i * 3.0, lambda: receipts.append(
            net.send("h0", "h3", "ctl", "x" * 100, 4_000)))
        loop.call_at(i * 3.0 + 1.0, lambda: receipts.append(
            net.send("h3", "h1", "ctl", "y" * 100, 2_000)))
    peak = 0
    while loop.step():
        entries = indexed(net)
        peak = max(peak, len(entries))
        assert all(timer.active for timer, _, _ in entries)
        # Each pending message sits on exactly one hop.
        pending = [r for r in receipts if r.in_flight]
        assert sorted(r.message.message_id for _, r, _ in entries) == \
            sorted(r.message.message_id for r in pending)
    assert peak > 1
    assert len(receipts) == 24 and all(r.delivered for r in receipts)
    assert indexed(net) == []
    assert reachable_receipts(net) == []


def test_hard_cut_drops_surviving_hops_in_send_order():
    loop, net = chain(hosts=2, latency_ms=50.0)
    dropped = []
    receipts = [net.send("h0", "h1", "ctl", i, 1_000,
                         on_dropped=lambda r: dropped.append(r.message.payload))
                for i in range(5)]
    loop.advance(50.9)  # the first message has arrived, four are flying
    assert receipts[0].delivered
    net.disconnect("h0", "h1", drop_in_flight=True)
    assert dropped == [1, 2, 3, 4]
    assert net.bytes_on_wire == net.bytes_off_wire
    assert net._in_flight == {}
    loop.run_until_idle()
    assert [r.delivered for r in receipts] == [True] + [False] * 4


def test_graceful_detach_lets_in_flight_hops_drain():
    loop, net = chain(hosts=3)
    receipt = net.send("h0", "h2", "ctl", None, 1_000)
    loop.advance(1.0)
    net.disconnect("h0", "h1")  # the first hop is already on the wire
    loop.run_until_idle()
    assert receipt.delivered
    assert indexed(net) == []
