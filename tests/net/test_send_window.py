"""Tests for the analytic window fast path (``Network.send_window``).

A whole window round of bulk chunks on a direct, deterministic,
uncontended link is booked in ONE kernel event whose arithmetic is
identical to per-chunk ``send``; everything else falls back.  The
contract is pinned here at the network layer; end-to-end behaviour
(golden byte-identity at window=1, flap resume, lossy fallback) is
covered by ``tests/faults/test_transfer_window.py``.
"""

import pytest

from repro.net.kernel import EventLoop
from repro.net.simnet import Network, register_bulk_protocol

register_bulk_protocol("test.bulk")

CHUNK = 125_000  # 100 ms at 10 Mbps


def make_pair(bandwidth=10.0, latency=1.0, **kwargs):
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=bandwidth, latency_ms=latency,
                **kwargs)
    for host in ("h1", "h2"):
        net.host(host).register_handler("test.bulk", lambda m: None)
    return loop, net


def chunks(n, size=CHUNK, on_delivered=None, on_dropped=None):
    return [(f"chunk-{i}", size, on_delivered, on_dropped)
            for i in range(n)]


def test_window_books_one_kernel_event_for_the_whole_round():
    loop, net = make_pair()
    receipts = net.send_window("h1", "h2", "test.bulk", chunks(5))
    assert receipts is not None and len(receipts) == 5
    loop.run_until_idle()
    assert loop.processed == 1  # one batch timer, not five deliveries
    assert all(r.delivered for r in receipts)


def test_window_arrivals_match_per_chunk_send_arithmetic():
    """Same link, same chunk sizes: the batch's per-receipt arrival
    stamps equal what individual sends produce (serialize back-to-back,
    then latency)."""
    loop_a, net_a = make_pair(bandwidth=10.0, latency=2.0)
    batched = net_a.send_window("h1", "h2", "test.bulk", chunks(4))
    loop_a.run_until_idle()

    loop_b, net_b = make_pair(bandwidth=10.0, latency=2.0)
    singles = [net_b.send("h1", "h2", "test.bulk", f"chunk-{i}", CHUNK)
               for i in range(4)]
    loop_b.run_until_idle()

    for fast, slow in zip(batched, singles):
        assert fast.delivered and slow.delivered
        assert fast.delivered_at == pytest.approx(slow.delivered_at)
        assert fast.transfer_ms == pytest.approx(slow.transfer_ms)


def test_delivery_callbacks_fire_in_chunk_order():
    loop, net = make_pair()
    order = []
    batch = [(f"c{i}", CHUNK, lambda r, i=i: order.append(i), None)
             for i in range(4)]
    assert net.send_window("h1", "h2", "test.bulk", batch) is not None
    loop.run_until_idle()
    assert order == [0, 1, 2, 3]


def test_ledger_balances_after_a_batched_round():
    loop, net = make_pair()
    net.send_window("h1", "h2", "test.bulk", chunks(3))
    loop.run_until_idle()
    assert net.bytes_on_wire == 3 * CHUNK
    assert net.bytes_off_wire == net.bytes_on_wire
    assert net.host("h2").bytes_received == 3 * CHUNK


class TestFallbackGates:
    def test_single_chunk_declines(self):
        loop, net = make_pair()
        assert net.send_window("h1", "h2", "test.bulk", chunks(1)) is None

    def test_control_protocol_declines(self):
        loop, net = make_pair()
        net.host("h2").register_handler("ctl", lambda m: None)
        batch = [("c", CHUNK, None, None)] * 2
        assert net.send_window("h1", "h2", "ctl", batch) is None

    def test_jittery_link_declines(self):
        loop, net = make_pair(jitter_ms=5.0)
        assert net.send_window("h1", "h2", "test.bulk", chunks(3)) is None

    def test_lossy_link_declines(self):
        loop, net = make_pair(loss_rate=0.2)
        assert net.send_window("h1", "h2", "test.bulk", chunks(3)) is None

    def test_multi_hop_route_declines(self):
        loop = EventLoop()
        net = Network(loop)
        for name in ("h1", "gw", "h2"):
            net.create_host(name)
        net.connect("h1", "gw")
        net.connect("gw", "h2")
        assert net.send_window("h1", "h2", "test.bulk", chunks(3)) is None

    def test_contended_link_declines(self):
        loop, net = make_pair()
        # Opposite-direction bulk occupies the wire: a distinct flow.
        net.send("h2", "h1", "test.bulk", b"", CHUNK)
        assert net.send_window("h1", "h2", "test.bulk", chunks(3)) is None
        loop.run_until_idle()


def test_contention_mid_round_dissolves_the_batch():
    """A second flow joining mid-round falls back to the fluid model;
    every member still delivers exactly once, in order, and the byte
    ledger balances."""
    loop, net = make_pair()
    order = []
    batch = [(f"c{i}", CHUNK, lambda r, i=i: order.append(i), None)
             for i in range(4)]
    receipts = net.send_window("h1", "h2", "test.bulk", batch)
    assert receipts is not None
    # 150 ms in: chunk 0 has arrived, chunk 1 is serializing.
    rival = []
    loop.call_later(150.0, lambda: rival.append(
        net.send("h2", "h1", "test.bulk", b"", CHUNK)))
    loop.run_until_idle()
    assert order == [0, 1, 2, 3]
    assert all(r.delivered for r in receipts)
    assert rival[0].delivered
    assert net.bytes_off_wire == net.bytes_on_wire


def test_hard_cut_mid_round_delivers_arrived_prefix_and_drops_rest():
    """disconnect(drop_in_flight=True) mid-round: members whose analytic
    arrival already passed deliver (the cut cannot retract bytes that
    reached the far end); the rest drop.  This is what keeps go-back-N
    checkpointed resume exact under the fast path."""
    loop, net = make_pair(latency=1.0)
    delivered, dropped = [], []
    batch = [(f"c{i}", CHUNK,
              lambda r, i=i: delivered.append(i),
              lambda r, i=i: dropped.append(i)) for i in range(4)]
    receipts = net.send_window("h1", "h2", "test.bulk", batch)
    assert receipts is not None
    # Arrivals: 101, 201, 301, 401 ms.  Cut at 250: chunks 0-1 arrived.
    loop.call_later(250.0, net.disconnect, "h1", "h2", True)
    loop.run_until_idle()
    assert delivered == [0, 1]
    assert dropped == [2, 3]
    assert receipts[0].delivered_at == pytest.approx(101.0)
    assert receipts[1].delivered_at == pytest.approx(201.0)
    assert all(r.dropped for r in receipts[2:])
    assert net.bytes_off_wire == net.bytes_on_wire


def test_offline_destination_raises_like_send():
    from repro.net.simnet import HostOfflineError
    loop, net = make_pair()
    net.host("h2").online = False
    with pytest.raises(HostOfflineError):
        net.send_window("h1", "h2", "test.bulk", chunks(2))


def test_window_queue_telemetry_matches_per_chunk_send():
    """``net.link.queue_ms`` records each chunk's wait behind the round's
    earlier chunks, read before the round is booked: four 10 kB chunks on
    an 8 Mb/s link wait 0, 10, 20 and 30 ms either way."""
    from repro.obs import Observability

    def queue_series(windowed):
        obs = Observability()
        loop, net = make_pair(bandwidth=8.0)
        obs.attach(loop)
        if windowed:
            assert net.send_window("h1", "h2", "test.bulk",
                                   chunks(4, size=10_000)) is not None
        else:
            for i in range(4):
                net.send("h1", "h2", "test.bulk", f"chunk-{i}", 10_000)
        loop.run_until_idle()
        return obs.metrics.histogram("net.link.queue_ms",
                                     link="h1<->h2").values

    assert queue_series(windowed=True) == queue_series(windowed=False) \
        == pytest.approx([0.0, 10.0, 20.0, 30.0])
