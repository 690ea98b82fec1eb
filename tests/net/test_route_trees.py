"""Per-source route trees against the frozen per-pair BFS.

``Network.route`` reads every path off one parent-map BFS per source.
The first host to discover a node is its parent, which must reproduce
the old per-pair search's path exactly -- including which of several
equal-length paths wins -- on any graph, with offline relays, offline
destinations and unreachable pairs.
"""

import pytest
from hypothesis import given, strategies as st

from repro.net.kernel import EventLoop
from repro.net.simnet import Network, NetworkError, UnreachableHostError

from tests.frozen_hotpath import route_bfs


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    offline = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return n, edges, offline


def build(n, edges, offline):
    net = Network(EventLoop())
    for i in range(n):
        net.create_host(f"h{i}")
    for a, b in edges:
        net.connect(f"h{a}", f"h{b}")
    for i in offline:
        net.host(f"h{i}").online = False
    return net


def outcome(fn, source, destination):
    try:
        return fn(source, destination)
    except UnreachableHostError:
        return "unreachable"


def assert_all_pairs_match(net, names):
    for source in names:
        for destination in names:
            expected = outcome(lambda s, d: route_bfs(net, s, d),
                               source, destination)
            assert outcome(net.route, source, destination) == expected, \
                (source, destination)


@given(graphs())
def test_every_pair_matches_the_per_pair_bfs(graph):
    n, edges, offline = graph
    net = build(n, edges, offline)
    assert_all_pairs_match(net, [f"h{i}" for i in range(n)])


@given(graphs(), st.lists(st.integers(min_value=0, max_value=9),
                          max_size=4))
def test_trees_follow_online_flips(graph, flips):
    """Routes stay equal to a fresh BFS after each connectivity change,
    so no tree outlives the view it was built from."""
    n, edges, offline = graph
    net = build(n, edges, offline)
    names = [f"h{i}" for i in range(n)]
    assert_all_pairs_match(net, names)
    for i in flips:
        host = net.host(f"h{i % n}")
        host.online = not host.online
        assert_all_pairs_match(net, names)


def test_offline_relay_is_an_endpoint_but_never_expanded():
    # h0 - h1 - h2, and a longer detour h0 - h3 - h4 - h2.
    net = build(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)], offline={1})
    assert net.route("h0", "h1") == ["h0", "h1"]  # offline destination
    assert net.route("h0", "h2") == ["h0", "h3", "h4", "h2"]
    net.host("h4").online = False
    with pytest.raises(UnreachableHostError):
        net.route("h0", "h2")  # only offline relays lead there
    net.host("h1").online = True
    assert net.route("h0", "h2") == ["h0", "h1", "h2"]


def test_equal_length_ties_resolve_in_adjacency_order():
    # Two 2-hop paths h0 -> h3; the link connected first is expanded first.
    net = build(4, [(0, 2), (0, 1), (1, 3), (2, 3)], offline=set())
    assert net.route("h0", "h3") == route_bfs(net, "h0", "h3") \
        == ["h0", "h2", "h3"]


def test_unknown_endpoint_raises_network_error():
    net = build(2, [(0, 1)], offline=set())
    for pair in (("h0", "nope"), ("nope", "h0")):
        with pytest.raises(NetworkError) as info:
            net.route(*pair)
        assert not isinstance(info.value, UnreachableHostError)


def test_cache_counters_count_pair_lookups():
    """One tree per source serves many destinations, but hits and misses
    keep counting pair lookups: a miss is the first successful lookup of
    a pair since the last invalidation, a hit any repeat."""
    net = build(4, [(0, 1), (1, 2), (2, 3)], offline=set())
    net.route("h0", "h3")
    net.route("h0", "h2")
    net.route("h0", "h3")
    assert (net.route_cache_hits, net.route_cache_misses) == (1, 2)
    net.host("h3").online = False
    net.host("h3").online = True
    net.route("h0", "h3")
    assert (net.route_cache_hits, net.route_cache_misses) == (1, 3)
    net.host("h1").online = False
    for _ in range(2):
        with pytest.raises(UnreachableHostError):
            net.route("h0", "h3")
    assert (net.route_cache_hits, net.route_cache_misses) == (1, 3)
