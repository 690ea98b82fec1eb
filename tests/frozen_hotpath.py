"""Frozen copies of the network/bus/serialization hot paths before their
indexed rewrites, kept as differential oracles.

Each function reproduces the replaced code verbatim, reading the same
object state the live code maintains; the tests compare the live code
against them on random inputs.  Do not "fix" or speed these up: their
only job is to stay what the old code was.
"""

from typing import Any, Dict, List, Tuple

from repro.agents.serialization import SerializationError
from repro.net.simnet import Link, Network, NetworkError, UnreachableHostError

_OVERHEAD_PER_OBJECT = 16
_SIZE_BOOL = 1
_SIZE_NUMBER = 8


def route_bfs(network: Network, source: str, destination: str) -> List[str]:
    """The per-pair BFS that copied whole paths at each frontier node."""
    hosts = network._hosts
    adjacency = network._adjacency
    if source not in hosts or destination not in hosts:
        raise NetworkError(f"unknown endpoint {source!r} or {destination!r}")
    if source == destination:
        return [source]
    visited = {source}
    frontier: List[List[str]] = [[source]]
    while frontier:
        next_frontier: List[List[str]] = []
        for path in frontier:
            tail = path[-1]
            for link in adjacency[tail]:
                nxt = link.b if link.a == tail else link.a
                if nxt in visited:
                    continue
                if nxt == destination:
                    return path + [nxt]
                if not hosts[nxt].online:
                    continue
                visited.add(nxt)
                next_frontier.append(path + [nxt])
        frontier = next_frontier
    raise UnreachableHostError(f"no route from {source!r} to {destination!r}")


def other_flow_busy(link: Link, flow_key: Tuple[str, str], now: float) -> bool:
    """The uncontended gate's full scan over every flow that ever crossed
    the link (``Link.enqueue_bulk`` / ``Link.bulk_window_eligible``)."""
    return any(f.cursor > now + Link._EPS and f.key != flow_key
               for f in link._flows.values())


def publish_candidates(exact_index: Dict[str, list], subscriptions: list,
                       topic: str) -> list:
    """``ContextBus.publish``'s candidate list: the exact bucket, then a
    rescan of every subscription for wildcards."""
    candidates = list(exact_index.get(topic, ()))
    candidates.extend(s for s in subscriptions if s.topic.endswith("*"))
    return candidates


def matches(subscription, event) -> bool:
    """``Subscription.matches`` re-deriving the prefix on every call."""
    if not subscription.active:
        return False
    if subscription.topic.endswith("*"):
        if not event.topic.startswith(subscription.topic[:-1]):
            return False
    elif event.topic != subscription.topic:
        return False
    if subscription.predicate is not None and not subscription.predicate(event):
        return False
    return True


def deep_size_bytes(value: Any) -> int:
    """The ``isinstance``-chain size walk."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return _SIZE_BOOL
    if isinstance(value, (int, float)):
        return _SIZE_NUMBER
    if isinstance(value, str):
        return _OVERHEAD_PER_OBJECT + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _OVERHEAD_PER_OBJECT + len(value)
    total = 0
    stack = [value]
    open_ids: set = set()
    while stack:
        node = stack.pop()
        if type(node) is _CloseFrame:
            open_ids.discard(node.ident)
            continue
        if node is None:
            total += 1
            continue
        if isinstance(node, bool):
            total += _SIZE_BOOL
            continue
        if isinstance(node, (int, float)):
            total += _SIZE_NUMBER
            continue
        if isinstance(node, str):
            total += _OVERHEAD_PER_OBJECT + len(node.encode("utf-8"))
            continue
        if isinstance(node, (bytes, bytearray)):
            total += _OVERHEAD_PER_OBJECT + len(node)
            continue
        if isinstance(node, (list, tuple, set, frozenset)):
            ident = id(node)
            if ident in open_ids:
                raise SerializationError(
                    "cannot size cyclic agent state: a "
                    f"{type(node).__name__} contains itself")
            open_ids.add(ident)
            total += _OVERHEAD_PER_OBJECT
            stack.append(_CloseFrame(ident))
            stack.extend(node)
            continue
        if isinstance(node, dict):
            ident = id(node)
            if ident in open_ids:
                raise SerializationError(
                    "cannot size cyclic agent state: a dict contains "
                    "itself")
            open_ids.add(ident)
            total += _OVERHEAD_PER_OBJECT
            virtual = node.get("__virtual_bytes__")
            if type(virtual) is int and virtual > 0:
                total += virtual
            stack.append(_CloseFrame(ident))
            for k, v in node.items():
                stack.append(k)
                stack.append(v)
            continue
        declared = getattr(node, "size_bytes", None)
        if type(declared) is int:
            total += _OVERHEAD_PER_OBJECT + declared
            continue
        raise SerializationError(
            f"cannot size value of type {type(node).__name__}; agent state "
            f"must be plain data")
    return total


class _CloseFrame:
    __slots__ = ("ident",)

    def __init__(self, ident: int):
        self.ident = ident


def prune_latency_flight(jobs: list) -> list:
    """``Link._prune_latency_flight``: the latency-flight list kept every
    job ever flown until the next uncontended enqueue filtered it down to
    the jobs whose delivery event is still booked."""
    return [j for j in jobs if j.timer is not None and j.timer.active]
