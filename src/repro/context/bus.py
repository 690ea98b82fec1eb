"""Publish/subscribe context kernel.

"Context kernel employs a publish/subscribe design pattern.  When the
subscribed events occur, the information will be multicast to the registered
listeners." (paper §5.)

Listeners subscribe by topic (exact or prefix with ``*``) and an optional
predicate.  Delivery is asynchronous through the event loop -- a publish
never reenters subscriber code synchronously, which keeps agent callback
ordering sane -- but costs zero simulated time by default (intra-host bus).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.context.model import ContextEvent
from repro.net.kernel import EventLoop

Listener = Callable[[ContextEvent], None]
Predicate = Callable[[ContextEvent], bool]


class Subscription:
    """Handle returned by subscribe(); call cancel() to stop receiving."""

    _ids = itertools.count(1)

    def __init__(self, bus: "ContextBus", topic: str, listener: Listener,
                 predicate: Optional[Predicate]):
        self.subscription_id = next(self._ids)
        self.topic = topic
        #: ``"raw.*"`` -> ``"raw."``; ``None`` for an exact topic.
        self.prefix = topic[:-1] if topic.endswith("*") else None
        self.listener = listener
        self.predicate = predicate
        self._bus = bus
        self.active = True
        self.delivered = 0

    def cancel(self) -> None:
        if self.active:
            self.active = False
            self._bus._remove(self)

    def matches(self, event: ContextEvent) -> bool:
        if not self.active:
            return False
        if self.prefix is not None:
            if not event.topic.startswith(self.prefix):
                return False
        elif event.topic != self.topic:
            return False
        if self.predicate is not None and not self.predicate(event):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "cancelled"
        return f"<Subscription #{self.subscription_id} {self.topic} {state}>"


class ContextBus:
    """Topic-based pub/sub multicast over the simulation event loop."""

    def __init__(self, loop: EventLoop, delivery_delay_ms: float = 0.0):
        self.loop = loop
        self.delivery_delay_ms = float(delivery_delay_ms)
        self._subscriptions: List[Subscription] = []
        self._exact_index: Dict[str, List[Subscription]] = {}
        #: Prefix (``*``) subscriptions in subscription order: every
        #: publish must try them, so they are kept apart from the rest.
        self._wildcards: List[Subscription] = []
        self.published = 0

    def subscribe(self, topic: str, listener: Listener,
                  predicate: Optional[Predicate] = None) -> Subscription:
        """Register a listener for ``topic``.

        ``topic`` may end with ``*`` for prefix matching (e.g. ``"raw.*"``).
        ``predicate`` further filters events ("agents will filter and find
        their interested subjects").
        """
        if not topic:
            raise ValueError("topic must be non-empty")
        subscription = Subscription(self, topic, listener, predicate)
        self._subscriptions.append(subscription)
        if subscription.prefix is None:
            self._exact_index.setdefault(topic, []).append(subscription)
        else:
            self._wildcards.append(subscription)
        return subscription

    def _remove(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass
        if subscription.prefix is None:
            bucket = self._exact_index.get(subscription.topic, ())
        else:
            bucket = self._wildcards
        if subscription in bucket:
            bucket.remove(subscription)

    def publish(self, event: ContextEvent) -> int:
        """Multicast ``event``; returns the number of listeners scheduled.

        The event timestamp is stamped with the current simulated time if
        unset (zero).
        """
        if event.timestamp == 0.0 and self.loop.now > 0.0:
            event.timestamp = self.loop.now
        self.published += 1
        count = 0
        # Exact-topic subscribers, then the wildcard ones (a new list, so
        # a predicate that (un)subscribes cannot disturb this publish).
        candidates = self._exact_index.get(event.topic, []) + self._wildcards
        for subscription in candidates:
            if subscription.matches(event):
                count += 1
                self.loop.call_later(self.delivery_delay_ms,
                                     self._deliver, subscription, event)
        return count

    @staticmethod
    def _deliver(subscription: Subscription, event: ContextEvent) -> None:
        if subscription.active:
            subscription.delivered += 1
            subscription.listener(event)

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)
