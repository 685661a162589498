"""Deterministic in-process message network.

Components never share state; they exchange Messages through a Network
that delivers them in (delivery_time, sender, sequence) order.  With a
fixed per-network latency this preserves per-sender FIFO, and the global
order is reproducible regardless of how handlers interleave their sends.
"""

import heapq
from enum import Enum
from typing import NamedTuple

import numpy as np


class MessageKind(Enum):
    TRANSFER = "transfer"
    FUND_AUCTIONEER = "fund_auctioneer"
    QUERY_PROGRESS = "query_progress"
    PROGRESS_REPORT = "progress_report"
    ADVERTISE = "advertise"
    LOOKUP = "lookup"
    LOOKUP_RESULT = "lookup_result"
    KILL_CHILD = "kill_child"
    SPAWN_CHILD = "spawn_child"


class Message(NamedTuple):
    """One message, and its own entry in the delivery heap.

    The leading fields are the delivery order.  (delivery_time, sender,
    seq) is unique, so heap comparisons never reach the fields after it.
    """

    delivery_time: float
    sender: str
    seq: int
    recipient: str
    kind: MessageKind
    payload: dict


class Network:
    """Priority-queue message fabric, optional latency (>= 0) and loss (< 1).

    Handlers registered per component id are invoked at delivery time and
    may send further messages; a zero-latency send from inside a handler
    is delivered within the same pump, so chains settle before simulated
    time advances.
    """

    def __init__(self, latency: float = 0.0, drop_probability: float = 0.0,
                 seed: int = 0):
        self.latency = latency
        self.drop_probability = drop_probability
        self._rng = np.random.default_rng(seed)
        self._queue: list[Message] = []
        self._handlers = {}
        self.sent = 0
        self.dropped = 0
        self.undeliverable = 0

    def register(self, component_id: str, handler) -> None:
        self._handlers[component_id] = handler

    def unregister(self, component_id: str) -> None:
        self._handlers.pop(component_id, None)

    def send(self, now: float, sender: str, recipient: str,
             kind: MessageKind, payload: dict | None = None) -> None:
        self.sent += 1
        if self.drop_probability and self._rng.random() < self.drop_probability:
            self.dropped += 1
            return
        # The send count is the sequence number: it rises in send order.
        heapq.heappush(self._queue, Message(now + self.latency, sender,
                                            self.sent, recipient, kind,
                                            payload or {}))

    def next_delivery(self) -> float | None:
        """Delivery time of the first message in the queue, if any."""
        return self._queue[0].delivery_time if self._queue else None

    def pump(self, now: float) -> None:
        """Deliver everything due at or before now.

        Messages to unregistered components (dead hosts) are counted and
        discarded, never raised: a crashed recipient must not take the
        rest of the system down with it.
        """
        while self._queue and self._queue[0].delivery_time <= now:
            msg = heapq.heappop(self._queue)
            handler = self._handlers.get(msg.recipient)
            if handler is None:
                self.undeliverable += 1
                continue
            handler(msg)
