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


# Drop coins are drawn from the generator this many at a time; a block
# yields the same doubles as one random() call per send.
COIN_BLOCK = 256


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
        self._coins: list[float] = []
        self._next_coin = 0
        self._queue: list[Message] = []
        self._seq_by_sender = {}
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
        if self.drop_probability:
            coins, i = self._coins, self._next_coin
            if i == len(coins):
                coins = self._coins = self._rng.random(COIN_BLOCK).tolist()
                i = 0
            self._next_coin = i + 1
            if coins[i] < self.drop_probability:
                self.dropped += 1
                return
        seq = self._seq_by_sender.get(sender, 0)
        self._seq_by_sender[sender] = seq + 1
        heapq.heappush(self._queue, Message(now + self.latency, sender, seq,
                                            recipient, kind, payload or {}))

    def pump(self, now: float) -> int:
        """Deliver everything due at or before now; returns the count.

        Messages to unregistered components (dead hosts) are counted and
        discarded, never raised: a crashed recipient must not take the
        rest of the system down with it.
        """
        queue, handlers, pop = self._queue, self._handlers, heapq.heappop
        delivered = 0
        while queue and queue[0][0] <= now:
            msg = pop(queue)
            handler = handlers.get(msg.recipient)
            if handler is None:
                self.undeliverable += 1
                continue
            handler(msg)
            delivered += 1
        return delivered
