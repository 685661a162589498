"""Deterministic in-process message network.

Components never share state; they exchange Messages through a Network
that delivers them in (delivery_time, sender, sequence) order.  With a
fixed per-network latency this preserves per-sender FIFO, and the global
order is reproducible regardless of how handlers interleave their sends.

Each kind carries one payload type per recipient:

    kind             sender -> recipient  payload
    SPAWN_CHILD      parent -> host       Spawn
    FUND_AUCTIONEER  parent -> bank       FundRequest
    FUND_AUCTIONEER  bank -> host         Fund
    KILL_CHILD       parent -> host       the child key, a str
    QUERY_PROGRESS   parent -> host       the child key, a str
    PROGRESS_REPORT  host -> parent       Progress
    TRANSFER         host -> bank         Settle
    TRANSFER         parent -> bank       Settle({}, [child key]), a close
    TRANSFER         bank -> parent       the micro-credits swept back, an int
    ADVERTISE        host -> sls          None
    LOOKUP           parent -> sls        None
    LOOKUP_RESULT    sls -> parent        the live host ids, a list of str

Amounts are integer micro-credits; spend, progress and funds in a
Progress report are the host's float credits and work.
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


class Spawn(NamedTuple):
    """Open a seat for the child that bids from activate_at on."""
    child_key: str
    activate_at: float


class FundRequest(NamedTuple):
    """Move amount into the child's escrow and fund the child at host."""
    host: str
    child_key: str
    amount: int


class Fund(NamedTuple):
    """The bank has moved amount into the child's escrow."""
    child_key: str
    amount: int


class Progress(NamedTuple):
    """A child's work, metered spend and balance.  Progress(child_key),
    with no figures, says the host has no seat for that child."""
    child_key: str
    progress: float | None = None
    spent: float | None = None
    funds: float | None = None


class Settle(NamedTuple):
    """Pay the sender each child's cumulative spend, then close escrows."""
    cumulative: dict[str, int]
    close: list[str]


Payload = (Spawn | FundRequest | Fund | Progress | Settle | str | int | list
           | None)


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
    payload: Payload


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

    def send(self, now: float, sender: str, recipient: str, kind: MessageKind,
             payload: Payload = None) -> None:
        self.sent += 1
        if self.drop_probability and self._rng.random() < self.drop_probability:
            self.dropped += 1
            return
        # The send count is the sequence number: it rises in send order.
        heapq.heappush(self._queue, Message(now + self.latency, sender,
                                            self.sent, recipient, kind,
                                            payload))

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
