"""Indexed binary max-heap over bids with instrumented comparisons.

The scheduler needs the highest bid in O(1) and bid updates in O(log n)
when a winner is charged or an account funded.  ``heapq`` cannot re-key an
arbitrary entry, so this keeps an id -> position index alongside the heap
array.  Every entry-vs-entry ordering test goes through ``_before``,
which bumps ``comparisons``, so tests can assert logarithmic growth
directly.

Ordering: higher bid first; equal bids fall back to the lower agent id, so
results are deterministic and reproducible.
"""

from __future__ import annotations


class BidHeap:
    def __init__(self):
        self._ids: list = []
        self._bids: list[float] = []
        self._pos: dict = {}
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, agent_id) -> bool:
        return agent_id in self._pos

    def _before(self, i: int, j: int) -> bool:
        """True when entry i outranks entry j."""
        self.comparisons += 1
        if self._bids[i] != self._bids[j]:
            return self._bids[i] > self._bids[j]
        return self._ids[i] < self._ids[j]

    def _swap(self, i: int, j: int) -> None:
        ids, bids = self._ids, self._bids
        ids[i], ids[j] = ids[j], ids[i]
        bids[i], bids[j] = bids[j], bids[i]
        self._pos[ids[i]] = i
        self._pos[ids[j]] = j

    def _sift_up(self, i: int) -> None:
        while i > 0:
            parent = (i - 1) >> 1
            if not self._before(i, parent):
                return
            self._swap(i, parent)
            i = parent

    def _sift_down(self, i: int) -> int:
        n = len(self._ids)
        while True:
            best = i
            for child in (2 * i + 1, 2 * i + 2):
                if child < n and self._before(child, best):
                    best = child
            if best == i:
                return i
            self._swap(i, best)
            i = best

    def push(self, agent_id, bid: float) -> None:
        if agent_id in self._pos:
            raise KeyError(f"agent {agent_id!r} already queued")
        self._ids.append(agent_id)
        self._bids.append(bid)
        self._pos[agent_id] = len(self._ids) - 1
        self._sift_up(len(self._ids) - 1)

    def peek(self):
        """(agent_id, bid) of the highest bidder, or None when empty."""
        if not self._ids:
            return None
        return self._ids[0], self._bids[0]

    def entries(self) -> tuple[list, list[float]]:
        """Copies of the queued ids and of their bids, position for
        position, in no particular order."""
        return list(self._ids), list(self._bids)

    def second(self):
        """(agent_id, bid) of the runner-up, or None.

        In a binary max-heap the second-best entry is one of the root's
        children, so this is O(1).
        """
        n = len(self._ids)
        if n < 2:
            return None
        if n == 2 or self._before(1, 2):
            return self._ids[1], self._bids[1]
        return self._ids[2], self._bids[2]

    def update(self, agent_id, bid: float) -> None:
        i = self._pos[agent_id]
        old = self._bids[i]
        self._bids[i] = bid
        if bid > old:
            self._sift_up(i)
        elif bid < old:
            self._sift_down(i)

    def remove(self, agent_id) -> None:
        i = self._pos[agent_id]
        last = len(self._ids) - 1
        self._swap(i, last)
        del self._pos[agent_id]
        self._ids.pop()
        self._bids.pop()
        if i < last and self._sift_down(i) == i:
            # Only a filler that did not sink can outrank i's parent.
            self._sift_up(i)
