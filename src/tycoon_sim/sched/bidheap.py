"""Indexed binary max-heap over bids with instrumented comparisons.

The scheduler needs the highest bid in O(1) and bid updates in O(log n)
when a winner is charged or an account funded.  ``heapq`` cannot re-key an
arbitrary entry, so this keeps an id -> position index alongside the heap
array.  Every entry-vs-entry ordering test bumps ``comparisons`` so tests
can assert logarithmic growth directly.

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

    # The sifts inline ``_before`` on local lists and carry the moving
    # entry in a hole, writing it once where it comes to rest.  Each
    # entry-vs-entry test counts one comparison, as ``_before`` does.

    def _sift_up(self, i: int) -> None:
        ids, bids, pos = self._ids, self._bids, self._pos
        agent, bid = ids[i], bids[i]
        tests = 0
        while i > 0:
            parent = (i - 1) >> 1
            parent_bid = bids[parent]
            tests += 1
            if not (bid > parent_bid if bid != parent_bid
                    else agent < ids[parent]):
                break
            ids[i] = moved = ids[parent]
            bids[i] = parent_bid
            pos[moved] = i
            i = parent
        ids[i] = agent
        bids[i] = bid
        pos[agent] = i
        self.comparisons += tests

    def _sift_down(self, i: int) -> None:
        ids, bids, pos = self._ids, self._bids, self._pos
        n = len(ids)
        agent, bid = ids[i], bids[i]
        tests = 0
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            best, best_id, best_bid = i, agent, bid
            child_bid = bids[left]
            tests += 1
            if (child_bid > best_bid if child_bid != best_bid
                    else ids[left] < best_id):
                best, best_id, best_bid = left, ids[left], child_bid
            right = left + 1
            if right < n:
                child_bid = bids[right]
                tests += 1
                if (child_bid > best_bid if child_bid != best_bid
                        else ids[right] < best_id):
                    best, best_id, best_bid = right, ids[right], child_bid
            if best == i:
                break
            ids[i] = best_id
            bids[i] = best_bid
            pos[best_id] = i
            i = best
        ids[i] = agent
        bids[i] = bid
        pos[agent] = i
        self.comparisons += tests

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
        i = self._pos.pop(agent_id)
        last = len(self._ids) - 1
        if i != last:
            self._ids[i] = self._ids[last]
            self._bids[i] = self._bids[last]
            self._pos[self._ids[i]] = i
        self._ids.pop()
        self._bids.pop()
        if i <= last - 1:
            self._sift_down(i)
            self._sift_up(i)
