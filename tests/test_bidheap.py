"""BidHeap against brute-force oracles, plus the comparison-cost bound."""

import math

import numpy as np
import pytest

from tycoon_sim.sched.bidheap import BidHeap


def brute_best(entries: dict):
    # Highest bid, ties to the lowest id: the heap's documented order.
    return min(entries.items(), key=lambda kv: (-kv[1], kv[0]))


def test_push_peek_matches_linear_scan():
    rng = np.random.default_rng(7)
    heap = BidHeap()
    entries = {}
    for agent in range(200):
        bid = float(rng.integers(0, 50))  # coarse grid forces ties
        heap.push(agent, bid)
        entries[agent] = bid
        assert heap.peek() == brute_best(entries)


def test_pop_yields_full_sorted_order():
    rng = np.random.default_rng(8)
    heap = BidHeap()
    entries = {i: float(rng.integers(0, 20)) for i in range(150)}
    for agent, bid in entries.items():
        heap.push(agent, bid)
    drained = []
    while len(heap):
        top = heap.peek()
        heap.remove(top[0])
        drained.append(top)
    expected = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
    assert drained == expected
    assert heap.peek() is None


def test_update_rekeys_against_oracle():
    rng = np.random.default_rng(9)
    heap = BidHeap()
    entries = {i: float(rng.random()) for i in range(64)}
    for agent, bid in entries.items():
        heap.push(agent, bid)
    for _ in range(500):
        agent = int(rng.integers(64))
        bid = float(rng.integers(0, 10))
        heap.update(agent, bid)
        entries[agent] = bid
        assert heap.peek() == brute_best(entries)
        assert heap.bid_of(agent) == bid


def test_second_matches_sorted_runner_up():
    rng = np.random.default_rng(10)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        entries = {i: float(rng.integers(0, 6)) for i in range(n)}
        heap = BidHeap()
        for agent, bid in entries.items():
            heap.push(agent, bid)
        ranked = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
        assert heap.second() == ranked[1]


def test_remove_keeps_heap_consistent():
    rng = np.random.default_rng(11)
    heap = BidHeap()
    entries = {i: float(rng.random()) for i in range(80)}
    for agent, bid in entries.items():
        heap.push(agent, bid)
    order = list(entries)
    rng.shuffle(order)
    for agent in order:
        heap.remove(agent)
        del entries[agent]
        assert agent not in heap
        if entries:
            assert heap.peek() == brute_best(entries)
    assert len(heap) == 0


def test_duplicate_push_rejected():
    heap = BidHeap()
    heap.push("a", 1.0)
    with pytest.raises(KeyError):
        heap.push("a", 2.0)


def test_empty_heap_views():
    heap = BidHeap()
    assert heap.peek() is None
    assert heap.second() is None
    assert "a" not in heap


def max_op_comparisons(n: int, seed: int) -> int:
    """Worst single-operation comparison count on a heap of n entries."""
    rng = np.random.default_rng(seed)
    heap = BidHeap()
    for agent in range(n):
        heap.push(agent, float(rng.random()))
    worst = 0
    for _ in range(200):
        agent = int(rng.integers(n))
        before = heap.comparisons
        heap.update(agent, float(rng.random()))
        worst = max(worst, heap.comparisons - before)
        before = heap.comparisons
        top = heap.peek()
        heap.remove(top[0])
        heap.push(top[0], float(rng.random()))
        worst = max(worst, heap.comparisons - before)
    return worst


def test_comparisons_grow_logarithmically():
    # One update or pop on a binary heap inspects O(log n) entries; a
    # generous constant keeps the bound meaningful without being brittle.
    for n in (4, 64, 1024):
        worst = max_op_comparisons(n, seed=n)
        assert worst <= 6 * math.ceil(math.log2(n)) + 6
