"""BidHeap against brute-force oracles, plus the comparison-cost bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tycoon_sim.sched.bidheap import BidHeap


def brute_best(entries: dict):
    # Highest bid, ties to the lowest id: the heap's documented order.
    return min(entries.items(), key=lambda kv: (-kv[1], kv[0]))


def ranked(entries: dict) -> list:
    return sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))


def drain(heap: BidHeap) -> list:
    """Empty the heap through peek() + remove(), best entry first."""
    drained = []
    while len(heap):
        top = heap.peek()
        heap.remove(top[0])
        drained.append(top)
    return drained


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
    assert drain(heap) == ranked(entries)
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
    assert drain(heap) == ranked(entries)


def test_second_matches_sorted_runner_up():
    rng = np.random.default_rng(10)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        entries = {i: float(rng.integers(0, 6)) for i in range(n)}
        heap = BidHeap()
        for agent, bid in entries.items():
            heap.push(agent, bid)
        assert heap.second() == ranked(entries)[1]


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


# Random operation sequences; bids come from a small grid so that ties on
# bid, broken by agent id, are common.  peek() is checked after every step.
_OPS = st.lists(st.tuples(st.sampled_from(["push", "update", "remove",
                                           "second"]),
                          st.integers(0, 11), st.integers(0, 5)),
                max_size=120)


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_random_operations_match_brute_force_scan(ops):
    heap = BidHeap()
    entries = {}
    for op, agent, bid in ops:
        bid = float(bid)
        if op == "push" and agent not in entries:
            heap.push(agent, bid)
            entries[agent] = bid
        elif op == "update" and agent in entries:
            heap.update(agent, bid)
            entries[agent] = bid
        elif op == "remove" and agent in entries:
            heap.remove(agent)
            del entries[agent]
        order = ranked(entries)
        if op == "second":
            assert heap.second() == (order[1] if len(order) > 1 else None)
        assert heap.peek() == (order[0] if order else None)
        assert len(heap) == len(entries)
        assert all((a in heap) == (a in entries) for a in range(12))


def test_comparison_count_is_pinned():
    # 3,000 seeded push/update/remove/second calls.  A sift that tests
    # entries more or fewer times than one per ordering decision moves
    # the count, and with it criterion 8's numbers.
    rng = np.random.default_rng(12)
    heap = BidHeap()
    live = []
    for step in range(3000):
        u = float(rng.random())
        if u < 0.4 or not live:
            heap.push(step, float(rng.integers(0, 16)))
            live.append(step)
        elif u < 0.7:
            heap.update(live[int(rng.integers(len(live)))],
                        float(rng.integers(0, 16)))
        elif u < 0.85:
            heap.remove(live.pop(int(rng.integers(len(live)))))
        else:
            heap.second()
    assert len(heap) == 723
    assert heap.comparisons == 6250


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
