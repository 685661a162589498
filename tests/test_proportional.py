"""Stride scheduling: hand-traced sequences and long-run share accuracy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tycoon_sim.errors import UndefinedShareError, UnknownProcessError
from tycoon_sim.sched.proportional import (
    advance,
    run_rounds,
    scheduling_error,
    select_winner,
)
from tycoon_sim.sched.types import PSProcess


def procs(*weights):
    return [PSProcess(process_id=i, weight=w) for i, w in enumerate(weights)]


def run_sequence(processes, slices, dt=0.010):
    winners = []
    for _ in range(slices):
        p = select_winner(processes)
        advance(p, dt)
        winners.append(p.process_id)
    return winners


def test_winner_has_minimum_virtual_time_ties_to_lowest_id():
    ps = procs(1, 1, 1)
    ps[1].virtual_time = 0.5
    assert select_winner(ps).process_id == 0
    ps[0].virtual_time = 0.5
    ps[2].virtual_time = 0.5
    assert select_winner(ps).process_id == 0
    assert select_winner([]) is None


def test_hand_traced_weights_one_and_three():
    # vt steps: A(weight 1) +10ms per run, B(weight 3) +3.33ms per run.
    # A runs first on the id tie, then B runs three times before its vt
    # catches A's; the pattern repeats every four slices.
    winners = run_sequence(procs(1, 3), 8)
    assert winners == [0, 1, 1, 1, 0, 1, 1, 1]


def test_advance_steps_virtual_time_by_stride():
    p = PSProcess(process_id=0, weight=4.0)
    advance(p, 0.010)
    assert p.virtual_time == pytest.approx(0.0025)


def test_thousand_slices_hit_weight_shares_within_one_slice():
    ps = procs(1, 2, 3, 4)
    winners = run_sequence(ps, 1000)
    for pid, weight in enumerate((1, 2, 3, 4)):
        got = winners.count(pid)
        assert abs(got - 100 * weight) <= 1


def test_pairwise_allocation_error_stays_below_one_slice():
    # The virtual-time rule's lag bound is pairwise: between any two
    # continuously runnable processes the split of their joint slices
    # never drifts a full slice from their weight ratio.  (The global
    # per-process deviation can exceed 1 at small prefixes: with
    # weights (1,2,3,4) the heaviest process legitimately sits at 0 of
    # the first 3 slices against an ideal of 1.2.)
    import itertools

    import numpy as np

    rng = np.random.default_rng(2)
    for _ in range(40):
        weights = tuple(int(rng.integers(1, 10))
                        for _ in range(int(rng.integers(2, 6))))
        ps = procs(*weights)
        counts = [0] * len(weights)
        for _ in range(400):
            p = select_winner(ps)
            advance(p, 0.010)
            counts[p.process_id] += 1
            for i, j in itertools.combinations(range(len(weights)), 2):
                pair = counts[i] + counts[j]
                ideal = pair * weights[i] / (weights[i] + weights[j])
                assert abs(counts[i] - ideal) < 1.0


@given(st.lists(st.tuples(st.integers(1, 29),
                          st.sampled_from([0.0, 0.01, 0.5]) | st.floats(0, 1)),
                min_size=1, max_size=6),
       st.permutations(range(6)), st.integers(1, 300))
def test_run_rounds_is_n_rounds_of_select_and_advance(specs, ids, n):
    # Virtual times drawn from a few values tie often; the ids are out
    # of list order, so a tie must go to the lowest id, not the first.
    def fresh():
        return [PSProcess(ids[i], float(w), virtual_time=vt)
                for i, (w, vt) in enumerate(specs)]

    stepped, held = fresh(), fresh()
    expected = []
    for _ in range(n):
        p = select_winner(stepped)
        advance(p, 0.010)
        expected.append(p.process_id)
    assert run_rounds(held, n, 0.010) == expected
    assert ([p.virtual_time.hex() for p in held]
            == [p.virtual_time.hex() for p in stepped])


@given(st.lists(st.tuples(st.integers(1, 29),
                          st.sampled_from([0.0, 0.01, 0.5]) | st.floats(0, 1)),
                min_size=1, max_size=6),
       st.permutations(range(6)), st.integers(1, 300), st.integers(0, 6))
def test_run_rounds_until_is_rounds_of_select_and_advance_until_it_wins(
        specs, ids, n, target):
    # ``until`` is a process in the set, or an id outside it (one no
    # process drew, or 6) that never wins, so the window holds n rounds.
    until = ids[target] if target < 6 else target

    def fresh():
        return [PSProcess(ids[i], float(w), virtual_time=vt)
                for i, (w, vt) in enumerate(specs)]

    stepped, held = fresh(), fresh()
    expected = []
    for _ in range(n):
        p = select_winner(stepped)
        advance(p, 0.010)
        expected.append(p.process_id)
        if p.process_id == until:
            break
    assert run_rounds(held, n, 0.010, until) == expected
    assert ([p.virtual_time.hex() for p in held]
            == [p.virtual_time.hex() for p in stepped])


def test_run_rounds_needs_a_round_and_a_runnable_process():
    for n in (0, -3):
        ps = procs(1, 2)
        with pytest.raises(ValueError):
            run_rounds(ps, n, 0.010)
        with pytest.raises(ValueError):
            run_rounds(ps, n, 0.010, until=0)
        assert [p.virtual_time for p in ps] == [0.0, 0.0]
    for n in (1, 2, 5):
        for until in (None, 0):
            with pytest.raises(ValueError):
                run_rounds([], n, 0.010, until)


def test_run_rounds_breaks_ties_to_the_lowest_id():
    ps = [PSProcess(3, 1.0), PSProcess(1, 1.0), PSProcess(2, 1.0)]
    assert run_rounds(ps, 6, 0.010) == [1, 2, 3, 1, 2, 3]
    assert [p.virtual_time for p in ps] == [0.02, 0.02, 0.02]


def test_run_rounds_with_one_runnable_process():
    lone = PSProcess(7, 4.0, virtual_time=0.5)
    assert run_rounds([lone], 3, 0.010) == [7, 7, 7]
    assert lone.virtual_time == 0.5 + 0.0025 + 0.0025 + 0.0025


def test_scheduling_error_hand_cases():
    assert scheduling_error({0: 0.1}, {0: 0.1}) == 0.0
    # one process 50% over, one 25% under: 0.5 + 0.25
    err = scheduling_error({0: 0.3, 1: 0.3}, {0: 0.2, 1: 0.4})
    assert err == pytest.approx(0.75)


def test_scheduling_error_rejects_bad_maps():
    with pytest.raises(UnknownProcessError):
        scheduling_error({0: 0.1}, {0: 0.1, 1: 0.9})
    with pytest.raises(UndefinedShareError):
        scheduling_error({0: 0.1}, {0: 0.0})
