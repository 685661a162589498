"""Weighted proportional-share scheduling via per-process virtual time.

Every process carries a virtual time that advances by
``timeslice_length / weight`` whenever it runs, so lighter processes age
faster and the long-run slice counts converge to weight shares.  The next
slice goes to the runnable process with the smallest virtual time, ties
to the lowest process id.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

from ..errors import UndefinedShareError, UnknownProcessError
from .types import PSProcess


def select_winner(runnable: Iterable[PSProcess]) -> PSProcess | None:
    """Runnable process with minimum virtual time; None when all sleep."""
    winner = None
    for p in runnable:
        if winner is None or (p.virtual_time, p.process_id) < (
            winner.virtual_time,
            winner.process_id,
        ):
            winner = p
    return winner


def advance(process: PSProcess, timeslice_length: float) -> None:
    """Account one slice of service to the process."""
    process.virtual_time += timeslice_length / process.weight


def run_rounds(
    runnable: Iterable[PSProcess], n: int, timeslice_length: float
) -> list:
    """Hold ``n`` rounds among a fixed set of runnable processes; return
    the winners' ids in round order.

    Each round is what ``select_winner`` and then ``advance`` would do
    (``n == 1`` calls them): the smallest (virtual time, id) wins, and its
    virtual time grows by ``timeslice_length / weight``.  More rounds run
    on a local heap of those pairs; the virtual times are written back.
    """
    if n == 1:
        # perfbench counts rounds at select_winner and run_slice (ROADMAP
        # item 1); once it counts them here, both n == 1 branches can go.
        winner = select_winner(runnable)
        advance(winner, timeslice_length)
        return [winner.process_id]
    processes = list(runnable)
    strides = [timeslice_length / p.weight for p in processes]
    queue = [(p.virtual_time, p.process_id, i)
             for i, p in enumerate(processes)]
    heapq.heapify(queue)
    winners = []
    win = winners.append
    for _ in range(n):
        vt, pid, i = queue[0]
        win(pid)
        heapq.heapreplace(queue, (vt + strides[i], pid, i))
    for vt, _, i in queue:
        processes[i].virtual_time = vt
    return winners


def scheduling_error(
    actual: Mapping, intended: Mapping
) -> float:
    """Sum of per-process relative share deviations.

    Both maps must cover the same process ids and every intended share
    must be positive; a zero intended share has no relative error.
    """
    if set(actual) != set(intended):
        raise UnknownProcessError(
            f"share maps disagree: {sorted(set(actual) ^ set(intended))!r}"
        )
    total = 0.0
    for pid, target in intended.items():
        if target <= 0:
            raise UndefinedShareError(f"intended share of {pid!r} is {target}")
        total += abs(actual[pid] - target) / target
    return total
