"""Weighted proportional-share scheduling via per-process virtual time.

Every process carries a virtual time that advances by
``timeslice_length / weight`` whenever it runs, so lighter processes age
faster and the long-run slice counts converge to weight shares.  The next
slice goes to the runnable process with the smallest virtual time, ties
to the lowest process id.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

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
    runnable: Sequence[PSProcess], n: int, timeslice_length: float,
    until: int | str | None = None,
) -> list:
    """Hold up to ``n`` rounds among a fixed set of runnable processes;
    return the winners' ids in round order.

    Each round is what ``select_winner`` and then ``advance`` would do:
    the smallest (virtual time, id) wins, and its virtual time grows by
    ``timeslice_length / weight``.  With ``until``, the window ends after
    the first round that process wins, so it may hold fewer than ``n``; a
    first round it wins goes through ``select_winner`` and ``advance``.
    Every other window runs on a local heap of those pairs; the virtual
    times are written back.  Needs ``n >= 1`` and a runnable process.
    """
    if n < 1 or not runnable:
        raise ValueError("run_rounds needs n >= 1 and a runnable process")
    if until is not None:
        # ``until`` often wins the first round; that round needs no heap.
        winner = select_winner(runnable)
        if winner.process_id == until:
            advance(winner, timeslice_length)
            return [winner.process_id]
    # Ids are unique, so entries never compare past (virtual time, id).
    queue = [(p.virtual_time, p.process_id, timeslice_length / p.weight, p)
             for p in runnable]
    heapq.heapify(queue)
    winners = []
    win = winners.append
    for _ in range(n):
        vt, pid, stride, p = queue[0]
        win(pid)
        heapq.heapreplace(queue, (vt + stride, pid, stride, p))
        if pid == until:
            break
    for vt, _, _, p in queue:
        p.virtual_time = vt
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
