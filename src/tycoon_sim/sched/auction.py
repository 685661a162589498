"""Sealed-bid per-timeslice CPU auction with prepaid reservations.

Each timeslice is auctioned separately.  An agent's bid is
``balance / requested_cpu_seconds``; the highest bid wins the slice and is
charged either its own bid (first price) or the runner-up's (second
price), prorated by elapsed time and never beyond its balance.

Reservations bypass the spot market: an accepted reservation is realized
by a proxy that takes exactly as many slices as needed to keep the
reserved fraction on target over its period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import (
    CapacityRejection,
    InsufficientBalanceError,
    InsufficientHistoryError,
    InvalidAccountError,
    InvalidAmountError,
    InvalidElapsedError,
)
from .bidheap import BidHeap
from .types import AgentAccount, PriceMode, PriceStats, Reservation, SchedulerConfig


def compute_bid(account: AgentAccount) -> float:
    """Price per timeslice the agent currently offers."""
    if account.requested_cpu_seconds <= 0:
        raise InvalidAccountError(
            f"agent {account.agent_id!r} requests no CPU; bid undefined"
        )
    return account.balance / account.requested_cpu_seconds


def pending_reservation(reservations: Sequence[Reservation]) -> Reservation | None:
    """The reservation owed the upcoming slice, earliest accepted first."""
    behind = [r for r in reservations if r.behind()]
    if not behind:
        return None
    return min(behind, key=lambda r: r.accepted_at)


def reservation_quote(
    stats: PriceStats,
    fraction: float,
    period: int,
    current_reserved_total: float,
    config: SchedulerConfig,
) -> float:
    """Price quoted for reserving ``fraction`` of the next ``period`` slices.

    Quote is (mean + stddev) of recent clearing prices, scaled by the
    amount of CPU reserved.  Raises CapacityRejection when the host's
    reserved-fraction cap would be exceeded and InsufficientHistoryError
    when no clearing price has been observed yet.
    """
    if not 0 < fraction <= 1:
        raise InvalidAmountError(f"fraction {fraction} outside (0, 1]")
    if period <= 0:
        raise InvalidAmountError(f"period {period} must be positive")
    if current_reserved_total + fraction > config.reservation_capacity:
        raise CapacityRejection(
            f"reserved {current_reserved_total} + {fraction} exceeds "
            f"cap {config.reservation_capacity}"
        )
    if len(stats) == 0:
        raise InsufficientHistoryError("no clearing prices observed yet")
    return (stats.mean + stats.stddev) * fraction * period


def reservation_accept(
    account: AgentAccount,
    price: float,
    fraction: float,
    period: int,
    accepted_at: int = 0,
) -> Reservation:
    """Debit the quoted price and open the reservation."""
    if account.balance < price:
        raise InsufficientBalanceError(
            f"agent {account.agent_id!r} holds {account.balance}, "
            f"quote is {price}"
        )
    account.balance -= price
    return Reservation(
        agent_id=account.agent_id,
        fraction=fraction,
        period=period,
        quoted_price=price,
        accepted_at=accepted_at,
    )


@dataclass(slots=True)
class SliceResult:
    """Outcome of one auctioned timeslice: who ran, and what it paid."""

    winner: int | str | None
    payment: float


class AuctionShareScheduler:
    """Stateful per-host auction: accounts, ready queue, reservations.

    The ready queue is the bid heap; agents enter when runnable and leave
    when they yield.  ``run_slice`` performs one auction round, charges
    the winner, and advances reservation bookkeeping; ``run_rounds``
    holds a run of full-length rounds in which nothing else happens.

    The winner pays at a rate of its own bid under FIRST_PRICE and of the
    runner-up's bid (0 when it bids alone) under SECOND_PRICE, prorated
    by ``elapsed / timeslice_length`` and capped at its balance, so
    accounts never go negative.
    """

    def __init__(self, config: SchedulerConfig | None = None):
        self.config = config or SchedulerConfig()
        self.accounts: dict = {}
        self.heap = BidHeap()
        self.reservations: list[Reservation] = []
        self.price_stats = PriceStats()
        self.slice_index = 0

    # -- account management --------------------------------------------

    def add_agent(self, account: AgentAccount, runnable: bool = True) -> None:
        if account.agent_id in self.accounts:
            raise InvalidAccountError(f"duplicate agent {account.agent_id!r}")
        self.accounts[account.agent_id] = account
        if runnable:
            self.heap.push(account.agent_id, compute_bid(account))

    def set_runnable(self, agent_id, runnable: bool) -> None:
        account = self.accounts[agent_id]
        queued = agent_id in self.heap
        if runnable and not queued:
            self.heap.push(agent_id, compute_bid(account))
        elif not runnable and queued:
            self.heap.remove(agent_id)

    def fund(self, agent_id, amount: float) -> None:
        """Deposit a finite, non-negative amount into the agent's account."""
        if not 0 <= amount < math.inf:
            raise InvalidAmountError(f"cannot deposit {amount}")
        account = self.accounts[agent_id]
        account.balance += amount
        if agent_id in self.heap:
            self.heap.update(agent_id, compute_bid(account))

    # -- reservations ---------------------------------------------------

    @property
    def reserved_total(self) -> float:
        return sum(r.fraction for r in self.reservations if r.active())

    def quote(self, fraction: float, period: int) -> float:
        return reservation_quote(
            self.price_stats, fraction, period, self.reserved_total, self.config
        )

    def accept(self, agent_id, fraction: float, period: int) -> Reservation:
        """Quote and accept in one step."""
        price = self.quote(fraction, period)
        reservation = reservation_accept(
            self.accounts[agent_id], price, fraction, period,
            accepted_at=self.slice_index,
        )
        if agent_id in self.heap:
            self.heap.update(agent_id, compute_bid(self.accounts[agent_id]))
        self.reservations.append(reservation)
        return reservation

    # -- the auction round ----------------------------------------------

    def run_slice(self, elapsed: float | None = None) -> SliceResult:
        """Hold one auction round; return who ran and what it paid.

        A pending reservation takes the slice before the spot market.  Else
        the top bidder is charged for ``elapsed`` seconds (default: all),
        which must lie in (0, timeslice_length].  An empty queue returns
        ``SliceResult(None, 0.0)``.  Each call advances ``slice_index``.
        """
        length = self.config.timeslice_length
        if elapsed is None:
            elapsed = length
        top = self.heap.peek()
        reservation = pending_reservation(self.reservations)

        if reservation is not None:
            # Prepaid proxy win; priced at the best competing spot bid.
            result = SliceResult(reservation.agent_id, 0.0)
            reservation.slices_won += 1
            self.price_stats.observe(top[1] if top is not None else 0.0)
        elif top is not None:
            if not 0 < elapsed <= length:
                raise InvalidElapsedError(
                    f"elapsed {elapsed} outside (0, {length}]")
            winner_id = top[0]
            account = self.accounts[winner_id]
            if self.config.price_mode is PriceMode.SECOND_PRICE:
                runner_up = self.heap.second()
                rate = runner_up[1] if runner_up is not None else 0.0
            else:
                rate = compute_bid(account)
            fraction = elapsed / length
            payment = min(fraction * rate, account.balance)
            account.balance -= payment
            self.heap.update(winner_id, compute_bid(account))
            result = SliceResult(winner_id, payment)
            self.price_stats.observe(payment / fraction)
        else:
            result = SliceResult(None, 0.0)

        for r in self.reservations:
            if r.active():
                r.slices_elapsed += 1
        self.reservations = [r for r in self.reservations if r.active()]
        self.slice_index += 1
        return result

    def run_rounds(self, n: int, until=None, join: int | None = None
                   ) -> tuple[list, list[float]]:
        """Hold up to ``n`` full-length rounds; return the winners and
        their payments, in round order.

        Each round is bit for bit what ``run_slice()`` would do.  With
        ``until``, an agent not queued starts bidding at round ``join``
        (never if it is None), as ``set_runnable(until, True)`` before
        that round would; the window ends after the first round it wins,
        and it then leaves the queue.  Between rounds only the winner's
        balance and bid move, so the rounds run on local copies of the
        bidders, and the heap is re-keyed and the clearing prices
        observed once, after the last round.  ``n == 1``, and a window
        that starts with ``until`` queued on top, go through
        ``run_slice``.  Needs a queued bidder and no reservation.
        """
        heap = self.heap
        if (n < 1 or not heap or self.reservations
                or join is not None and join < 0):
            raise ValueError("run_rounds needs n >= 1, a queued bidder, "
                             "no reservations and no negative join")
        queued = until in heap
        if n == 1 or queued and heap.peek()[0] == until:
            # perfbench counts rounds at run_slice and select_winner (ROADMAP
            # item 1); once it counts them here, both n == 1 branches can go.
            if until is not None and join == 0:
                self.set_runnable(until, True)
            result = self.run_slice()
            if result.winner == until:
                heap.remove(until)
            return [result.winner], [result.payment]
        ids, bids = heap.entries()
        accounts = [self.accounts[agent_id] for agent_id in ids]
        # ``until`` bids from round ``first`` on.  The rounds before run
        # without testing for it: a test on every streak slows the runs
        # that have no ``until``.
        if queued:
            first = 0
        elif until is None or join is None:
            first = n
        else:
            first = min(join, n)
        joins = not queued and first < n
        if joins:
            accounts.append(self.accounts[until])
        for account in accounts:
            if account.requested_cpu_seconds <= 0:
                compute_bid(account)  # raises, before any charge
        balances = [account.balance for account in accounts]
        requests = [account.requested_cpu_seconds for account in accounts]
        queued_bids = bids[:]
        second_price = self.config.price_mode is PriceMode.SECOND_PRICE
        winners, payments = [], []
        win, pay = winners.append, payments.append
        if first:
            _hold(ids, bids, balances, requests, second_price, first,
                  win, pay)
        if first < n:
            if joins:
                ids.append(until)
                bids.append(balances[-1] / requests[-1])
            for _ in range(n - first):
                _hold(ids, bids, balances, requests, second_price, 1,
                      win, pay)
                if winners[-1] == until:
                    break

        for account, balance in zip(accounts, balances):
            account.balance = balance
        # A joined ``until`` is past the end of ``queued_bids``.
        for agent_id, before, bid in zip(ids, queued_bids, bids):
            if bid != before:
                heap.update(agent_id, bid)
        if winners[-1] == until:
            if queued:
                heap.remove(until)
        elif joins:
            heap.push(until, bids[-1])
        self.price_stats.observe_many(payments)
        self.slice_index += len(winners)
        return winners, payments


def _hold(ids, bids, balances, requests, second_price, left, win, pay):
    """Hold ``left`` full-length rounds among the bidders ``ids``, on the
    local ``bids`` and ``balances``; ``win`` and ``pay`` take each
    round's winner and payment."""
    others = range(1, len(ids))
    while left:
        # The highest (bid, lowest id) wins, as at the top of the heap;
        # the runner-up is the best of the rest.
        top, top_bid, top_id = 0, bids[0], ids[0]
        up_bid = up_id = None
        for j in others:
            bid, agent_id = bids[j], ids[j]
            if bid > top_bid if bid != top_bid else agent_id < top_id:
                up_bid, up_id = top_bid, top_id
                top, top_bid, top_id = j, bid, agent_id
            elif up_bid is None or (bid > up_bid if bid != up_bid
                                    else agent_id < up_id):
                up_bid, up_id = bid, agent_id
        balance, requested = balances[top], requests[top]
        # Only the winner's bid moves, so it keeps winning for as long
        # as it still outranks the runner-up.
        while True:
            if second_price:
                rate = up_bid if up_bid is not None else 0.0
            else:
                rate = balance / requested
            # A full slice: the prorating fraction is 1.0, so the
            # payment and the clearing price are the rate itself.
            payment = rate
            if balance < payment:
                payment = balance
            balance -= payment
            top_bid = balance / requested
            win(top_id)
            pay(payment)
            left -= 1
            if not left or up_bid is not None and not (
                    top_bid > up_bid if top_bid != up_bid
                    else top_id < up_id):
                break
        balances[top] = balance
        bids[top] = top_bid
