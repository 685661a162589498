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

# Read on every charged slice; a global is cheaper than a member lookup.
_SECOND_PRICE = PriceMode.SECOND_PRICE


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


def charge(
    account: AgentAccount,
    elapsed: float,
    config: SchedulerConfig,
    second_bid: float | None = None,
) -> float:
    """Charge the slice winner and return the payment.

    The rate is the winner's own bid under FIRST_PRICE and ``second_bid``
    (0 when absent) under SECOND_PRICE.  Payment is prorated by
    ``elapsed / timeslice_length`` and capped at the balance, so accounts
    never go negative.
    """
    if not 0 < elapsed <= config.timeslice_length:
        raise InvalidElapsedError(
            f"elapsed {elapsed} outside (0, {config.timeslice_length}]"
        )
    if config.price_mode is _SECOND_PRICE:
        rate = second_bid if second_bid is not None else 0.0
    else:
        rate = compute_bid(account)
    payment = min((elapsed / config.timeslice_length) * rate, account.balance)
    account.balance -= payment
    return payment


def fund(account: AgentAccount, amount: float) -> None:
    """Deposit credits into the account."""
    if amount < 0:
        raise InvalidAmountError(f"cannot deposit {amount}")
    account.balance += amount


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
    """Outcome of one auctioned timeslice."""

    slice_index: int
    winner: int | str | None
    payment: float
    clearing_price: float
    reserved: bool = False


class AuctionShareScheduler:
    """Stateful per-host auction: accounts, ready queue, reservations.

    The ready queue is the bid heap; agents enter when runnable and leave
    when they yield.  ``run_slice`` performs one auction round, charges
    the winner, and advances reservation bookkeeping.
    """

    def __init__(self, config: SchedulerConfig | None = None):
        self.config = config or SchedulerConfig()
        self.accounts: dict = {}
        self.heap = BidHeap()
        self.reservations: list[Reservation] = []
        self.price_stats = PriceStats(self.config.price_window)
        self.revenue = 0.0
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
        account = self.accounts[agent_id]
        fund(account, amount)
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
        """Quote and accept in one step; the payment becomes revenue."""
        price = self.quote(fraction, period)
        reservation = reservation_accept(
            self.accounts[agent_id], price, fraction, period,
            accepted_at=self.slice_index,
        )
        self.revenue += price
        if agent_id in self.heap:
            self.heap.update(agent_id, compute_bid(self.accounts[agent_id]))
        self.reservations.append(reservation)
        return reservation

    # -- the auction round ----------------------------------------------

    def run_slice(self, elapsed: float | None = None) -> SliceResult:
        config = self.config
        if elapsed is None:
            elapsed = config.timeslice_length
        heap = self.heap
        top = heap.peek()
        reservations = self.reservations
        # Most hosts never sell a reservation; skip their bookkeeping.
        reservation = pending_reservation(reservations) if reservations else None

        if reservation is not None:
            # Prepaid proxy win; priced at the best competing spot bid.
            clearing = top[1] if top is not None else 0.0
            result = SliceResult(
                self.slice_index, reservation.agent_id, 0.0, clearing, True
            )
            reservation.slices_won += 1
            self.price_stats.observe(clearing)
        elif top is not None:
            winner_id = top[0]
            runner_up = heap.second()
            second_bid = runner_up[1] if runner_up is not None else 0.0
            account = self.accounts[winner_id]
            payment = charge(account, elapsed, config, second_bid)
            self.revenue += payment
            heap.update(winner_id, compute_bid(account))
            clearing = payment / (elapsed / config.timeslice_length)
            result = SliceResult(self.slice_index, winner_id, payment, clearing)
            self.price_stats.observe(clearing)
        else:
            result = SliceResult(self.slice_index, None, 0.0, 0.0)

        if reservations:
            for r in reservations:
                if r.active():
                    r.slices_elapsed += 1
            self.reservations = [r for r in reservations if r.active()]
        self.slice_index += 1
        return result
