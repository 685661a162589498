"""Value types shared by the scheduling algorithms."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class PriceMode(Enum):
    """How the auction winner is charged."""

    FIRST_PRICE = "first"
    SECOND_PRICE = "second"


@dataclass
class AgentAccount:
    """One funded agent competing for timeslices.

    ``requested_cpu_seconds`` is the amount of CPU the agent wants per
    funding interval, denominated in timeslices.  The per-slice price an
    agent offers is ``balance / requested_cpu_seconds``, so an agent that
    wants less CPU for the same money offers more per slice.
    """

    agent_id: int | str
    balance: float
    requested_cpu_seconds: float = 1.0


@dataclass
class PSProcess:
    """A process under proportional-share scheduling."""

    process_id: int | str
    weight: float
    virtual_time: float = 0.0


@dataclass
class Reservation:
    """A prepaid claim to ``fraction`` of the next ``period`` slices."""

    agent_id: int | str
    fraction: float
    period: int
    quoted_price: float
    accepted_at: int = 0
    slices_elapsed: int = 0
    slices_won: int = 0

    def __post_init__(self) -> None:
        # The target ceil(fraction * slices) is computed in integers on the
        # fraction as written: 0.07 of 100 slices is 7, where the float
        # product 0.07 * 100 = 7.000000000000001 would round up to 8.
        share = Fraction(repr(float(self.fraction)))
        self._share = (share.numerator, share.denominator)

    def active(self) -> bool:
        return self.slices_elapsed < self.period

    def behind(self) -> bool:
        """True when the upcoming slice is needed to stay on target."""
        num, den = self._share
        target = -(-num * (self.slices_elapsed + 1) // den)
        return self.active() and self.slices_won < target


# Clearing prices wait in a buffer of this many before they are folded
# into a PriceStats window; a read folds what is waiting at once.
PRICE_BUFFER = 128


class PriceStats:
    """Sliding window of recent clearing prices.

    Keeps running sums so mean and sample standard deviation are O(1) to
    read.  The stddev is 0.0 while fewer than two prices are retained.
    The sums are of each price minus the first one observed: raw sums of
    squares near 1e6 cancel to a few digits in sumsq - sum**2 / n, while
    the shifted ones stay the size of the spread.

    Most windows are written on every slice and seldom read, so prices
    are buffered and folded in one at a time, in the order observed.
    The fold does what observing each price directly would, so every
    read is bit for bit the same.
    """

    def __init__(self, window_size: int = 1000):
        if window_size < 1:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self._shift = 0.0
        self._window: deque[float] = deque()  # price - self._shift
        self._sum = 0.0
        self._sumsq = 0.0
        self._unfolded: list[float] = []

    def __len__(self) -> int:
        self._fold()
        return len(self._window)

    def observe(self, price: float) -> None:
        """Append a clearing price, evicting the oldest beyond the window."""
        unfolded = self._unfolded
        unfolded.append(price)
        if len(unfolded) == PRICE_BUFFER:
            self._fold()

    def _fold(self) -> None:
        window, size = self._window, self.window_size
        shift, total, sumsq = self._shift, self._sum, self._sumsq
        for price in self._unfolded:
            if len(window) == size:
                old = window.popleft()
                total -= old
                sumsq -= old * old
            elif not window:
                shift = price
            delta = price - shift
            window.append(delta)
            total += delta
            sumsq += delta * delta
        self._shift, self._sum, self._sumsq = shift, total, sumsq
        self._unfolded.clear()

    @property
    def mean(self) -> float:
        self._fold()
        if not self._window:
            return 0.0
        return self._shift + self._sum / len(self._window)

    @property
    def stddev(self) -> float:
        self._fold()
        n = len(self._window)
        if n < 2:
            return 0.0
        var = (self._sumsq - self._sum * self._sum / n) / (n - 1)
        return math.sqrt(max(var, 0.0))


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for the per-slice auction."""

    timeslice_length: float = 0.010
    price_mode: PriceMode = PriceMode.FIRST_PRICE
    reservation_capacity: float = 0.5
