"""Value types shared by the scheduling algorithms."""

from __future__ import annotations

import statistics
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


class PriceStats:
    """Sliding window of recent clearing prices.

    The window keeps the raw prices.  Mean and sample stddev (0.0 below
    two prices) are ``statistics.fmean`` and ``statistics.stdev`` of it,
    computed only when read; only a reservation quote reads them.
    """

    def __init__(self, window_size: int = 1000):
        if type(window_size) is not int or window_size < 1:
            raise ValueError(
                f"window_size must be an int >= 1, got {window_size!r}")
        self._window: deque[float] = deque(maxlen=window_size)

    def __len__(self) -> int:
        return len(self._window)

    def observe(self, price: float) -> None:
        """Append one clearing price."""
        self._window.append(price)

    def observe_many(self, prices: list[float]) -> None:
        """Append ``prices`` in order; the window keeps the newest."""
        self._window.extend(prices)

    @property
    def mean(self) -> float:
        return statistics.fmean(self._window) if self._window else 0.0

    @property
    def stddev(self) -> float:
        return statistics.stdev(self._window) if len(self._window) > 1 else 0.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for the per-slice auction."""

    timeslice_length: float = 0.010
    price_mode: PriceMode = PriceMode.FIRST_PRICE
    reservation_capacity: float = 0.5
