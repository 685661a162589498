"""Core scheduling algorithms: the timeslice auction and proportional share."""

from . import auction, proportional
from .auction import AuctionShareScheduler, SliceResult
from .bidheap import BidHeap
from .proportional import scheduling_error
from .types import (
    AgentAccount,
    PriceMode,
    PriceStats,
    PSProcess,
    Reservation,
    SchedulerConfig,
)

__all__ = [
    "AgentAccount",
    "AuctionShareScheduler",
    "BidHeap",
    "PSProcess",
    "PriceMode",
    "PriceStats",
    "Reservation",
    "SchedulerConfig",
    "SliceResult",
    "auction",
    "proportional",
    "scheduling_error",
]
