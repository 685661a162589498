"""Parent and child agent logic: budgeting, monitoring, replacement.

A parent agent turns a job description (credits, deadline, host count)
into a per-host spending rate, keeps one child agent per host, and
replaces children whose performance per credit falls well behind their
siblings'.  Children hold a lump of funds at their host's auctioneer and
ask for more when it runs out.
"""

import math
import statistics
from dataclasses import dataclass

from ..errors import ConfigError, InvalidSpecError


@dataclass
class ParentJob:
    """One user's job: its credits, its deadline and how many hosts."""

    total_credits: float = 4.0
    deadline_minutes: float = 2.0
    num_hosts: int = 2
    performance_cost_threshold: float = 0.5

    def validate(self) -> None:
        if self.num_hosts < 1:
            raise ConfigError("num_hosts: must be >= 1")
        if not 0 < self.deadline_minutes < math.inf:
            raise ConfigError("deadline_minutes: must be > 0 and finite")
        if not 0 <= self.total_credits < math.inf:
            raise ConfigError("total_credits: must be >= 0 and finite")
        if not math.isfinite(self.performance_cost_threshold):
            raise ConfigError("performance_cost_threshold: must be finite")


@dataclass
class ChildAgentState:
    host: str
    progress: float = 0.0     # work units completed so far
    cost: float = 0.0         # credits spent so far
    last_report: float = 0.0  # time of the last progress report


def parent_budget(job: ParentJob) -> float:
    """Spending rate in credits per host per minute."""
    if job.num_hosts <= 0 or job.deadline_minutes <= 0:
        raise InvalidSpecError("num_hosts and deadline must be positive")
    return job.total_credits / (job.num_hosts * job.deadline_minutes)


def _ratio(child: ChildAgentState) -> float:
    # No spend yet means no evidence of underperformance.
    return child.progress / child.cost if child.cost > 0 else math.inf


def parent_monitor_and_replace(children: dict, threshold: float,
                               free_hosts: list, rng) -> list:
    """Replacement decisions: (key, new_host) pairs, in ``children`` order.

    A child is replaced when its progress/cost ratio drops below
    threshold times the sibling median, onto a host drawn uniformly from
    the parent's ``free_hosts`` that no earlier move drew.  When the
    median is not finite (nobody has spent anything) nothing happens.
    """
    if not children:
        return []
    ratios = [_ratio(c) for c in children.values()]
    med = statistics.median(ratios)
    if not math.isfinite(med):
        return []
    free = list(free_hosts)
    actions = []
    for key, ratio in zip(children, ratios):
        if ratio >= threshold * med:
            continue
        if not free:
            break
        pick = free.pop(int(rng.integers(len(free))))
        actions.append((key, pick))
    return actions
