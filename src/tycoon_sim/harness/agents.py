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
    key: str = ""             # the parent's name for this child
    last_report: float = 0.0  # time of the last progress report


def parent_budget(job: ParentJob) -> float:
    """Spending rate in credits per host per minute."""
    if job.num_hosts <= 0 or job.deadline_minutes <= 0:
        raise InvalidSpecError("num_hosts and deadline must be positive")
    return job.total_credits / (job.num_hosts * job.deadline_minutes)


def _ratio(child: ChildAgentState) -> float:
    # No spend yet means no evidence of underperformance.
    return child.progress / child.cost if child.cost > 0 else math.inf


def parent_monitor_and_replace(children: list, threshold: float,
                               candidate_hosts: list, rng) -> list:
    """Replacement decisions: list of (child, new_host) pairs.

    A child is replaced when its progress/cost ratio drops below
    threshold times the sibling median.  Replacement hosts are drawn
    uniformly from the candidates not already in use; when the median is
    not yet finite (nobody has spent anything) there is no baseline to
    judge against and nothing happens.
    """
    if not children:
        return []
    ratios = [_ratio(c) for c in children]
    med = statistics.median(ratios)
    if not math.isfinite(med):
        return []
    in_use = {c.host for c in children}
    free = [h for h in candidate_hosts if h not in in_use]
    actions = []
    for child, ratio in zip(children, ratios):
        if ratio >= threshold * med:
            continue
        if not free:
            break
        pick = free.pop(int(rng.integers(len(free))))
        actions.append((child, pick))
    return actions
