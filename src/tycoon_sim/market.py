"""Multi-host market simulator: task utility under three bidding regimes.

A population of users submits tasks to a pool of hosts.  Every host runs
proportional share over per-task weights, reassigned each time unit.  The
regimes differ only in how weights are chosen:

* obedient users report each task's true value as its weight,
* strategic users without a market max out the weight on everything,
* strategic users with a market spend a budget, so over-claiming costs
  them future capacity.

A task is worth value * size if it finishes by its deadline and nothing
otherwise; the headline metric is mean accrued utility per host per time
unit.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ExpiredTaskError, InvalidSpecError


class Behavior(Enum):
    OBEDIENT = "obedient"
    STRATEGIC_NO_MARKET = "strategic_no_market"
    STRATEGIC_MARKET = "strategic_market"


@dataclass
class Task:
    """One unit of work: size processor-seconds wanted before deadline."""

    task_id: int
    owner: int
    size: float
    deadline: float
    value: float
    arrival_time: float
    work_done: float = 0.0

    @property
    def completed(self) -> bool:
        return self.work_done >= self.size

    @property
    def remaining(self) -> float:
        return self.size - self.work_done


@dataclass
class MarketUser:
    user_id: int
    behavior: Behavior
    balance: float = 0.0
    # Signed balance deltas in application order (income +, spend -).
    # Replaying them reproduces the final balance exactly, float ops and
    # all, which is what the budget-conservation audit checks.
    delta_log: list = field(default_factory=list)

    def credit(self, amount: float) -> None:
        self.balance += amount
        self.delta_log.append(amount)

    def debit(self, amount: float) -> None:
        self.balance -= amount
        self.delta_log.append(-amount)


@dataclass
class MarketConfig:
    num_users: int = 100
    num_hosts: int = 10
    duration: int = 1000
    # Mean gap between consecutive submissions of one user, in time
    # units.  The pool saturates where num_users * mean_size tasks per
    # interarrival match num_hosts capacity: 100 users * size 10 / 10
    # hosts puts that at 100.
    mean_task_interarrival: float = 100.0
    mean_task_size: float = 10.0
    mean_task_deadline: float = 30.0
    max_weight: float = 1.0
    behavior: Behavior = Behavior.OBEDIENT
    income_rate: float = 1.0
    initial_balance: float = 0.0
    rng_seed: int = 42

    def validate(self) -> None:
        if self.num_users <= 0 or self.num_hosts <= 0 or self.duration < 0:
            raise InvalidSpecError("counts must be positive")
        if self.mean_task_interarrival <= 0:
            raise InvalidSpecError("mean_task_interarrival must be > 0")
        if self.mean_task_size <= 0 or self.mean_task_deadline <= 0:
            raise InvalidSpecError("task distribution means must be > 0")
        if self.max_weight <= 0:
            raise InvalidSpecError("max_weight must be > 0")


@dataclass
class UtilityResult:
    mean_interarrival: float
    mean_utility_per_host_per_time_unit: float


def obedient_weight(task: Task) -> float:
    """Truthful weight: the task's declared value."""
    return task.value


def strategic_nomarket_weight(max_weight: float = 1.0) -> float:
    """Weight chosen by a free rider: the system-wide cap."""
    return max_weight


def market_budget_weight(balance: float, value: float, num_hosts: int,
                         deadline: float, now: float) -> float:
    """Per-host weight a budgeted user puts on its best task.

    Spreads the balance share earmarked for this task over the hosts and
    the time left before the deadline.  Capped at balance/num_hosts so a
    single time unit can never spend more than the full balance.
    """
    if deadline <= now:
        raise ExpiredTaskError("deadline passed, task abandoned")
    if num_hosts < 1:
        raise InvalidSpecError("num_hosts must be >= 1")
    weight = balance * value / (num_hosts * (deadline - now))
    return min(weight, balance / num_hosts)


def allocate_host_step(weights, remaining, capacity: float = 1.0):
    """Split one step of processor time among tasks by weight.

    Water-filling: each round grants min(remaining, capacity * w/sum_w),
    then leftover capacity is re-split among still-unfinished tasks until
    it is gone or no demand is left.  All-zero weights mean an idle step.
    Returns the per-task work increments as an array.
    """
    w = np.asarray(weights, dtype=float)
    rem = np.asarray(remaining, dtype=float)
    if w.shape != rem.shape:
        raise InvalidSpecError("weights and remaining must align")
    if np.any(w < 0) or np.any(rem < 0):
        raise InvalidSpecError("weights and remaining must be nonnegative")
    grant = np.zeros_like(rem)
    left = capacity
    open_mask = (w > 0) & (rem > 0)
    while left > 1e-12 and open_mask.any():
        total_w = w[open_mask].sum()
        step = np.zeros_like(rem)
        step[open_mask] = left * w[open_mask] / total_w
        step = np.minimum(step, rem - grant)
        grant += step
        left -= step.sum()
        newly_open = open_mask & (rem - grant > 1e-12)
        if newly_open.sum() == open_mask.sum():
            break  # nobody capped this round, capacity is exhausted
        open_mask = newly_open
    return grant


def accrue_utility(task: Task, completion_time: float) -> float:
    """value * size when finished by the deadline, zero otherwise."""
    if not task.completed:
        return 0.0
    return task.value * task.size if completion_time <= task.deadline else 0.0


def _draw_tasks(config: MarketConfig, rng: np.random.Generator) -> list:
    """All task arrivals for a run, sorted by arrival time.

    The users' independent Poisson processes pool into one process with
    num_users times the rate; each arrival's owner is uniform.
    """
    tasks = []
    pooled_gap = config.mean_task_interarrival / config.num_users
    times = []
    t = rng.exponential(pooled_gap)
    while t < config.duration:
        times.append((t, int(rng.integers(config.num_users))))
        t += rng.exponential(pooled_gap)
    for task_id, (t, uid) in enumerate(times):
        size = float(max(1, rng.poisson(config.mean_task_size)))
        rel_deadline = float(max(rng.poisson(config.mean_task_deadline),
                                 size))
        value = 1.0 - rng.random()  # uniform on (0, 1]
        tasks.append(Task(task_id=task_id, owner=uid, size=size,
                          deadline=t + rel_deadline, value=value,
                          arrival_time=t))
    return tasks


class MarketSim:
    """One seeded run: arrival schedule, user purses, per-step allocation."""

    def __init__(self, config: MarketConfig):
        config.validate()
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)
        self.users = [
            MarketUser(user_id=uid, behavior=config.behavior,
                       balance=config.initial_balance)
            for uid in range(config.num_users)
        ]
        self.arrivals = _draw_tasks(config, self.rng)
        self._next_arrival = 0
        self.total_utility = 0.0

    def _weights_for(self, active: list, now: float) -> list:
        cfg = self.config
        behavior = cfg.behavior
        if behavior is Behavior.OBEDIENT:
            return [obedient_weight(t) for t in active]
        if behavior is Behavior.STRATEGIC_NO_MARKET:
            return [strategic_nomarket_weight(cfg.max_weight) for _ in active]
        # Budgeted: each user funds only its most valuable live task and
        # pays num_hosts times the per-host weight out of its balance.
        chosen: dict[int, Task] = {}
        for t in active:
            best = chosen.get(t.owner)
            if best is None or (t.value, -t.arrival_time) > (best.value,
                                                             -best.arrival_time):
                chosen[t.owner] = t
        weights = []
        for t in active:
            if chosen.get(t.owner) is not t:
                weights.append(0.0)
                continue
            user = self.users[t.owner]
            w = market_budget_weight(user.balance, t.value, cfg.num_hosts,
                                     t.deadline, now)
            if w > 0:
                user.debit(w * cfg.num_hosts)
            weights.append(w)
        return weights

    def run(self) -> UtilityResult:
        cfg = self.config
        active: list[Task] = []
        keeps_expired = cfg.behavior is Behavior.STRATEGIC_NO_MARKET
        for t_step in range(cfg.duration):
            now = float(t_step)
            if cfg.behavior is Behavior.STRATEGIC_MARKET:
                for user in self.users:
                    user.credit(cfg.income_rate)
            while (self._next_arrival < len(self.arrivals)
                   and self.arrivals[self._next_arrival].arrival_time <= now):
                active.append(self.arrivals[self._next_arrival])
                self._next_arrival += 1
            if not keeps_expired:
                # A task that cannot finish inside its deadline earns
                # nothing, so cooperative and budgeted users withdraw it.
                # Free riders have no reason to bother: theirs stay.
                active = [t for t in active if t.deadline >= now + 1.0]
            if active:
                self._allocate(active, now)
                finished = [t for t in active if t.completed]
                for t in finished:
                    self.total_utility += accrue_utility(t, now + 1.0)
                active = [t for t in active if not t.completed]
        return self._result()

    def _allocate(self, active: list, now: float) -> None:
        weights = self._weights_for(active, now)
        # Every task runs spread over every host with identical weights,
        # so one fill with the pooled capacity equals the per-host loop
        # (weighted fluid shares compose additively across hosts).
        grants = allocate_host_step(weights, [t.remaining for t in active],
                                    capacity=float(self.config.num_hosts))
        for t, inc in zip(active, grants):
            t.work_done += inc
            if t.size - t.work_done <= 1e-9:
                t.work_done = t.size

    def _result(self) -> UtilityResult:
        cfg = self.config
        denom = cfg.num_hosts * cfg.duration
        mean_util = self.total_utility / denom if denom else 0.0
        return UtilityResult(
            mean_interarrival=cfg.mean_task_interarrival,
            mean_utility_per_host_per_time_unit=mean_util,
        )


def run_market_sim(config: MarketConfig) -> UtilityResult:
    return MarketSim(config).run()

