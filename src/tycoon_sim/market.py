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

import functools
from dataclasses import dataclass
from enum import Enum
from sys import float_info

import numpy as np

from .errors import ExpiredTaskError, InvalidSpecError


#: Longest run a config may ask for, in time units: one allocation step
#: each.
MAX_DURATION = 1_000_000
#: Most tasks a run may expect to draw, num_users * duration /
#: mean_task_interarrival.  The draw makes a handful of generator calls
#: per task, so this bounds it at seconds.
MAX_EXPECTED_TASKS = 1_000_000


class Behavior(Enum):
    OBEDIENT = "obedient"
    STRATEGIC_NO_MARKET = "strategic_no_market"
    STRATEGIC_MARKET = "strategic_market"


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
        # Unlike "< inf", this also rejects an integer no float can hold.
        for name in ("num_users", "num_hosts", "mean_task_interarrival",
                     "mean_task_size", "mean_task_deadline", "max_weight"):
            if not 0 < getattr(self, name) <= float_info.max:
                raise InvalidSpecError(f"{name}: must be > 0 and finite")
        for name in ("duration", "income_rate", "initial_balance"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InvalidSpecError(f"{name}: must be >= 0 and finite")
        if self.duration > MAX_DURATION:
            raise InvalidSpecError(f"duration: must be <= {MAX_DURATION}")
        if self.draws_too_many(self.mean_task_interarrival):
            raise InvalidSpecError(
                f"mean_task_interarrival: more than {MAX_EXPECTED_TASKS} "
                "expected tasks (num_users * duration / interarrival)")
        # A step scales each weight by num_hosts and sums the live ones,
        # about MAX_EXPECTED_TASKS at most (twice that for the draw's
        # spread).  A weight is at most 1, max_weight, or a budgeted
        # balance, never above initial_balance + income_rate * duration.
        bound = float_info.max / max(self.num_hosts, 2 * MAX_EXPECTED_TASKS)
        for name, weight in (
                ("max_weight", self.max_weight),
                ("initial_balance + income_rate * duration",
                 self.initial_balance + self.income_rate * self.duration)):
            if not weight <= bound:
                raise InvalidSpecError(
                    f"{name}: {weight} is more than {bound}, the largest "
                    "weight a step can sum without overflow")

    def draws_too_many(self, interarrival: float) -> bool:
        """Whether a run at ``interarrival`` expects more than
        MAX_EXPECTED_TASKS tasks.  Compared without the division, which
        a huge num_users would overflow."""
        return not (self.num_users * self.duration
                    <= MAX_EXPECTED_TASKS * interarrival)


@dataclass
class UtilityResult:
    mean_utility_per_host_per_time_unit: float


def market_budget_weight(balance, value, num_hosts: int, deadline, now: float):
    """Per-host weight a budgeted user puts on its best task.

    Spreads the balance share earmarked for this task over the hosts and
    the time left before the deadline.  A live task has at least one
    time unit left and a value of at most 1, so one time unit never
    spends more than the full balance.  Takes scalars, or one array
    element per user.
    """
    if np.count_nonzero(np.less_equal(deadline, now)):
        raise ExpiredTaskError("deadline passed, task abandoned")
    if num_hosts < 1:
        raise InvalidSpecError("num_hosts must be >= 1")
    return balance * value / (num_hosts * (deadline - now))


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
    left = capacity
    if (w.ndim == 1 and w.size and left > 1e-12
            and np.minimum(w, rem).min() > 0):
        # Every task is open, and so none is negative: the first round is
        # the loop's first round without its masks, each grant its step.
        grant = np.minimum(left * w / w.sum(), rem)
        left -= grant.sum()
        unmet = rem - grant
        if unmet.min() > 1e-12:
            return grant  # nobody capped this round, capacity is exhausted
        open_mask = unmet > 1e-12
    else:
        if np.count_nonzero(w < 0) or np.count_nonzero(rem < 0):
            raise InvalidSpecError("weights and remaining must be nonnegative")
        grant = np.zeros(rem.shape)
        unmet = rem  # rem - grant
        open_mask = (w > 0) & (rem > 0)
    n_open = np.count_nonzero(open_mask)
    while left > 1e-12 and n_open:
        w_open = w[open_mask]
        step = np.zeros(rem.shape)
        step[open_mask] = left * w_open / w_open.sum()
        step = np.minimum(step, unmet)
        grant += step
        left -= step.sum()
        unmet = rem - grant
        open_mask &= unmet > 1e-12
        n_still_open = np.count_nonzero(open_mask)
        if n_still_open == n_open:
            break  # nobody capped this round, capacity is exhausted
        n_open = n_still_open
    # A capped task's grant + (rem - grant) can round one ulp above rem.
    np.copyto(grant, rem, where=grant > rem)
    return grant


@functools.lru_cache(maxsize=1)
def _draw_tasks(rng_seed, num_users, duration, mean_task_interarrival,
                mean_task_size, mean_task_deadline) -> tuple:
    """All task arrivals for a run as read-only (arrival, owner, size,
    deadline, value) arrays, sorted by arrival time.

    The users' independent Poisson processes pool into one process with
    num_users times the rate; each arrival's owner is uniform.  The
    latest table is kept, so the behaviours at one (seed, interarrival)
    point, run back to back, draw it once between them.
    """
    rng = np.random.default_rng(rng_seed)
    pooled_gap = mean_task_interarrival / num_users
    arrival, owner = [], []
    t = rng.exponential(pooled_gap)
    while t < duration:
        arrival.append(t)
        owner.append(int(rng.integers(num_users)))
        t += rng.exponential(pooled_gap)
    size, deadline, value = [], [], []
    for t in arrival:
        task_size = float(max(1, rng.poisson(mean_task_size)))
        rel_deadline = float(max(rng.poisson(mean_task_deadline), task_size))
        size.append(task_size)
        deadline.append(t + rel_deadline)
        value.append(1.0 - rng.random())  # uniform on (0, 1]
    table = (np.array(arrival, dtype=float), np.array(owner, dtype=np.intp),
             np.array(size), np.array(deadline), np.array(value))
    for column in table:
        column.flags.writeable = False
    return table


class MarketSim:
    """One seeded run: arrival schedule, user purses, per-step allocation.

    Tasks live in a read-only struct of arrays indexed by arrival order,
    shared by the runs of one draw (see _draw_tasks).  A step works on
    ``live``, the indices of the submitted, unfinished, not withdrawn
    tasks in arrival order, so every per-task float operation and every
    utility sum runs in the same order as a loop over task objects would.
    """

    def __init__(self, config: MarketConfig):
        config.validate()
        self.config = config
        self.balance = np.full(config.num_users, float(config.initial_balance))
        table = _draw_tasks(config.rng_seed, config.num_users, config.duration,
                            config.mean_task_interarrival,
                            config.mean_task_size, config.mean_task_deadline)
        self.arrival, self.owner, self.size, self.deadline, self.value = table
        # Step t admits the tasks with arrival <= t: indices below cuts[t].
        self._cuts = np.searchsorted(
            self.arrival, np.arange(config.duration, dtype=float),
            side="right").tolist()
        self.total_utility = 0.0

    def _weights_for(self, live: np.ndarray, now: float) -> np.ndarray:
        cfg = self.config
        if cfg.behavior is Behavior.OBEDIENT:
            return self.value[live]
        if cfg.behavior is Behavior.STRATEGIC_NO_MARKET:
            return np.full(live.size, cfg.max_weight)
        # Budgeted: each user funds only its most valuable live task and
        # pays num_hosts times the per-host weight out of its balance.  The
        # sort is stable and live is in arrival order, so a tie in value
        # goes to the earlier arrival.
        owners = self.owner[live]
        order = np.lexsort((-self.value[live], owners))
        ranked = owners[order]
        head = np.empty(ranked.size, dtype=bool)
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        best, users = order[head], ranked[head]
        tasks = live[best]
        w = market_budget_weight(self.balance[users], self.value[tasks],
                                 cfg.num_hosts, self.deadline[tasks], now)
        paying = w > 0
        self.balance[users[paying]] -= w[paying] * cfg.num_hosts
        weights = np.zeros(live.size)
        weights[best] = w
        return weights

    def run(self) -> UtilityResult:
        cfg = self.config
        size, deadline, value = self.size, self.deadline, self.value
        keeps_expired = cfg.behavior is Behavior.STRATEGIC_NO_MARKET
        budgeted = cfg.behavior is Behavior.STRATEGIC_MARKET
        # Every task runs spread over every host with identical weights,
        # so one fill with the pooled capacity equals the per-host loop
        # (weighted fluid shares compose additively across hosts).
        capacity = float(cfg.num_hosts)
        tasks = np.arange(size.size)
        live = np.empty(0, dtype=np.intp)
        # The processor time each live task has received, aligned with
        # live: appended on admission, compressed when tasks leave.
        work = np.empty(0)
        admitted = 0
        for t_step, cut in enumerate(self._cuts):
            now = float(t_step)
            if budgeted:
                self.balance += cfg.income_rate
            if cut > admitted:
                live = np.concatenate((live, tasks[admitted:cut]))
                work = np.concatenate((work, np.zeros(cut - admitted)))
                admitted = cut
            if not keeps_expired:
                # A task that cannot finish inside its deadline earns
                # nothing, so cooperative and budgeted users withdraw it.
                # Free riders have no reason to bother: theirs stay.
                keep = deadline[live] >= now + 1.0
                if np.count_nonzero(keep) < live.size:
                    live, work = live[keep], work[keep]
            if not live.size:
                continue
            weights = self._weights_for(live, now)
            size_live = size[live]
            work += allocate_host_step(weights, size_live - work,
                                       capacity=capacity)
            # Work within 1e-9 of the size counts as done.  A finished
            # task leaves live at once, so its work is never read again.
            finished = size_live - work <= 1e-9
            if np.count_nonzero(finished):
                ended = live[finished]
                # Worth value * size if finished by the deadline, zero
                # otherwise; summed one task at a time in arrival order.
                finish_time = now + 1.0
                for worth, due in zip((value[ended] * size[ended]).tolist(),
                                      deadline[ended].tolist()):
                    if finish_time <= due:
                        self.total_utility += worth
                unfinished = ~finished
                live, work = live[unfinished], work[unfinished]
        return self._result()

    def _result(self) -> UtilityResult:
        cfg = self.config
        denom = cfg.num_hosts * cfg.duration
        mean_util = self.total_utility / denom if denom else 0.0
        return UtilityResult(mean_utility_per_host_per_time_unit=mean_util)


def run_market_sim(config: MarketConfig) -> UtilityResult:
    return MarketSim(config).run()
