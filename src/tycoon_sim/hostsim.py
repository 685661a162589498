"""Single-host scheduling experiment: one web server vs. three batch jobs.

The host runs 10 ms timeslices.  Three batch processes are always
runnable; a web server receives a request during each slice with
probability 0.1 (uniform arrival offset within the slice) and each
request takes one whole slice.  A well-behaved web server yields the CPU
whenever its queue is empty; a misbehaving one stays runnable and burns
its full allocation on filler work.

Request latency is measured from arrival to the moment service starts.
Scheduling error compares measured CPU shares against intended shares: a
yielding web server intends to use exactly its demand, while a
non-yielding one is only entitled to ``web_intended_share``; batch
processes split the remainder by weight.

Under the auction scheduler, agents receive credits at their income
rate, either on a fixed per-agent schedule or from independent Poisson
arrival processes; see ``FundingMode``.

The run advances from event to event.  A deposit lands on the first
slice ``j`` with ``j * dt >= t``; a yielding web server leaves the ready
set when it is served and rejoins on the slice after its next request
coin.  Both schedulers hold their rounds in ``run_rounds`` calls, and
the web queue books each window from its winners.  A window ends on
the round a yielding server wins, since it then goes idle.  Under the
stride scheduler the idle stretch before a request is a window of its
own, and the pending request is one more.  Under the auction the server
joins inside the window, so a request is one window; deposits end
auction windows too.  The auction's server is never queued between
windows: a window it joins and does not win ends at a deposit, and the
next one rejoins it from its first round at the bid its balance buys.
Every window is bit for bit its slices run singly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError
from .sched import auction, proportional
from .sched.types import AgentAccount, PriceMode, PSProcess, SchedulerConfig
from .slices import _first_slice_at


class SchedulerKind(Enum):
    PROPORTIONAL_SHARE = "proportional_share"
    AUCTION_SHARE = "auction_share"


class FundingMode(Enum):
    """How auction agents receive income at their rate.

    PERIODIC deposits one interval's worth of credits, ``interval``, every
    ``interval / rate`` seconds, the way a parent agent tops up its
    children on a schedule.  POISSON draws the gaps from
    gen_funding_events: exponential with mean ``interval``, each
    depositing ``rate * gap``.  Periodic is the default: the
    error statistic is taken over a window that is a whole number of
    intervals, and stochastic gaps leave an edge gap of O(interval) per
    agent that swamps a few-percent error band.
    """

    PERIODIC = "periodic"
    POISSON = "poisson"


@dataclass
class WorkloadSpec:
    """The web server's demand: its request stream and yielding behavior.

    Batch processes are always runnable and need no parameters.  A
    served request takes one whole slice.
    """

    request_probability: float = 0.1
    yields_cpu: bool = True


@dataclass
class RequestRecord:
    """Lifecycle of one web request."""

    arrival_time: float
    service_start_time: float | None = None


#: Longest run a config may ask for, in slices: about 28 hours of 10 ms
#: slices.  A run keeps every slice's winner and request draws, 31 to 53
#: bytes a slice at its peak (tracemalloc, 10^5 and 4 * 10^5 slices, the
#: yielding auction highest), so this is about 0.5 GB.
MAX_TIMESLICES = 10_000_000


@dataclass
class HostSimConfig:
    scheduler: SchedulerKind = SchedulerKind.PROPORTIONAL_SHARE
    num_timeslices: int = 1000
    timeslice_length: float = 0.010
    # Web process first; batch weights (PS) or income rates (auction) after.
    weights: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    web_intended_share: float = 0.1
    web: WorkloadSpec = field(default_factory=WorkloadSpec)
    warmup_slices: int = 100
    rng_seed: int = 42
    # Auction funding knobs.
    funding_mode: FundingMode = FundingMode.PERIODIC
    funding_mean_interval: float = 1.0
    initial_funding_intervals: float = 1.0
    price_mode: PriceMode = PriceMode.SECOND_PRICE

    @property
    def start_balance(self) -> float:
        """Every auction agent's opening balance, in intervals of the
        host's *total* income.  At equilibrium an account holds about one
        (it spends balance / slices-per-interval a slice, and the clearing
        price is total income per slice), so starting there keeps a short
        run from spending its first seconds saving up."""
        return (sum(self.weights) * self.funding_mean_interval
                * self.initial_funding_intervals)

    def validate(self) -> None:
        for name in ("num_timeslices", "timeslice_length"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name}: must be > 0 and finite")
        if self.num_timeslices > MAX_TIMESLICES:
            raise ConfigError(
                f"num_timeslices: more than {MAX_TIMESLICES} slices")
        if not 0 <= self.warmup_slices < self.num_timeslices:
            raise ConfigError("warmup_slices: must leave a measurement window")
        if len(self.weights) < 2 or not all(
                0 < w < np.inf for w in self.weights):
            raise ConfigError(
                "weights: need a web process plus at least one batch "
                "process, all with positive finite weight")
        if not 0.0 <= self.web.request_probability <= 1.0:
            raise ConfigError("web.request_probability: must be in [0, 1]")
        if not 0.0 < self.web_intended_share < 1.0:
            raise ConfigError("web_intended_share: must be in (0, 1)")
        if self.scheduler is not SchedulerKind.AUCTION_SHARE:
            return  # a stride run reads no funding field
        if not 0 < self.funding_mean_interval < np.inf:
            raise ConfigError("funding_mean_interval: must be > 0 and finite")
        # The richest agent is topped up every interval / weight; Poisson
        # gaps have mean interval.  Either way an agent's deposits number
        # about num_timeslices at most.
        if self.funding_mode is FundingMode.PERIODIC:
            gap, rule = (self.funding_mean_interval / max(self.weights),
                         "interval / largest weight")
        else:
            gap, rule = self.funding_mean_interval, "mean gap"
        if gap < self.timeslice_length:
            raise ConfigError(
                "funding_mean_interval: more than one deposit per agent per "
                f"slice ({rule} < timeslice_length)")
        if not 0 <= self.initial_funding_intervals < np.inf:
            raise ConfigError(
                "initial_funding_intervals: must be >= 0 and finite")
        # An auction agent holds at most its start balance plus its income
        # over the run.  An infinite balance outbids everyone for good, or
        # cannot be deposited at all.
        income = (max(self.weights) * self.num_timeslices
                  * self.timeslice_length)
        if not np.isfinite(income):
            raise ConfigError(
                f"weights: income over the run, {income}, overflows")
        if not np.isfinite(self.start_balance + income):
            raise ConfigError(
                "initial_funding_intervals: start balance "
                f"{self.start_balance} plus income {income} overflows")


@dataclass
class HostMetrics:
    scheduling_error: float
    mean_latency: float | None
    utilization: float
    per_process_shares: dict = field(default_factory=dict)
    requests_served: int = 0

    @property
    def mean_latency_ms(self) -> float | None:
        return None if self.mean_latency is None else self.mean_latency * 1e3


def gen_funding_events(
    income_rate: float, mean_interval: float, duration: float, seed
) -> list[tuple[float, float]]:
    """Poisson funding events over [0, duration).

    Interarrival gaps are exponential with mean ``mean_interval``; each
    event deposits ``income_rate * gap`` credits, so deposits sum to
    roughly ``income_rate * duration`` over long horizons, as periodic
    funding's do.
    """
    if income_rate <= 0:
        raise ValueError(f"income_rate {income_rate} must be positive")
    if mean_interval <= 0:
        # Zero-length gaps would never reach the end of the run.
        raise ValueError(f"mean_interval {mean_interval} must be positive")
    rng = np.random.default_rng(seed)
    events = []
    t = 0.0
    while True:
        gap = rng.exponential(mean_interval)
        t += gap
        if t >= duration:
            return events
        events.append((t, income_rate * gap))


class _WebQueue:
    """Request state for the web process, booked window by window.

    The client is closed-loop: it keeps a single request outstanding and
    only thinks about the next one after the response, so the request
    coin of a slice counts only while the server is idle and not on the
    slice it served one.  At most one request is ever pending.
    """

    def __init__(self, arrivals: np.ndarray, offsets: np.ndarray, dt: float):
        self.coins: list[int] = np.flatnonzero(arrivals).tolist()
        self.offsets = offsets
        self.dt = dt
        self.pending: RequestRecord | None = None
        self.all: list[RequestRecord] = []
        self.ran: list = []  # the winner of every slice so far

    def next_coin(self, k: int) -> int:
        """The first slice from ``k`` on whose coin comes up, or
        ``len(offsets)`` if none does."""
        i = bisect_left(self.coins, k)
        return self.coins[i] if i < len(self.coins) else len(self.offsets)

    def book(self, winners: list) -> None:
        """Account the window of ``winners`` that follows the slices run."""
        ran, dt = self.ran, self.dt
        k = len(ran)
        ran += winners
        end = len(ran)
        while k < end:
            if self.pending is not None:
                try:
                    k = ran.index(0, k, end)
                except ValueError:
                    return
                self.pending.service_start_time = k * dt
                self.pending = None
            else:
                k = self.next_coin(k)
                if k >= end:
                    return
                self.pending = RequestRecord(
                    arrival_time=float((k + self.offsets[k]) * dt))
                self.all.append(self.pending)
            k += 1


def _intended_shares(config: HostSimConfig, web_demand_share: float) -> dict:
    """Per-process target shares for the error metric.

    A yielding web server's target is its own demand (it asks for nothing
    more); a non-yielding one is entitled only to ``web_intended_share``.
    Batch targets split the remainder in proportion to weight.  A zero
    target drops the process from the metric: no demand, no deviation.
    """
    if config.web.yields_cpu:
        web_target = web_demand_share
    else:
        web_target = config.web_intended_share
    batch_weights = config.weights[1:]
    batch_total = sum(batch_weights)
    shares = {}
    if web_target > 0:
        shares[0] = web_target
    if web_target < 1.0:
        for i, w in enumerate(batch_weights, start=1):
            shares[i] = (1.0 - web_target) * w / batch_total
    return shares


def run_host_sim(config: HostSimConfig) -> HostMetrics:
    """Simulate one host for ``num_timeslices`` and report the metrics row."""
    n = config.num_timeslices
    dt = config.timeslice_length
    seeds = np.random.SeedSequence(config.rng_seed).spawn(3)
    rng_arrivals = np.random.default_rng(seeds[0])
    rng_offsets = np.random.default_rng(seeds[1])

    arrivals = rng_arrivals.random(n) < config.web.request_probability
    offsets = rng_offsets.random(n)

    queue = _WebQueue(arrivals, offsets, dt)
    if config.scheduler is SchedulerKind.PROPORTIONAL_SHARE:
        _run_ps(config, queue)
    else:
        _run_auction(config, seeds[2], queue)

    # Warm-up slices settle scheduler state and are excluded from stats.
    del queue.ran[:config.warmup_slices]
    return _host_metrics(config, queue.all, {
        pid: queue.ran.count(pid) for pid in range(len(config.weights))})


def _host_metrics(config, records, slice_counts) -> HostMetrics:
    """The metrics row, from every request and the post-warm-up slices."""
    dt = config.timeslice_length
    lo, hi = config.warmup_slices, config.num_timeslices
    in_window = [r for r in records if lo * dt <= r.arrival_time < hi * dt]
    waits = [r.service_start_time - r.arrival_time for r in in_window
             if r.service_start_time is not None]

    window = hi - lo
    busy = sum(slice_counts.values())
    shares = {pid: c / window for pid, c in slice_counts.items()}
    # Not len(in_window) / window, which may round differently.
    web_demand = len(in_window) * dt / (window * dt)

    intended = _intended_shares(config, web_demand)
    actual = {pid: shares[pid] for pid in intended}
    error = proportional.scheduling_error(actual, intended)

    return HostMetrics(
        scheduling_error=error,
        mean_latency=sum(waits) / len(waits) if waits else None,
        utilization=busy / window,
        per_process_shares=shares,
        requests_served=len(waits),
    )


def comparison_rows(base: HostSimConfig | None = None) -> list[tuple[str, HostSimConfig]]:
    """The five scheduler/workload pairings a comparison table reports.

    A cooperative web process at a 1/10 and a 7/10 weight allotment under
    the stride scheduler, the 7/10 allotment with the yield hint withheld,
    and the auction scheduler with and without the hint.  Everything in
    ``base`` other than those three axes is kept, so rows differ only in
    the axis under study.
    """
    base = base if base is not None else HostSimConfig()
    rows = [
        ("ps-1/10-yield", SchedulerKind.PROPORTIONAL_SHARE, (1, 2, 3, 4), True),
        ("ps-7/10-yield", SchedulerKind.PROPORTIONAL_SHARE, (21, 2, 3, 4), True),
        ("ps-7/10-noyield", SchedulerKind.PROPORTIONAL_SHARE, (21, 2, 3, 4), False),
        ("as-1/10-yield", SchedulerKind.AUCTION_SHARE, (1, 2, 3, 4), True),
        ("as-1/10-noyield", SchedulerKind.AUCTION_SHARE, (1, 2, 3, 4), False),
    ]
    return [
        (label,
         replace(base, scheduler=kind, weights=weights,
                 web=replace(base.web, yields_cpu=yields)))
        for label, kind, weights, yields in rows
    ]


def _run_ps(config, queue):
    n = config.num_timeslices
    dt = config.timeslice_length
    # Virtual times start one slice ahead (stride style) so the first
    # rounds already interleave by weight instead of by id.
    processes = [
        PSProcess(pid, w, virtual_time=dt / w)
        for pid, w in enumerate(config.weights)
    ]
    web, batch = processes[0], processes[1:]
    yields = config.web.yields_cpu
    # One aggregate step of the batch processes; their weights never change.
    round_step = dt / sum(p.weight for p in batch)

    k = 0
    while k < n:
        if yields and queue.pending is None:
            runnable, stop = batch, None
            end = min(n, queue.next_coin(k) + 1)
        else:
            runnable, stop, end = processes, None, n
            if yields:
                # The server has slept since its last window.  Rejoin at
                # the round's current virtual time plus one own stride,
                # with no credit for time spent sleeping.  The round time
                # sits one aggregate step below the minimum pass value,
                # which lets a heavy process preempt at the next boundary
                # while a light one waits out the round.  The window ends
                # on the round that serves the request.
                floor = min(p.virtual_time for p in batch)
                web.virtual_time = max(web.virtual_time,
                                       floor - round_step + dt / web.weight)
                stop = web.process_id
        winners = proportional.run_rounds(runnable, end - k, dt, stop)
        queue.book(winners)
        k += len(winners)


def _run_auction(config, funding_seed, queue):
    n = config.num_timeslices
    dt = config.timeslice_length
    duration = n * dt
    interval = config.funding_mean_interval
    slices_per_interval = interval / dt
    yields = config.web.yields_cpu

    sched = auction.AuctionShareScheduler(
        SchedulerConfig(timeslice_length=dt, price_mode=config.price_mode)
    )
    agent_seeds = funding_seed.spawn(len(config.weights))
    deposits = []  # (slice, agent, amount); none lands after the last slice
    for pid, rate in enumerate(config.weights):
        if pid == 0 and yields:
            wanted_fraction = config.web.request_probability
        else:
            wanted_fraction = 1.0
        sched.add_agent(
            AgentAccount(
                agent_id=pid,
                balance=config.start_balance,
                requested_cpu_seconds=wanted_fraction * slices_per_interval,
            ),
            runnable=not (pid == 0 and yields),
        )
        if config.funding_mode is FundingMode.PERIODIC:
            # Income rate sets the refill frequency, not the lump size:
            # every deposit is worth one base interval of income and a
            # richer agent is simply topped up proportionally more often.
            # Equal lumps mean every agent's credits are spent against
            # the same clearing-price mix, so shares track incomes.
            period = interval / rate
            events = [
                (j * period, rate * period)
                for j in range(1, int(duration / period) + 1)
            ]
        else:
            events = gen_funding_events(rate, interval, duration,
                                        agent_seeds[pid])
        for t, amount in events:
            j = _first_slice_at(t, dt, n)
            if j < n:
                deposits.append((j, pid, amount))
    # A stable sort keeps each slice's deposits in agent order and then in
    # time order.  The sentinel ends the last window.
    deposits.sort(key=lambda deposit: deposit[0])
    deposits.append((n, None, 0.0))

    # A yielding server sleeps through the idle rounds of a window and
    # bids from the slice after its request's coin, or at once while a
    # request is pending; the window ends on the round that serves it.
    web = 0 if yields else None
    join = None
    k = i = 0
    while k < n:
        while deposits[i][0] == k:
            _, pid, amount = deposits[i]
            sched.fund(pid, amount)
            i += 1
        # Deposits still end windows.  Folded into run_rounds, they would
        # leave run_slice unreached on host-table1, which
        # perfbench/selftest.py's USES requires until perfbench counts
        # rounds at the scheduler (ROADMAP item 1).
        end = deposits[i][0]
        if yields:
            join = 0 if queue.pending else queue.next_coin(k) + 1 - k
        winners = sched.run_rounds(end - k, web, join)[0]
        queue.book(winners)
        k += len(winners)
