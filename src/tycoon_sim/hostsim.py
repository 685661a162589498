"""Single-host scheduling experiment: one web server vs. three batch jobs.

The host runs 10 ms timeslices.  Three batch processes are always
runnable; a web server receives a request during each slice with
probability 0.1 (uniform arrival offset within the slice) and each
request needs 10 ms of CPU.  A well-behaved web server yields the CPU
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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, NoRequestsError
from .sched import auction, proportional
from .sched.types import AgentAccount, PriceMode, PSProcess, SchedulerConfig


class SchedulerKind(Enum):
    PROPORTIONAL_SHARE = "proportional_share"
    AUCTION_SHARE = "auction_share"


class FundingMode(Enum):
    """How auction agents receive income.

    PERIODIC deposits rate * interval at every interval boundary, the way
    a parent agent tops up its children on a schedule.  POISSON draws the
    gaps from gen_funding_events instead.  Periodic is the default: the
    error statistic is taken over a window that is a whole number of
    intervals, and stochastic gaps leave an edge gap of O(interval) per
    agent that swamps a few-percent error band.
    """

    PERIODIC = "periodic"
    POISSON = "poisson"


@dataclass
class WorkloadSpec:
    """Shape of one process's demand.

    Batch processes are always runnable and need no parameters; the web
    server is described by its request stream and yielding behavior.
    """

    request_probability: float = 0.1
    service_demand: float = 0.010
    yields_cpu: bool = True


@dataclass
class RequestRecord:
    """Lifecycle of one web request."""

    arrival_time: float
    service_start_time: float | None = None

    @property
    def latency(self) -> float | None:
        """Seconds from arrival until service began."""
        if self.service_start_time is None:
            return None
        return self.service_start_time - self.arrival_time


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

    def validate(self) -> None:
        for name in ("num_timeslices", "timeslice_length",
                     "funding_mean_interval"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be > 0")
        if not 0 <= self.warmup_slices < self.num_timeslices:
            raise ConfigError("warmup_slices: must leave a measurement window")
        if len(self.weights) < 2 or any(w <= 0 for w in self.weights):
            raise ConfigError(
                "weights: need a web process plus at least one batch "
                "process, all with positive weight")
        if not 0.0 <= self.web.request_probability <= 1.0:
            raise ConfigError("web.request_probability: must be in [0, 1]")
        if self.web.service_demand <= 0:
            raise ConfigError("web.service_demand: must be > 0")
        if self.web.service_demand > self.timeslice_length:
            # One request is served per slice, so it must fit in one.
            raise ConfigError(
                f"web.service_demand: {self.web.service_demand} exceeds "
                f"timeslice_length {self.timeslice_length}")
        if not 0.0 < self.web_intended_share < 1.0:
            raise ConfigError("web_intended_share: must be in (0, 1)")
        if self.initial_funding_intervals < 0:
            raise ConfigError("initial_funding_intervals: must be >= 0")


@dataclass
class HostMetrics:
    scheduler: str
    web_weight_share: float
    web_yields: bool
    scheduling_error: float
    mean_latency: float | None
    utilization: float
    per_process_shares: dict = field(default_factory=dict)
    requests_served: int = 0
    seed: int = 0

    @property
    def mean_latency_ms(self) -> float | None:
        return None if self.mean_latency is None else self.mean_latency * 1e3


def gen_funding_events(
    income_rate: float, duration: float, seed
) -> list[tuple[float, float]]:
    """Poisson funding events over [0, duration).

    Interarrival gaps are exponential with mean one second; each event
    deposits ``income_rate * gap`` credits, so deposits sum to roughly
    ``income_rate * duration`` over long horizons.
    """
    if income_rate <= 0:
        raise ValueError(f"income_rate {income_rate} must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    events = []
    t = 0.0
    while True:
        gap = rng.exponential(1.0)
        t += gap
        if t >= duration:
            return events
        events.append((t, income_rate * gap))


def measure_latency(records: list[RequestRecord]) -> float:
    """Mean request latency in seconds over served requests."""
    waits = [r.latency for r in records if r.latency is not None]
    if not waits:
        raise NoRequestsError("no request was served")
    return sum(waits) / len(waits)


class _WebQueue:
    """Request state for the web process.

    The client is closed-loop: it keeps a single request outstanding and
    only thinks about the next one after the response, so the request
    coin is flipped per slice while the server is idle.
    """

    def __init__(self):
        self.pending: list[RequestRecord] = []
        self.all: list[RequestRecord] = []
        self.served_this_slice = False

    def maybe_arrive(self, coin: bool, record_factory) -> None:
        if coin and not self.pending and not self.served_this_slice:
            record = record_factory()
            self.pending.append(record)
            self.all.append(record)
        self.served_this_slice = False

    def serve_head(self, slice_start: float) -> None:
        head = self.pending.pop(0)
        head.service_start_time = slice_start
        self.served_this_slice = True

    def __bool__(self) -> bool:
        return bool(self.pending)


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

    queue = _WebQueue()
    slice_counts = {i: 0 for i in range(len(config.weights))}

    if config.scheduler is SchedulerKind.PROPORTIONAL_SHARE:
        _run_ps(config, arrivals, offsets, queue, slice_counts)
    else:
        _run_auction(config, arrivals, offsets, seeds[2], queue, slice_counts)

    # Warm-up slices settle scheduler state and are excluded from stats.
    lo, hi = config.warmup_slices, n
    in_window = [r for r in queue.all if lo * dt <= r.arrival_time < hi * dt]
    served = [r for r in in_window if r.latency is not None]
    try:
        latency = measure_latency(in_window)
    except NoRequestsError:
        latency = None

    window = hi - lo
    busy = sum(slice_counts.values())
    shares = {pid: c / window for pid, c in slice_counts.items()}
    web_demand = len(in_window) * config.web.service_demand / (window * dt)

    intended = _intended_shares(config, web_demand)
    actual = {pid: shares[pid] for pid in intended}
    error = proportional.scheduling_error(actual, intended)

    return HostMetrics(
        scheduler=config.scheduler.value,
        web_weight_share=config.weights[0] / sum(config.weights),
        web_yields=config.web.yields_cpu,
        scheduling_error=error,
        mean_latency=latency,
        utilization=busy / window,
        per_process_shares=shares,
        requests_served=len(served),
        seed=config.rng_seed,
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


def _run_ps(config, arrivals, offsets, queue, slice_counts):
    dt = config.timeslice_length
    # Virtual times start one slice ahead (stride style) so the first
    # rounds already interleave by weight instead of by id.
    processes = [
        PSProcess(pid, w, virtual_time=dt / w)
        for pid, w in enumerate(config.weights)
    ]
    web = processes[0]
    lo = config.warmup_slices
    web_was_runnable = not config.web.yields_cpu

    for k in range(config.num_timeslices):
        if config.web.yields_cpu and not queue:
            runnable = processes[1:]
            web_was_runnable = False
        else:
            runnable = processes
            if not web_was_runnable:
                # Rejoin at the round's current virtual time plus one own
                # stride, with no credit for time spent sleeping.  The
                # round time sits one aggregate step below the minimum
                # pass value, which lets a heavy process preempt at the
                # next boundary while a light one waits out the round.
                batch = processes[1:]
                floor = min(p.virtual_time for p in batch)
                round_vt = floor - dt / sum(p.weight for p in batch)
                web.virtual_time = max(web.virtual_time,
                                       round_vt + dt / web.weight)
                web_was_runnable = True
        winner = proportional.select_winner(runnable)
        if winner is web and queue:
            queue.serve_head(k * dt)
        proportional.advance(winner, dt)
        if k >= lo:
            slice_counts[winner.process_id] += 1
        queue.maybe_arrive(
            bool(arrivals[k]),
            lambda: RequestRecord(arrival_time=(k + offsets[k]) * dt))


def _run_auction(config, arrivals, offsets, funding_seed, queue, slice_counts):
    dt = config.timeslice_length
    duration = config.num_timeslices * dt
    interval = config.funding_mean_interval
    slices_per_interval = interval / dt

    sched = auction.AuctionShareScheduler(
        SchedulerConfig(timeslice_length=dt, price_mode=config.price_mode)
    )
    agent_seeds = funding_seed.spawn(len(config.weights))
    # At equilibrium each account holds about one interval of the host's
    # *total* income (spend per slice is balance / slices-per-interval,
    # and the clearing price is total income per slice).  Starting there
    # keeps the short run representative instead of spending its first
    # seconds accumulating working capital.
    start_balance = (
        sum(config.weights) * interval * config.initial_funding_intervals
    )
    events = {}
    for pid, rate in enumerate(config.weights):
        if pid == 0 and config.web.yields_cpu:
            wanted_fraction = config.web.request_probability
        else:
            wanted_fraction = 1.0
        sched.add_agent(
            AgentAccount(
                agent_id=pid,
                balance=start_balance,
                requested_cpu_seconds=wanted_fraction * slices_per_interval,
            ),
            runnable=not (pid == 0 and config.web.yields_cpu),
        )
        if config.funding_mode is FundingMode.PERIODIC:
            # Income rate sets the refill frequency, not the lump size:
            # every deposit is worth one base interval of income and a
            # richer agent is simply topped up proportionally more often.
            # Equal lumps mean every agent's credits are spent against
            # the same clearing-price mix, so shares track incomes.
            period = interval / rate
            events[pid] = [
                (j * period, rate * period)
                for j in range(1, int(duration / period) + 1)
            ]
        else:
            events[pid] = gen_funding_events(
                rate, duration, np.random.default_rng(agent_seeds[pid])
            )

    cursors = {pid: 0 for pid in events}
    lo = config.warmup_slices

    for k in range(config.num_timeslices):
        now = k * dt
        for pid, evs in events.items():
            i = cursors[pid]
            while i < len(evs) and evs[i][0] <= now:
                sched.fund(pid, evs[i][1])
                i += 1
            cursors[pid] = i

        if config.web.yields_cpu:
            sched.set_runnable(0, bool(queue))
        result = sched.run_slice()
        if result.winner == 0 and queue:
            queue.serve_head(now)
        if result.winner is not None and k >= lo:
            slice_counts[result.winner] += 1
        queue.maybe_arrive(
            bool(arrivals[k]),
            lambda: RequestRecord(arrival_time=(k + offsets[k]) * dt))
