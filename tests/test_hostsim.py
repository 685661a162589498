"""Host simulation: funding streams, latency accounting, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tycoon_sim import hostsim
from tycoon_sim.errors import ConfigError, NoRequestsError
from tycoon_sim.hostsim import (
    FundingMode,
    HostSimConfig,
    RequestRecord,
    SchedulerKind,
    WorkloadSpec,
    comparison_rows,
    gen_funding_events,
    measure_latency,
    run_host_sim,
)
from tycoon_sim.sched import auction, proportional
from tycoon_sim.sched.types import (AgentAccount, PriceMode, PSProcess,
                                    SchedulerConfig)

SMALL = dict(num_timeslices=400, warmup_slices=50)


# -- funding events -------------------------------------------------------


def test_funding_totals_track_rate_times_duration():
    totals = []
    for seed in range(120):
        events = gen_funding_events(2.0, 1000.0, seed)
        totals.append(sum(amount for _, amount in events))
    mean_total = float(np.mean(totals))
    assert abs(mean_total - 2000.0) / 2000.0 < 0.10


def test_funding_events_ordered_and_in_range():
    events = gen_funding_events(1.5, 50.0, 3)
    times = [t for t, _ in events]
    assert times == sorted(times)
    assert all(0 < t < 50.0 for t in times)
    assert all(amount > 0 for _, amount in events)


def test_funding_zero_duration_empty():
    assert gen_funding_events(1.0, 0.0, 1) == []


def test_funding_fixed_seed_reproducible():
    assert gen_funding_events(3.0, 200.0, 9) == gen_funding_events(3.0, 200.0, 9)


def test_funding_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        gen_funding_events(0.0, 10.0, 1)


# -- latency measurement --------------------------------------------------


def record(arrival, start=None):
    rec = RequestRecord(arrival_time=arrival)
    rec.service_start_time = start
    return rec


def test_latency_is_wait_until_service_starts():
    served = record(0.005, start=0.010)
    assert measure_latency([served]) == pytest.approx(0.005)


def test_latency_averages_only_served_requests():
    reqs = [record(0.0, start=0.010), record(0.5, start=0.540), record(0.9)]
    assert measure_latency(reqs) == pytest.approx((0.010 + 0.040) / 2)


def test_latency_requires_a_served_request():
    with pytest.raises(NoRequestsError):
        measure_latency([record(0.1)])


# -- configuration --------------------------------------------------------


def test_config_validate_rejects_bad_values():
    bad = [
        dict(num_timeslices=0),
        dict(warmup_slices=400, num_timeslices=400),
        dict(weights=(1.0,)),
        dict(weights=(1.0, -2.0)),
        dict(web=WorkloadSpec(request_probability=1.5)),
        dict(web=WorkloadSpec(service_demand=0.0)),
        dict(web=WorkloadSpec(service_demand=0.011)),
        # A served request takes the whole slice, whatever the demand.
        dict(web=WorkloadSpec(service_demand=0.005)),
        dict(timeslice_length=1e-300),
        dict(web_intended_share=0.0),
        dict(funding_mean_interval=0.0),
        # Weight 4 would be topped up every 7.5 ms, inside one 10 ms slice.
        dict(funding_mean_interval=0.03),
        dict(initial_funding_intervals=-1.0),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            HostSimConfig(**overrides).validate()
    HostSimConfig().validate()
    # A request that takes exactly one slice still fits in it.
    HostSimConfig(timeslice_length=0.02,
                  web=WorkloadSpec(service_demand=0.02)).validate()
    # One deposit a slice for the richest agent is still allowed, and
    # Poisson gaps do not depend on the interval.
    HostSimConfig(funding_mean_interval=0.04).validate()
    HostSimConfig(funding_mean_interval=0.03,
                  funding_mode=FundingMode.POISSON).validate()


def test_comparison_rows_cover_the_grid():
    rows = comparison_rows()
    assert len(rows) == 5
    labels = [label for label, _ in rows]
    assert len(set(labels)) == 5
    by_label = dict(rows)
    assert by_label["ps-7/10-noyield"].weights[0] == 21
    assert not by_label["ps-7/10-noyield"].web.yields_cpu
    assert by_label["as-1/10-yield"].scheduler is SchedulerKind.AUCTION_SHARE
    base = HostSimConfig(num_timeslices=123, rng_seed=7)
    for _, cfg in comparison_rows(base):
        assert cfg.num_timeslices == 123
        assert cfg.rng_seed == 7


# -- end-to-end runs ------------------------------------------------------


def test_run_is_deterministic_per_seed():
    cfg = HostSimConfig(**SMALL, rng_seed=5)
    a, b = run_host_sim(cfg), run_host_sim(cfg)
    assert a == b
    c = run_host_sim(dataclasses.replace(cfg, rng_seed=6))
    assert c != a


def test_zero_request_probability_idles_the_web_process():
    cfg = HostSimConfig(
        **SMALL, web=WorkloadSpec(request_probability=0.0))
    metrics = run_host_sim(cfg)
    assert metrics.mean_latency is None
    assert metrics.requests_served == 0
    assert metrics.per_process_shares[0] == 0.0
    # Batch processes keep the CPU busy throughout.
    assert metrics.utilization == 1.0


def test_web_demand_filling_the_window_drops_batch_targets():
    # One measured slice, and a request arrives in it: the yielding web
    # server's target is the whole CPU, so no batch process has a target.
    cfg = HostSimConfig(
        num_timeslices=580, warmup_slices=579, weights=(1.0, 1.0),
        web=WorkloadSpec(request_probability=0.75, service_demand=0.01,
                         yields_cpu=True),
        timeslice_length=0.01, rng_seed=3)
    metrics = run_host_sim(cfg)
    assert metrics.per_process_shares == {0: 0.0, 1: 1.0}
    assert metrics.scheduling_error == 1.0
    assert hostsim._intended_shares(cfg, 1.0) == {0: 1.0}
    assert hostsim._intended_shares(cfg, 0.25) == {0: 0.25, 1: 0.75}


def test_latency_metrics_are_python_floats():
    for scheduler in SchedulerKind:
        metrics = run_host_sim(HostSimConfig(**SMALL, scheduler=scheduler))
        assert type(metrics.mean_latency) is float
        assert type(metrics.mean_latency_ms) is float


def test_shares_sum_to_utilization():
    for scheduler in SchedulerKind:
        metrics = run_host_sim(HostSimConfig(**SMALL, scheduler=scheduler))
        assert sum(metrics.per_process_shares.values()) == pytest.approx(
            metrics.utilization)


def test_nonyielding_web_takes_its_weight_share_under_ps():
    cfg = HostSimConfig(
        **SMALL,
        weights=(21, 2, 3, 4),
        web=WorkloadSpec(yields_cpu=False),
    )
    metrics = run_host_sim(cfg)
    assert metrics.per_process_shares[0] == pytest.approx(0.7, abs=0.01)
    # Entitled to 1/10, taking 7/10: the error metric sees all of it.
    assert metrics.scheduling_error > 5.0


def test_yielding_web_latency_beats_nonyielding_under_auction():
    yields = run_host_sim(HostSimConfig(
        **SMALL, scheduler=SchedulerKind.AUCTION_SHARE, rng_seed=3))
    burns = run_host_sim(HostSimConfig(
        **SMALL, scheduler=SchedulerKind.AUCTION_SHARE, rng_seed=3,
        web=WorkloadSpec(yields_cpu=False)))
    assert yields.mean_latency < burns.mean_latency


def test_poisson_funding_mode_runs_and_differs():
    base = HostSimConfig(**SMALL, scheduler=SchedulerKind.AUCTION_SHARE)
    periodic = run_host_sim(base)
    poisson = run_host_sim(dataclasses.replace(
        base, funding_mode=FundingMode.POISSON))
    assert poisson != periodic
    assert poisson.utilization > 0.9


def test_auction_shares_follow_income_rates():
    metrics = run_host_sim(HostSimConfig(
        num_timeslices=2000, warmup_slices=200,
        scheduler=SchedulerKind.AUCTION_SHARE))
    # Batches split what the web server's demand leaves over, 2:3:4.
    leftover = 1.0 - metrics.per_process_shares[0]
    for pid, rate in ((1, 2), (2, 3), (3, 4)):
        assert metrics.per_process_shares[pid] == pytest.approx(
            leftover * rate / 9, abs=0.02)


# repr-exact HostMetrics of the five comparison rows over 400 slices (50
# of warm-up) at two seeds: (scheduling_error, mean_latency, utilization,
# per_process_shares).  A run that changes a float operation, a random
# draw or a winner misses them in the last digits.
PINNED_HOST = {
    3: {
        "ps-1/10-yield": (
            0.057497467071935204, 0.08984498668370605, 1.0,
            {0: 0.05714285714285714, 1: 0.20857142857142857,
             2: 0.3142857142857143, 3: 0.42}),
        "ps-7/10-yield": (
            0.013281250000000099, 0.004734452100885274, 1.0,
            {0: 0.08571428571428572, 1: 0.20285714285714285,
             2: 0.3028571428571429, 3: 0.4085714285714286}),
        "ps-7/10-noyield": (
            8.002380952380951, 0.011018488930676692, 1.0,
            {0: 0.7, 1: 0.06571428571428571, 2: 0.1,
             3: 0.13428571428571429}),
        "as-1/10-yield": (
            0.04609375000000017, 0.004734452100885274, 1.0,
            {0: 0.08571428571428572, 1: 0.20285714285714285,
             2: 0.29714285714285715, 3: 0.4142857142857143}),
        "as-1/10-noyield": (
            0.1904761904761907, 0.1199428442566553, 1.0,
            {0: 0.08857142857142856, 1: 0.2057142857142857,
             2: 0.29428571428571426, 3: 0.4114285714285714}),
    },
    8: {
        "ps-1/10-yield": (
            0.056737588652482046, 0.08848267117816216, 1.0,
            {0: 0.06285714285714286, 1: 0.20857142857142857,
             2: 0.31142857142857144, 3: 0.41714285714285715}),
        "ps-7/10-yield": (
            0.013665594855305427, 0.005101169029439732, 1.0,
            {0: 0.11142857142857143, 1: 0.19714285714285715,
             2: 0.29428571428571426, 3: 0.39714285714285713}),
        "ps-7/10-noyield": (
            8.002380952380951, 0.00905973386823062, 1.0,
            {0: 0.7, 1: 0.06571428571428571, 2: 0.1,
             3: 0.13428571428571429}),
        "as-1/10-yield": (
            0.06913183279742749, 0.005101169029439732, 1.0,
            {0: 0.11142857142857143, 1: 0.19428571428571428,
             2: 0.2885714285714286, 3: 0.4057142857142857}),
        "as-1/10-noyield": (
            0.1904761904761907, 0.11141513955859549, 1.0,
            {0: 0.08857142857142856, 1: 0.2057142857142857,
             2: 0.29428571428571426, 3: 0.4114285714285714}),
    },
}


@pytest.mark.parametrize("seed", PINNED_HOST)
def test_host_runs_match_pinned_values(seed):
    base = HostSimConfig(**SMALL, rng_seed=seed)
    for label, cfg in comparison_rows(base):
        m = run_host_sim(cfg)
        assert (m.scheduling_error, m.mean_latency, m.utilization,
                m.per_process_shares) == PINNED_HOST[seed][label], label


# -- event windows against the per-slice loops ----------------------------


class PerSliceWebQueue:
    """The web queue as the per-slice loops below book it."""

    def __init__(self):
        self.pending = []
        self.all = []
        self.served_this_slice = False

    def maybe_arrive(self, coin, record_factory):
        if coin and not self.pending and not self.served_this_slice:
            record = record_factory()
            self.pending.append(record)
            self.all.append(record)
        self.served_this_slice = False

    def serve_head(self, slice_start):
        head = self.pending.pop(0)
        head.service_start_time = slice_start
        self.served_this_slice = True

    def __bool__(self):
        return bool(self.pending)


def per_slice_ps(config, arrivals, offsets, queue, slice_counts):
    dt = config.timeslice_length
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
            lambda: RequestRecord(
                arrival_time=float((k + offsets[k]) * dt)))


def per_slice_auction(config, arrivals, offsets, funding_seed, queue,
                      slice_counts):
    dt = config.timeslice_length
    duration = config.num_timeslices * dt
    interval = config.funding_mean_interval
    slices_per_interval = interval / dt

    sched = auction.AuctionShareScheduler(
        SchedulerConfig(timeslice_length=dt, price_mode=config.price_mode)
    )
    agent_seeds = funding_seed.spawn(len(config.weights))
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
            lambda: RequestRecord(
                arrival_time=float((k + offsets[k]) * dt)))


def per_slice_host_sim(config):
    """run_host_sim with one scheduler round per slice, kept as the
    reference the event windows must reproduce."""
    n = config.num_timeslices
    seeds = np.random.SeedSequence(config.rng_seed).spawn(3)
    arrivals = (np.random.default_rng(seeds[0]).random(n)
                < config.web.request_probability)
    offsets = np.random.default_rng(seeds[1]).random(n)
    queue = PerSliceWebQueue()
    slice_counts = {i: 0 for i in range(len(config.weights))}
    if config.scheduler is SchedulerKind.PROPORTIONAL_SHARE:
        per_slice_ps(config, arrivals, offsets, queue, slice_counts)
    else:
        per_slice_auction(config, arrivals, offsets, seeds[2], queue,
                          slice_counts)
    return hostsim._host_metrics(config, queue.all, slice_counts)


@st.composite
def host_configs(draw):
    n = draw(st.integers(50, 600))
    weights = draw(st.lists(st.integers(1, 29), min_size=2, max_size=6))
    config = HostSimConfig(
        scheduler=draw(st.sampled_from(SchedulerKind)),
        num_timeslices=n,
        weights=tuple(float(w) for w in weights),
        web=WorkloadSpec(
            request_probability=draw(
                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
            yields_cpu=draw(st.booleans())),
        warmup_slices=draw(st.integers(0, n - 1)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
        funding_mode=draw(st.sampled_from(FundingMode)),
        funding_mean_interval=draw(st.sampled_from([1.0, 0.5, 0.35])),
        # Empty accounts start every bid at 0, a tie among all agents.
        initial_funding_intervals=draw(st.sampled_from([1.0, 0.0])),
        price_mode=draw(st.sampled_from(PriceMode)))
    config.validate()
    return config


@settings(max_examples=150, deadline=None)
@given(host_configs())
def test_event_windows_reproduce_the_per_slice_loops(config):
    assert repr(run_host_sim(config)) == repr(per_slice_host_sim(config))
