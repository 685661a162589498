"""Host simulation: funding streams, latency accounting, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tycoon_sim import hostsim
from tycoon_sim.errors import ConfigError
from tycoon_sim.hostsim import (
    FundingMode,
    HostSimConfig,
    RequestRecord,
    SchedulerKind,
    WorkloadSpec,
    comparison_rows,
    gen_funding_events,
    run_host_sim,
)
from tycoon_sim.sched import auction, proportional
from tycoon_sim.sched.types import (AgentAccount, PriceMode, PSProcess,
                                    SchedulerConfig)

SMALL = dict(num_timeslices=400, warmup_slices=50)


# -- funding events -------------------------------------------------------


def test_funding_totals_track_rate_times_duration():
    totals, counts = [], []
    for seed in range(120):
        events = gen_funding_events(2.0, 0.5, 1000.0, seed)
        totals.append(sum(amount for _, amount in events))
        counts.append(len(events))
    mean_total = float(np.mean(totals))
    assert abs(mean_total - 2000.0) / 2000.0 < 0.10
    # Gaps have the mean interval asked for: 1000 s / 0.5 s events.
    assert abs(float(np.mean(counts)) - 2000.0) / 2000.0 < 0.10


def test_funding_events_ordered_and_in_range():
    events = gen_funding_events(1.5, 1.0, 50.0, 3)
    times = [t for t, _ in events]
    assert times == sorted(times)
    assert all(0 < t < 50.0 for t in times)
    assert all(amount > 0 for _, amount in events)


def test_funding_zero_duration_empty():
    assert gen_funding_events(1.0, 1.0, 0.0, 1) == []


def test_funding_fixed_seed_reproducible():
    assert gen_funding_events(3.0, 2.0, 200.0, 9) \
        == gen_funding_events(3.0, 2.0, 200.0, 9)


def test_funding_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        gen_funding_events(0.0, 1.0, 10.0, 1)
    with pytest.raises(ValueError):
        gen_funding_events(1.0, 0.0, 10.0, 1)


# -- latency measurement --------------------------------------------------


def record(arrival, start=None):
    rec = RequestRecord(arrival_time=arrival)
    rec.service_start_time = start
    return rec


def metrics_for(records):
    """The metrics row for hand-built records, all inside the window
    [0.5, 4.0) seconds that ``SMALL`` measures."""
    config = HostSimConfig(**SMALL)
    return hostsim._host_metrics(
        config, records, dict.fromkeys(range(len(config.weights)), 1))


def test_latency_is_wait_until_service_starts():
    served = record(1.005, start=1.010)
    assert metrics_for([served]).mean_latency == pytest.approx(0.005)


def test_latency_averages_only_served_requests():
    reqs = [record(1.0, start=1.010), record(1.5, start=1.540), record(1.9)]
    metrics = metrics_for(reqs)
    assert metrics.mean_latency == pytest.approx((0.010 + 0.040) / 2)
    assert metrics.requests_served == 2


def test_latency_requires_a_served_request():
    metrics = metrics_for([record(1.1)])
    assert metrics.mean_latency is None
    assert metrics.requests_served == 0


# -- configuration --------------------------------------------------------


def test_config_validate_rejects_bad_values():
    bad = [
        dict(num_timeslices=0),
        dict(warmup_slices=400, num_timeslices=400),
        dict(weights=(1.0,)),
        dict(weights=(1.0, -2.0)),
        dict(web=WorkloadSpec(request_probability=1.5)),
        dict(web_intended_share=0.0),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            HostSimConfig(**overrides).validate()
    HostSimConfig().validate()
    # Only an auction run reads the funding fields: each of these fails
    # its bounds under the auction, and its stride twin is valid.
    funding = [
        dict(funding_mean_interval=0.0),
        # Weight 4 would be topped up every 7.5 ms, inside one 10 ms slice.
        dict(funding_mean_interval=0.03),
        # Poisson gaps of 5 ms on average, two deposits a slice.
        dict(funding_mean_interval=0.005, funding_mode=FundingMode.POISSON),
        dict(initial_funding_intervals=-1.0),
    ]
    for overrides in funding:
        with pytest.raises(ConfigError):
            HostSimConfig(scheduler=SchedulerKind.AUCTION_SHARE,
                          **overrides).validate()
        HostSimConfig(scheduler=SchedulerKind.PROPORTIONAL_SHARE,
                      **overrides).validate()
    # One deposit a slice for the richest agent is still allowed, and
    # Poisson gaps need only a mean of a slice, whatever the weights.
    HostSimConfig(scheduler=SchedulerKind.AUCTION_SHARE,
                  funding_mean_interval=0.04).validate()
    HostSimConfig(scheduler=SchedulerKind.AUCTION_SHARE,
                  funding_mean_interval=0.03,
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
        web=WorkloadSpec(request_probability=0.75, yields_cpu=True),
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
                rate, interval, duration,
                np.random.default_rng(agent_seeds[pid]))

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


@pytest.mark.parametrize("kind", SchedulerKind)
@pytest.mark.parametrize("yields", [True, False])
def test_each_window_is_one_run_rounds_call(monkeypatch, kind, yields):
    # Windows of any length, one slice included, go through run_rounds;
    # the single-round steps are reached only from inside it.  A window
    # may stop early only on a round its ``until`` process wins, so a
    # yielding stride server's pending request is one window, and under
    # the auction a whole request is, unless a deposit falls inside it.
    windows, singles, inside, requests, deposit_slices = [], [], [], [], set()
    stride = kind is SchedulerKind.PROPORTIONAL_SHARE

    def window(run_rounds):
        def spy(*args):
            # (runnable, n, dt, until) or (self, n, until, join)
            until = args[3 if stride else 2] if len(args) > 2 else None
            # An auction window goes through run_slice if it holds one
            # round or starts with ``until`` queued on top.
            on_top = not stride and until is not None and (
                args[0].heap.peek()[0] == until)
            inside.append(True)
            try:
                held = run_rounds(*args)
            finally:
                inside.pop()
            windows.append((args[1], until, held if stride else held[0],
                            args[1] == 1 or on_top))
            return held
        return spy

    def single(step):
        def spy(*args):
            assert inside, f"{step.__name__} called outside run_rounds"
            singles.append(step.__name__)
            return step(*args)
        return spy

    def deposit(fund):
        def spy(sched, *args):
            deposit_slices.add(sched.slice_index)
            return fund(sched, *args)
        return spy

    class Request(RequestRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            requests.append(self)

    monkeypatch.setattr(proportional, "run_rounds",
                        window(proportional.run_rounds))
    monkeypatch.setattr(auction.AuctionShareScheduler, "run_rounds",
                        window(auction.AuctionShareScheduler.run_rounds))
    for owner, name in ((proportional, "select_winner"),
                        (proportional, "advance"),
                        (auction.AuctionShareScheduler, "run_slice")):
        monkeypatch.setattr(owner, name, single(getattr(owner, name)))
    monkeypatch.setattr(auction.AuctionShareScheduler, "fund",
                        deposit(auction.AuctionShareScheduler.fund))
    monkeypatch.setattr(hostsim, "RequestRecord", Request)
    config = HostSimConfig(**SMALL, scheduler=kind,
                           web=WorkloadSpec(yields_cpu=yields))
    run_host_sim(config)
    assert sum(len(held) for _, _, held, _ in windows) == (
        config.num_timeslices)
    for n, until, held, _ in windows:
        assert until not in held[:-1]
        assert len(held) == n or 0 < len(held) < n and held[-1] == until
    held_one = sum(len(held) == 1 for _, _, held, _ in windows)
    if stride:
        assert singles.count("advance") == held_one
    else:
        assert singles == ["run_slice"] * sum(
            via_slice for *_, via_slice in windows)
    if yields:
        assert held_one
        pending = [held for _, until, held, _ in windows if until is not None]
        assert any(len(held) > 1 for held in pending)
    if stride and yields:
        assert len(pending) == len(requests) > 0
    if not stride and yields:
        # One window per request, plus one more per slice that takes a
        # deposit, and the last.
        assert 0 < len(windows) <= len(requests) + len(deposit_slices) + 1
        assert all(until == 0 for _, until, _, _ in windows)


def time_scaled(config, factor):
    """``config`` with every time in it scaled by ``factor``."""
    dt = config.timeslice_length * factor
    return dataclasses.replace(
        config, timeslice_length=dt,
        funding_mean_interval=config.funding_mean_interval * factor)


def assert_time_scales(config, factor):
    """A run and its time-scaled twin agree bit for bit: the same shares
    and error, and latency scaled exactly by ``factor``."""
    run, twin = run_host_sim(config), run_host_sim(time_scaled(config, factor))
    assert twin.per_process_shares == run.per_process_shares
    assert (twin.scheduling_error, twin.utilization, twin.requests_served) \
        == (run.scheduling_error, run.utilization, run.requests_served)
    if run.mean_latency is None:
        assert twin.mean_latency is None
    else:
        assert twin.mean_latency == run.mean_latency * factor


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SchedulerKind), st.booleans(),
       st.sampled_from(PriceMode),
       st.lists(st.integers(1, 29), min_size=2, max_size=5),
       st.integers(0, 2**32 - 1), st.integers(-20, 20))
def test_host_time_scaling_is_exact(kind, yields, price_mode, weights, seed,
                                    power):
    # Powers of two scale every float exactly; from 2**-20 to 2**20 times
    # the default times, no value comes near the subnormals or overflow.
    config = HostSimConfig(
        scheduler=kind, num_timeslices=300, warmup_slices=30,
        weights=tuple(map(float, weights)),
        web=WorkloadSpec(yields_cpu=yields), rng_seed=seed,
        price_mode=price_mode)
    config.validate()
    assert_time_scales(config, 2.0 ** power)


def test_host_time_scaling_is_exact_under_poisson_funding():
    assert_time_scales(HostSimConfig(
        **SMALL, scheduler=SchedulerKind.AUCTION_SHARE,
        funding_mode=FundingMode.POISSON, price_mode=PriceMode.FIRST_PRICE,
        rng_seed=1), 4.0)


# -- the low-latency claim --------------------------------------------------


@st.composite
def web_beside_batch(draw):
    """(weights, p, seed): a web income share of at least p, the request
    probability, against two to five batch agents."""
    batch = draw(st.lists(st.integers(1, 25), min_size=2, max_size=5))
    p = draw(st.floats(0.01, 0.45))
    share = draw(st.floats(p, 0.45))
    web = share / (1 - share) * sum(batch)
    assume(web / (web + sum(batch)) >= p)
    return ((web, *map(float, batch)), p,
            draw(st.integers(0, 2**32 - 1)))


def web_latency(weights, p, seed):
    return run_host_sim(HostSimConfig(
        scheduler=SchedulerKind.AUCTION_SHARE, num_timeslices=5000,
        weights=weights, web=WorkloadSpec(request_probability=p),
        price_mode=PriceMode.SECOND_PRICE, rng_seed=seed)).mean_latency


@settings(max_examples=40, deadline=None)
@given(web_beside_batch())
def test_web_with_its_demand_in_income_waits_at_most_a_slice(case):
    # Measured over 400 such runs: at most 5.8 ms, about half a slice.
    assert web_latency(*case) <= HostSimConfig().timeslice_length


@pytest.mark.xfail(strict=True, reason=(
    "a lone bidder pays 0 under second price, so a lone batch agent "
    "banks its income while the web sleeps and then outbids it"))
def test_web_beside_a_lone_batch_agent_waits_at_most_a_slice():
    # Income share 23/51 against p = 0.1; it waits about 15 ms.
    dt = HostSimConfig().timeslice_length
    assert web_latency((23.0, 28.0), 0.1, 1) <= dt
