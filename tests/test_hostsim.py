"""Host simulation: funding streams, latency accounting, determinism."""

import dataclasses

import numpy as np
import pytest

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
        dict(web_intended_share=0.0),
        dict(funding_mean_interval=0.0),
        dict(initial_funding_intervals=-1.0),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            HostSimConfig(**overrides).validate()
    HostSimConfig().validate()


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
