"""Market simulation: budgets, water-filling, utility accounting."""

import dataclasses

import numpy as np
import pytest

from tycoon_sim import cli
from tycoon_sim.errors import ExpiredTaskError, InvalidSpecError
from tycoon_sim.market import (
    Behavior,
    MarketConfig,
    MarketUser,
    Task,
    accrue_utility,
    allocate_host_step,
    market_budget_weight,
    obedient_weight,
    run_market_sim,
    strategic_nomarket_weight,
)


def task(value=0.5, size=10.0, deadline=30.0, arrival=0.0):
    return Task(task_id=0, owner=0, size=size, deadline=deadline,
                value=value, arrival_time=arrival)


# -- weight policies -------------------------------------------------------


def test_obedient_weight_is_declared_value():
    assert obedient_weight(task(value=0.7)) == 0.7
    assert obedient_weight(task(value=1.0)) == 1.0


def test_strategic_weight_is_the_cap():
    assert strategic_nomarket_weight() == 1.0
    assert strategic_nomarket_weight(max_weight=3.0) == 3.0


def test_budget_weight_worked_example():
    # 100 credits on a value-0.5 task, 10 hosts, 5 time units left.
    assert market_budget_weight(100.0, 0.5, 10, 5.0, 0.0) == pytest.approx(1.0)


def test_budget_weight_empty_wallet():
    assert market_budget_weight(0.0, 0.9, 10, 5.0, 0.0) == 0.0


def test_budget_weight_capped_by_per_host_balance():
    # Urgent deadline would imply rate 45; the cap is balance/num_hosts.
    weight = market_budget_weight(100.0, 0.9, 10, 0.2, 0.0)
    assert weight == pytest.approx(10.0)


def test_budget_weight_expired_task_raises():
    with pytest.raises(ExpiredTaskError):
        market_budget_weight(100.0, 0.5, 10, 5.0, 5.0)
    with pytest.raises(InvalidSpecError):
        market_budget_weight(100.0, 0.5, 0, 5.0, 0.0)


# -- water-filling ---------------------------------------------------------


def test_equal_weights_split_evenly():
    grant = allocate_host_step([1.0, 1.0], [np.inf, np.inf])
    assert grant == pytest.approx([0.5, 0.5])


def test_capped_task_releases_capacity():
    # The weight-3 task only needs 0.1; the rest flows to the other.
    grant = allocate_host_step([3.0, 1.0], [0.1, np.inf])
    assert grant == pytest.approx([0.1, 0.9])


def test_single_task_takes_its_demand():
    assert allocate_host_step([2.0], [0.3]) == pytest.approx([0.3])
    assert allocate_host_step([2.0], [np.inf]) == pytest.approx([1.0])


def test_all_zero_weights_idle():
    assert allocate_host_step([0.0, 0.0], [1.0, 1.0]) == pytest.approx([0, 0])
    assert allocate_host_step([], []).size == 0


def test_grants_never_exceed_capacity_or_demand():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        weights = rng.random(n) * (rng.random(n) > 0.2)
        remaining = rng.random(n) * 2
        capacity = float(rng.uniform(0.1, 3.0))
        grant = allocate_host_step(weights, remaining, capacity)
        assert np.all(grant >= -1e-12)
        assert np.all(grant <= remaining + 1e-12)
        assert grant.sum() <= capacity + 1e-9
        # Water conservation: capacity is exhausted unless demand ran out.
        demand = remaining[weights > 0].sum()
        assert grant.sum() == pytest.approx(min(capacity, demand), abs=1e-9)


def test_allocation_rejects_malformed_input():
    with pytest.raises(InvalidSpecError):
        allocate_host_step([1.0], [1.0, 2.0])
    with pytest.raises(InvalidSpecError):
        allocate_host_step([-1.0], [1.0])
    with pytest.raises(InvalidSpecError):
        allocate_host_step([1.0], [-1.0])


# -- utility ----------------------------------------------------------------


def test_utility_requires_completion_by_deadline():
    done = task(value=0.5, size=10.0, deadline=30.0)
    done.work_done = done.size
    assert accrue_utility(done, completion_time=29.0) == 5.0
    assert accrue_utility(done, completion_time=31.0) == 0.0
    unfinished = task()
    unfinished.work_done = 9.9
    assert accrue_utility(unfinished, completion_time=29.0) == 0.0


# -- user accounting ---------------------------------------------------------


def test_delta_log_replays_to_balance_exactly():
    user = MarketUser(user_id=0, behavior=Behavior.STRATEGIC_MARKET,
                      balance=10.0)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        amount = float(rng.random())
        if rng.random() < 0.5 and user.balance >= amount:
            user.debit(amount)
        else:
            user.credit(amount)
    replay = 10.0
    for delta in user.delta_log:
        replay += delta
    assert replay == user.balance  # same op order, bit-exact


# -- whole runs ---------------------------------------------------------------


def small_config(**overrides):
    base = dict(num_users=20, num_hosts=4, duration=150,
                mean_task_interarrival=80.0, rng_seed=11)
    base.update(overrides)
    return MarketConfig(**base)


def test_run_is_deterministic_per_seed():
    cfg = small_config()
    a, b = run_market_sim(cfg), run_market_sim(cfg)
    assert a == b
    assert run_market_sim(dataclasses.replace(cfg, rng_seed=12)) != a


def test_no_arrivals_no_utility():
    cfg = small_config(mean_task_interarrival=1e9)
    result = run_market_sim(cfg)
    assert result.mean_utility_per_host_per_time_unit == 0.0


def test_utility_rate_bounded_by_one():
    # Value <= 1 per unit of work and one CPU per host bound the rate.
    for behavior in Behavior:
        cfg = small_config(behavior=behavior, mean_task_interarrival=20.0)
        result = run_market_sim(cfg)
        assert 0.0 <= result.mean_utility_per_host_per_time_unit <= 1.0


def test_free_riders_lose_past_saturation():
    # At twice the saturating load, never dropping expired tasks chokes
    # the obedient-style clairvoyant allocation.
    results = {}
    for behavior in (Behavior.OBEDIENT, Behavior.STRATEGIC_NO_MARKET):
        values = []
        for seed in range(1, 5):
            cfg = small_config(behavior=behavior, mean_task_interarrival=10.0,
                               rng_seed=seed)
            values.append(
                run_market_sim(cfg).mean_utility_per_host_per_time_unit)
        results[behavior] = float(np.mean(values))
    assert results[Behavior.STRATEGIC_NO_MARKET] < results[Behavior.OBEDIENT]


def test_market_point_aggregates_seeds():
    block = {"num_users": 20, "num_hosts": 4, "duration": 150}
    for ia in (100.0, 50.0):
        row = cli._market_point({"market": block}, Behavior.OBEDIENT, ia,
                                [11, 12, 13])
        interarrival, behavior, mean, stddev, seeds = row
        assert (interarrival, behavior, seeds) == (ia, "obedient", 3)
        assert stddev >= 0.0
        per_seed = [run_market_sim(small_config(mean_task_interarrival=ia,
                                                rng_seed=s))
                    .mean_utility_per_host_per_time_unit for s in (11, 12, 13)]
        assert mean == pytest.approx(np.mean(per_seed))


def test_config_validation():
    with pytest.raises(InvalidSpecError):
        MarketConfig(num_users=0).validate()
    with pytest.raises(InvalidSpecError):
        MarketConfig(mean_task_interarrival=0.0).validate()
    MarketConfig().validate()
