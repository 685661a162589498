"""Market simulation: budgets, water-filling, utility accounting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tycoon_sim import cli, market
from tycoon_sim.errors import ExpiredTaskError, InvalidSpecError
from tycoon_sim.market import (
    Behavior,
    MarketConfig,
    MarketSim,
    allocate_host_step,
    market_budget_weight,
    run_market_sim,
)


def run_on_tasks(monkeypatch, tasks, **overrides):
    """Run one MarketSim on a hand-built task table.

    ``tasks`` holds (arrival, owner, size, deadline, value) rows in
    arrival order.  Returns the finished sim and the weights of every
    allocation the run made.
    """
    columns = [np.array(c, dtype=float) for c in zip(*tasks)]
    columns[1] = columns[1].astype(np.intp)
    monkeypatch.setattr(market, "_draw_tasks", lambda cfg, rng: columns)
    weights_seen = []
    fill = market.allocate_host_step

    def spy(weights, remaining, capacity=1.0):
        weights_seen.append(np.array(weights))
        return fill(weights, remaining, capacity)

    monkeypatch.setattr(market, "allocate_host_step", spy)
    base = dict(num_users=2, num_hosts=1, duration=40)
    base.update(overrides)
    sim = MarketSim(MarketConfig(**base))
    sim.run()
    return sim, weights_seen


# -- weight policies -------------------------------------------------------


# Three long tasks, live together from step 1 on.
THREE_TASKS = [(0.5, 0, 50.0, 100.0, 0.7), (0.6, 1, 50.0, 100.0, 1.0),
               (0.7, 0, 50.0, 100.0, 0.25)]


def test_obedient_weight_is_declared_value(monkeypatch):
    _, weights = run_on_tasks(monkeypatch, THREE_TASKS, duration=3)
    assert [w.tolist() for w in weights] == [[0.7, 1.0, 0.25]] * 2


def test_strategic_weight_is_the_cap(monkeypatch):
    for cap in (1.0, 3.0):
        _, weights = run_on_tasks(monkeypatch, THREE_TASKS, duration=3,
                                  behavior=Behavior.STRATEGIC_NO_MARKET,
                                  max_weight=cap)
        assert [w.tolist() for w in weights] == [[cap] * 3] * 2


def test_budget_weight_worked_example():
    # 100 credits on a value-0.5 task, 10 hosts, 5 time units left.
    assert market_budget_weight(100.0, 0.5, 10, 5.0, 0.0) == pytest.approx(1.0)


def test_budget_weight_empty_wallet():
    assert market_budget_weight(0.0, 0.9, 10, 5.0, 0.0) == 0.0


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


weights_st = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
remaining_st = st.one_of(st.just(0.0), st.floats(1e-3, 10.0),
                         st.just(float("inf")))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(weights_st, remaining_st), max_size=40),
       st.floats(0.1, 20.0))
def test_grants_respect_capacity_demand_and_weight(tasks, capacity):
    weights = np.array([w for w, _ in tasks], dtype=float)
    remaining = np.array([r for _, r in tasks], dtype=float)
    grant = allocate_host_step(weights, remaining, capacity)
    assert np.all(grant >= 0.0)
    assert grant.sum() <= capacity * (1 + 1e-12)
    assert np.all(grant <= remaining)
    # Tasks the fill never capped share in proportion to their weights.
    uncapped = (weights > 0) & (remaining - grant > 1e-12)
    per_weight = grant[uncapped] / weights[uncapped]
    if per_weight.size:
        assert per_weight.max() == pytest.approx(per_weight.min(), rel=1e-9)


# -- utility ----------------------------------------------------------------


def test_utility_requires_completion_by_deadline(monkeypatch):
    # One size-10 task on one host runs steps 1..10 and finishes at 11.
    on_time = [(0.5, 0, 10.0, 30.5, 0.5)]
    sim, weights = run_on_tasks(monkeypatch, on_time)
    assert (len(weights), sim.total_utility) == (10, 5.0)
    # A free rider keeps a task past its deadline: it finishes, earns 0.
    late = [(0.5, 0, 10.0, 8.5, 0.5)]
    sim, weights = run_on_tasks(monkeypatch, late,
                                behavior=Behavior.STRATEGIC_NO_MARKET)
    assert (len(weights), sim.total_utility) == (10, 0.0)
    # An obedient user withdraws it once it can no longer finish in time.
    sim, weights = run_on_tasks(monkeypatch, late)
    assert (len(weights), sim.total_utility) == (7, 0.0)
    # Unfinished when the run ends: nothing.
    sim, weights = run_on_tasks(monkeypatch, on_time, duration=5)
    assert (len(weights), sim.total_utility) == (4, 0.0)


# -- user accounting ---------------------------------------------------------


def test_budgeted_users_never_overspend(monkeypatch):
    """No purse goes negative, and no user spends more than it was given."""
    weights_for = MarketSim._weights_for
    for ia, initial in ((20.0, 0.0), (80.0, 5.0)):
        cfg = small_config(behavior=Behavior.STRATEGIC_MARKET, duration=300,
                           mean_task_interarrival=ia, initial_balance=initial)
        spent = np.zeros(cfg.num_users)
        lowest = []

        def spy(self, live, now):
            weights = weights_for(self, live, now)
            np.add.at(spent, self.owner[live], weights * cfg.num_hosts)
            lowest.append(self.balance.min())
            return weights

        monkeypatch.setattr(MarketSim, "_weights_for", spy)
        run_market_sim(cfg)
        assert len(lowest) > 100 and spent.sum() > 0
        assert min(lowest) >= 0.0
        assert np.all(spent <= initial + cfg.income_rate * cfg.duration)


# -- whole runs ---------------------------------------------------------------


def small_config(**overrides):
    base = dict(num_users=20, num_hosts=4, duration=150,
                mean_task_interarrival=80.0, rng_seed=11)
    base.update(overrides)
    return MarketConfig(**base)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16),
       interarrival=st.sampled_from([20.0, 50.0, 140.0]),
       initial=st.sampled_from([0.0, 5.0, 100.0]),
       num_hosts=st.integers(1, 4))
def test_budget_weight_within_per_host_balance_in_a_run(seed, interarrival,
                                                        initial, num_hosts):
    # A live budgeted task has at least one time unit left and a value
    # of at most 1, so no weight a run asks for exceeds balance/num_hosts.
    checked = []
    weight_of = market.market_budget_weight

    def spy(balance, value, hosts, deadline, now):
        weight = weight_of(balance, value, hosts, deadline, now)
        checked.append(bool(np.all(weight <= balance / hosts)))
        return weight

    cfg = small_config(behavior=Behavior.STRATEGIC_MARKET, rng_seed=seed,
                       mean_task_interarrival=interarrival,
                       initial_balance=initial, num_hosts=num_hosts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "market_budget_weight", spy)
        run_market_sim(cfg)
    assert checked and all(checked)


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


# repr-exact utilities of 20 users on 4 hosts for 300 steps (seed 5).  A
# run that changes a float operation, or the order of the utility sum,
# misses them in the last digits.
PINNED_UTILITY = {
    (Behavior.OBEDIENT, 80.0): 0.3220384527244685,
    (Behavior.OBEDIENT, 20.0): 0.09516812880722118,
    (Behavior.STRATEGIC_NO_MARKET, 80.0): 0.32203845272446846,
    (Behavior.STRATEGIC_NO_MARKET, 20.0): 0.015401716711888188,
    (Behavior.STRATEGIC_MARKET, 80.0): 0.3220384527244685,
    (Behavior.STRATEGIC_MARKET, 20.0): 0.2691714197562027,
}


def test_market_runs_match_pinned_values():
    for (behavior, ia), expected in PINNED_UTILITY.items():
        cfg = small_config(behavior=behavior, mean_task_interarrival=ia,
                           duration=300, rng_seed=5)
        assert run_market_sim(cfg).mean_utility_per_host_per_time_unit \
            == expected, (behavior, ia)


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
