"""Market simulation: budgets, water-filling, utility accounting."""

import dataclasses
import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tycoon_sim import cli, market
from tycoon_sim.errors import ExpiredTaskError, InvalidSpecError
from tycoon_sim.market import (
    MAX_EXPECTED_TASKS,
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
    # The patch replaces the draw's cache too, so no table drawn or
    # patched earlier under the same config is served in place of this one.
    monkeypatch.setattr(market, "_draw_tasks", lambda *args: tuple(columns))
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


def reference_fill(weights, remaining, capacity=1.0):
    """allocate_host_step with every round masked, the first included;
    kept as the reference the all-open first round must reproduce."""
    w = np.asarray(weights, dtype=float)
    rem = np.asarray(remaining, dtype=float)
    if w.shape != rem.shape:
        raise InvalidSpecError("weights and remaining must align")
    if (w < 0).any() or (rem < 0).any():
        raise InvalidSpecError("weights and remaining must be nonnegative")
    grant = np.zeros(rem.shape)
    unmet = rem  # rem - grant
    left = capacity
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
    np.copyto(grant, rem, where=grant > rem)
    return grant


def test_capped_grant_never_rounds_above_its_demand():
    # The second round's grant + (rem - grant) rounds one ulp above 2.31...
    weights = [739.0989875012624, 0.3333333333333333, 325.6086160732494,
               462.52809104544343]
    remaining = np.array([1.0, 2.3137394776713696, 1.0, 1.0])
    grant = allocate_host_step(weights, remaining, 17.987516257436834)
    assert hex_grants(grant) == hex_grants(remaining)


def hex_grants(grant):
    return [g.hex() for g in np.asarray(grant).tolist()]


open_weight_st = st.floats(1e-3, 1e3)
open_remaining_st = st.one_of(st.floats(1e-3, 10.0), st.just(float("inf")))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
           # Partly open: zero weights and zero or infinite demands.
           st.lists(st.tuples(weights_st, remaining_st), max_size=40),
           # All open, capped in the first round or not.
           st.lists(st.tuples(open_weight_st, open_remaining_st),
                    min_size=1, max_size=40)),
       st.floats(0.1, 20.0))
def test_fill_matches_the_masked_reference_bit_for_bit(tasks, capacity):
    weights = np.array([w for w, _ in tasks], dtype=float)
    remaining = np.array([r for _, r in tasks], dtype=float)
    assert hex_grants(allocate_host_step(weights, remaining, capacity)) \
        == hex_grants(reference_fill(weights, remaining, capacity))


@pytest.mark.parametrize("weights,remaining", [
    ([float("nan"), 1.0], [1.0, 1.0]),
    ([1.0, 1.0], [float("nan"), 0.5]),
    ([float("nan")], [float("nan")]),
    ([2.0, -1.0], [1.0, 1.0]),
    ([2.0, 1.0], [1.0, -0.5]),
    ([float("nan"), -1.0], [1.0, 1.0]),
])
def test_fill_treats_nan_and_negative_input_as_the_reference(weights,
                                                              remaining):
    try:
        expected = hex_grants(reference_fill(weights, remaining, 2.0))
    except InvalidSpecError:
        with pytest.raises(InvalidSpecError):
            allocate_host_step(weights, remaining, 2.0)
    else:
        assert hex_grants(allocate_host_step(weights, remaining, 2.0)) \
            == expected


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


def reference_total_utility(config):
    """MarketSim.run with a full-size work array, gathered and scattered
    every step, and the masked fill; kept as the reference the compact
    live work must reproduce."""
    sim = MarketSim(config)
    cfg = sim.config
    size, deadline, value = sim.size, sim.deadline, sim.value
    work = np.zeros(size.shape)
    keeps_expired = cfg.behavior is Behavior.STRATEGIC_NO_MARKET
    budgeted = cfg.behavior is Behavior.STRATEGIC_MARKET
    capacity = float(cfg.num_hosts)
    total = 0.0
    live = np.empty(0, dtype=np.intp)
    admitted = 0
    for t_step, cut in enumerate(sim._cuts):
        now = float(t_step)
        if budgeted:
            sim.balance += cfg.income_rate
        if cut > admitted:
            live = np.concatenate((live, np.arange(admitted, cut)))
            admitted = cut
        if not keeps_expired:
            live = live[deadline[live] >= now + 1.0]
        if not live.size:
            continue
        weights = sim._weights_for(live, now)
        done_before = work[live]
        size_live = size[live]
        grants = reference_fill(weights, size_live - done_before,
                                capacity=capacity)
        done_after = done_before + grants
        finished = size_live - done_after <= 1e-9
        work[live] = np.where(finished, size_live, done_after)
        if np.count_nonzero(finished):
            ended = live[finished]
            finish_time = now + 1.0
            for worth, due in zip((value[ended] * size[ended]).tolist(),
                                  deadline[ended].tolist()):
                if finish_time <= due:
                    total += worth
            live = live[~finished]
    return total


@settings(max_examples=100, deadline=None)
@given(num_users=st.integers(2, 30), num_hosts=st.integers(1, 5),
       duration=st.integers(50, 300), interarrival=st.floats(5.0, 200.0),
       behavior=st.sampled_from(Behavior),
       initial=st.sampled_from([0.0, 5.0, 100.0]),
       seed=st.integers(0, 2**32 - 1))
def test_run_matches_the_full_size_reference_bit_for_bit(
        num_users, num_hosts, duration, interarrival, behavior, initial, seed):
    cfg = MarketConfig(num_users=num_users, num_hosts=num_hosts,
                       duration=duration, mean_task_interarrival=interarrival,
                       behavior=behavior, initial_balance=initial,
                       rng_seed=seed)
    sim = MarketSim(cfg)
    sim.run()
    assert sim.total_utility.hex() == reference_total_utility(cfg).hex()


@settings(max_examples=30, deadline=None)
@given(num_users=st.integers(2, 30), num_hosts=st.integers(1, 3),
       duration=st.integers(50, 200), interarrival=st.floats(5.0, 200.0),
       behavior=st.sampled_from(Behavior),
       income=st.sampled_from([0.25, 1.0, 3.0]),
       initial=st.sampled_from([0.0, 5.0, 100.0]),
       max_weight=st.sampled_from([1.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_scaling_every_credit_by_4_leaves_utility_unchanged(
        num_users, num_hosts, duration, interarrival, behavior, income,
        initial, max_weight, seed):
    # Credits have no unit: 4 times every balance, income and weight
    # scales each payment exactly, and a share is a ratio of weights.
    cfg = MarketConfig(num_users=num_users, num_hosts=num_hosts,
                       duration=duration, mean_task_interarrival=interarrival,
                       behavior=behavior, income_rate=income,
                       initial_balance=initial, max_weight=max_weight,
                       rng_seed=seed)
    twin = dataclasses.replace(cfg, income_rate=4 * income,
                               initial_balance=4 * initial,
                               max_weight=4 * max_weight)
    assert MarketSim(twin).run() == MarketSim(cfg).run()


# -- one draw per (seed, load) -------------------------------------------------


def count_draws():
    """Empty the draw's cache; return a function that counts the draws
    made since."""
    market._draw_tasks.cache_clear()
    return lambda: market._draw_tasks.cache_info().misses


def test_behaviours_at_one_point_share_one_read_only_table():
    draws = count_draws()
    cfg = small_config(rng_seed=401)
    sims = [MarketSim(dataclasses.replace(cfg, behavior=behavior))
            for behavior in Behavior]
    assert draws() == 1
    for name in ("arrival", "owner", "size", "deadline", "value"):
        columns = [getattr(sim, name) for sim in sims]
        assert all(column is columns[0] for column in columns)
        assert not columns[0].flags.writeable


def test_each_draw_key_draws_anew():
    changed = {"rng_seed": 403, "num_users": 21, "duration": 151,
               "mean_task_interarrival": 81.0, "mean_task_size": 11.0,
               "mean_task_deadline": 31.0}
    # The draw's cache is keyed on its arguments: exactly these fields.
    assert list(inspect.signature(market._draw_tasks).parameters) \
        == list(changed)
    draws = count_draws()
    cfg = small_config(rng_seed=402)
    MarketSim(cfg)
    # Fields the draw does not read share the table.
    MarketSim(dataclasses.replace(
        cfg, num_hosts=2, max_weight=3.0, behavior=Behavior.STRATEGIC_MARKET,
        income_rate=2.0, initial_balance=7.0))
    assert draws() == 1
    for i, (name, other) in enumerate(changed.items()):
        fresh = dataclasses.replace(cfg, **{name: other})
        sim = MarketSim(fresh)
        assert draws() == 2 + 2 * i, name
        expected = market._draw_tasks.__wrapped__(
            *(getattr(fresh, field) for field in changed))
        assert [c.tolist() for c in expected] == [
            getattr(sim, c).tolist()
            for c in ("arrival", "owner", "size", "deadline", "value")], name
        MarketSim(cfg)  # back to the first table, drawn again
    assert draws() == 1 + 2 * len(changed)


def test_writing_to_the_table_raises():
    sim = MarketSim(small_config(rng_seed=404))
    for name in ("arrival", "owner", "size", "deadline", "value"):
        with pytest.raises(ValueError):
            getattr(sim, name)[0] = 1


def test_hand_built_tables_are_never_served_stale(monkeypatch):
    # Both tables run under one config, so a memo keyed on the config
    # alone would hand the second run the first table.
    first = [(0.5, 0, 10.0, 30.5, 0.5)]
    second = [(0.5, 1, 4.0, 30.5, 0.25), (1.5, 0, 6.0, 20.5, 1.0)]
    for tasks in (first, second, first):
        sim, _ = run_on_tasks(monkeypatch, tasks)
        assert sim.arrival.tolist() == [t[0] for t in tasks]
        assert sim.size.tolist() == [t[2] for t in tasks]
        assert sim.total_utility == sum(t[2] * t[4] for t in tasks)


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
        row, = cli._market_points({"market": block}, [Behavior.OBEDIENT],
                                  [ia], [11, 12, 13])
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


# The largest weight a step may scale by num_hosts (here below 2e6) and
# sum over about MAX_EXPECTED_TASKS live tasks, with room for twice that.
WEIGHT_BOUND = sys.float_info.max / (2 * MAX_EXPECTED_TASKS)


@pytest.mark.parametrize("behavior,field,per_weight", [
    (Behavior.STRATEGIC_NO_MARKET, "max_weight", 1.0),
    # A budgeted weight is at most the balance, income_rate * duration.
    (Behavior.STRATEGIC_MARKET, "income_rate", 1.0 / 150),
], ids=["max_weight", "income_rate"])
def test_weights_that_could_overflow_a_step_are_rejected(behavior, field,
                                                         per_weight):
    # Above the bound validation names the field; just below it the run
    # gives the utility of unit magnitudes.  Once, 1e308 passed and gave a
    # silently wrong utility.
    base = small_config(behavior=behavior, rng_seed=1)
    above = dataclasses.replace(
        base, **{field: WEIGHT_BOUND * per_weight * (1 + 1e-9)})
    with pytest.raises(InvalidSpecError, match=field):
        above.validate()
    below = dataclasses.replace(
        base, **{field: WEIGHT_BOUND * per_weight * (1 - 1e-9)})
    assert run_market_sim(below).mean_utility_per_host_per_time_unit \
        == pytest.approx(run_market_sim(base)
                         .mean_utility_per_host_per_time_unit)
