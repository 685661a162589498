"""End-to-end harness scenarios: conservation, replacement, resilience."""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tycoon_sim.errors import ConfigError, LedgerAuditError
from tycoon_sim.harness.bank import MICRO, PolicyKind, credits_to_micro
from tycoon_sim.harness.messages import (
    Fund,
    FundRequest,
    MessageKind,
    Network,
    Progress,
    Settle,
    Spawn,
)
from tycoon_sim.harness.scenario import (
    HarnessSim,
    ParentJob,
    ScenarioConfig,
    run_harness_scenario,
)


def job(**overrides):
    spec = dict(total_credits=4.0, deadline_minutes=2.0, num_hosts=2)
    spec.update(overrides)
    return ParentJob(**spec)


def scenario(**overrides):
    base = dict(num_hosts=2, duration=30.0, rng_seed=7,
                parents=(job(),))
    base.update(overrides)
    return ScenarioConfig(**base)


def test_lone_job_gets_the_whole_processor():
    cfg = scenario(num_hosts=1, duration=30.0,
                   parents=(job(total_credits=2.0, deadline_minutes=1.0,
                                num_hosts=1),))
    report = run_harness_scenario(cfg)
    (stats,) = report.parents
    assert stats.work_done == pytest.approx(30.0)
    assert stats.starvation_events == 0
    assert report.hosts[0].utilization == pytest.approx(1.0)
    assert report.ledger_ok
    assert report.no_negative_balances


def test_a_kill_after_the_last_slice_still_happens():
    # 0.995 s falls after slice 99 starts, the last of 1.0 s of 0.01 s
    # slices, so the run loop never reaches it.
    cfg = scenario(duration=1.0, kill_hosts=((0.995, 1),))
    sim = HarnessSim(cfg)
    report = sim.run()
    assert [host.alive for host in report.hosts] == [True, False]
    assert sim.hosts[1].slices_alive == 100
    assert report.ledger_ok and report.no_negative_balances
    assert report.final_total == report.total_issued


def test_spend_equals_revenue_and_escrow_closes_the_books():
    # What the lone child paid for slices is exactly the provider's
    # revenue; whatever of the lump is unspent still sits in escrow.
    # funded = revenue + escrow + reclaimed, to the micro-credit.
    cfg = scenario(num_hosts=1, duration=30.0,
                   parents=(job(total_credits=2.0, deadline_minutes=1.0,
                                num_hosts=1),))
    sim = HarnessSim(cfg)
    report = sim.run()
    (child,) = sim.parents[0].children.values()
    revenue_micro = sim.ledger.balance("host:0")
    assert revenue_micro == math.floor(child.cost * MICRO)
    escrow_micro = sum(balance for account, balance
                       in sim.ledger.accounts.items()
                       if account in sim.bank.escrows)
    (stats,) = report.parents
    funded = credits_to_micro(stats.funded_credits)
    reclaimed = credits_to_micro(stats.reclaimed_credits)
    assert funded - reclaimed == revenue_micro + escrow_micro
    assert report.ledger_ok


def test_lossy_settlement_still_pays_the_provider_exactly():
    # The twin of the test above on a network that loses one message in
    # five.  Each settlement report carries the cumulative spend, so the
    # next report heals a lost one, and once the last one is delivered
    # the provider holds exactly the metered spend.
    cfg = scenario(num_hosts=1, duration=30.0,
                   parents=(job(total_credits=2.0, deadline_minutes=1.0,
                                num_hosts=1),),
                   message_latency=0.02, drop_probability=0.2)
    sim = HarnessSim(cfg)
    report = sim.run()
    ((key, seat),) = sim.hosts[0].children.items()
    assert report.messages_dropped > 0
    revenue_micro = sim.ledger.balance("host:0")
    assert revenue_micro == math.floor(seat.spent * MICRO)
    assert sim.ledger.balance(key) \
        + revenue_micro + sim.ledger.balance("parent:0") \
        == credits_to_micro(2.0)
    assert report.ledger_ok


def test_spend_a_killed_host_never_reported_goes_back_to_the_parent():
    # The host dies between two settlement ticks.  The spend it metered
    # since its last report reaches no provider: the parent's timeout
    # closes the escrow at the bank, which sweeps it back to the parent
    # with the rest of the lump, and the report counts it as unsettled.
    cfg = scenario(num_hosts=2, duration=30.0, parents=(job(num_hosts=1),),
                   report_timeout=6.0)
    busy = run_harness_scenario(cfg).hosts
    victim = next(i for i in range(2) if busy[i].slices_run)
    sim = HarnessSim(dataclasses.replace(cfg, kill_hosts=((11.0, victim),)))
    report = sim.run()
    (key, metered), = sim.hosts[victim].metered().items()
    moved = sim.bank.escrows[key].moved
    assert 0 < moved < metered
    assert sim.ledger.balance(f"host:{victim}") == moved
    assert sim.ledger.balance(key) == 0
    assert report.unsettled_micro == metered - moved
    assert report.parents[0].reclaimed_credits > 0
    assert report.ledger_ok


def test_killed_host_triggers_replacement_and_conservation_holds():
    cfg = scenario(num_hosts=3, duration=40.0,
                   parents=(job(), job()),
                   report_timeout=6.0,
                   kill_hosts=((15.0, 2),))
    report = run_harness_scenario(cfg)
    assert not report.hosts[2].alive
    timeout_moves = [r for r in report.replacements
                     if r[2] == "host:2" and r[4] == "timeout"]
    assert timeout_moves, report.replacements
    for _, _, _, new_host, _ in timeout_moves:
        assert new_host != "host:2"
    assert report.ledger_ok
    assert report.no_negative_balances


def test_surviving_hosts_keep_allocating_after_a_kill():
    # Allocation is local to a host: the kill neither stalls the host
    # that kept its children nor the one that receives the migrants.
    cfg = scenario(num_hosts=3, duration=40.0,
                   parents=(job(), job()),
                   report_timeout=6.0,
                   kill_hosts=((15.0, 2),))
    report = run_harness_scenario(cfg)
    occupied = [h for h in report.hosts if h.alive and h.utilization == 1.0]
    assert occupied, report.hosts
    slices_run = {h.host: h.slices_run for h in report.hosts}
    for move in report.replacements:
        assert slices_run[move.new_host] > 0
    for parent in report.parents:
        assert parent.work_done > 20.0  # progress continued past t=15


def test_symmetric_parents_break_even():
    cfg = ScenarioConfig(num_hosts=2, duration=40.0, rng_seed=3,
                         parents=(job(), job()))
    report = run_harness_scenario(cfg)
    a, b = report.parents
    assert a.work_done == pytest.approx(b.work_done)
    assert a.bank_balance == pytest.approx(b.bank_balance)
    assert a.funded_credits == pytest.approx(b.funded_credits)


def test_zero_threshold_never_replaces():
    cfg = scenario(num_hosts=3, duration=40.0,
                   parents=(job(performance_cost_threshold=0.0),),
                   host_speeds=(1.0, 0.3, 0.3))
    report = run_harness_scenario(cfg)
    assert report.replacements == []


def test_slow_host_is_abandoned():
    # One host produces a fifth of the work per slice; children placed
    # there fall under the theta baseline and migrate away.
    slow_time = 0.0
    fast_time = 0.0
    for seed in (1, 2, 3):
        cfg = ScenarioConfig(num_hosts=3, duration=60.0, rng_seed=seed,
                             parents=(job(), job()),
                             host_speeds=(1.0, 1.0, 0.2))
        report = run_harness_scenario(cfg)
        slow_time += report.hosts[2].utilization
        fast_time += report.hosts[0].utilization
        assert report.ledger_ok
    assert slow_time / 3 < 1 / 3
    assert slow_time < fast_time


def test_a_parent_without_credits_funds_its_hosts_with_zero():
    # Its lump is 0 credits, and each host's auction takes that deposit.
    cfg = scenario(parents=(job(total_credits=0.0), job()))
    report = run_harness_scenario(cfg)
    assert report.ledger_ok
    assert report.parents[0].funded_credits == 0.0
    assert report.parents[1].funded_credits > 0.0


def test_open_loop_income_is_conserved():
    cfg = scenario(policy_kind=PolicyKind.OPEN_LOOP, duration=20.0)
    report = run_harness_scenario(cfg)
    assert report.ledger_ok
    assert report.total_issued == report.final_total
    assert report.no_negative_balances


def test_lossy_network_cannot_lose_money():
    cfg = scenario(num_hosts=3, duration=30.0,
                   parents=(job(), job()),
                   message_latency=0.05, drop_probability=0.05)
    report = run_harness_scenario(cfg)
    assert report.messages_dropped > 0
    assert report.ledger_ok
    assert report.no_negative_balances


def test_reports_are_deterministic():
    cfg = scenario(num_hosts=3, duration=20.0, parents=(job(), job()),
                   host_speeds=(1.0, 0.5, 1.0))
    assert run_harness_scenario(cfg) == run_harness_scenario(cfg)


def test_per_slice_audit_scenario():
    cfg = scenario(duration=5.0, audit_every_slice=True)
    report = run_harness_scenario(cfg)
    assert report.ledger_ok


def test_per_slice_audit_trips_on_an_unbalanced_ledger():
    sim = HarnessSim(scenario(duration=1.0, audit_every_slice=True))
    sim.ledger.accounts["host:0"] += 1  # a credit nobody issued
    with pytest.raises(LedgerAuditError, match="balances sum to"):
        sim.run()


def test_reclaim_from_an_unopened_escrow_is_a_rejected_transfer():
    # A dropped FUND_AUCTIONEER means the bank never opened the escrow
    # account that the replacement's reclaim TRANSFER sweeps.
    sim = HarnessSim(scenario())
    sim.network.send(0.0, "parent:0", "bank", MessageKind.TRANSFER,
                     Settle({}, ["parent:0/c0"]))
    sim.network.pump(0.0)
    assert sim.rejected_transfers == 1
    assert sim.parents[0].reclaimed_micro == 0
    assert sim.ledger.total_balance() == sim.ledger.total_issued


#: The payload type of every (kind, recipient role) pair the harness sends.
PROTOCOL = {
    (MessageKind.SPAWN_CHILD, "host"): Spawn,
    (MessageKind.FUND_AUCTIONEER, "bank"): FundRequest,
    (MessageKind.FUND_AUCTIONEER, "host"): Fund,
    (MessageKind.KILL_CHILD, "host"): str,
    (MessageKind.QUERY_PROGRESS, "host"): str,
    (MessageKind.PROGRESS_REPORT, "parent"): Progress,
    (MessageKind.TRANSFER, "bank"): Settle,
    (MessageKind.TRANSFER, "parent"): int,
    (MessageKind.ADVERTISE, "sls"): type(None),
    (MessageKind.LOOKUP, "sls"): type(None),
    (MessageKind.LOOKUP_RESULT, "parent"): list,
}


@pytest.mark.parametrize("policy_kind", list(PolicyKind))
def test_each_kind_carries_one_payload_type_per_recipient(monkeypatch,
                                                         policy_kind):
    # A lossy run with a kill sends every pair: the kill brings timeout
    # closes, replacements and escrow sweeps back to the parents.
    seen = {}
    send = Network.send

    def spy(self, now, sender, recipient, kind, payload=None):
        role = recipient.split(":")[0]
        seen.setdefault((kind, role), set()).add(type(payload))
        send(self, now, sender, recipient, kind, payload)

    monkeypatch.setattr(Network, "send", spy)
    report = run_harness_scenario(scenario(
        num_hosts=3, duration=40.0, parents=(job(), job()),
        policy_kind=policy_kind, message_latency=0.02, drop_probability=0.1,
        report_timeout=6.0, kill_hosts=((15.0, 2),)))
    assert report.messages_dropped > 0
    assert seen == {pair: {kind} for pair, kind in PROTOCOL.items()}


@st.composite
def small_scenarios(draw):
    num_hosts = draw(st.integers(1, 4))
    # Short intervals, so that monitoring, replacement, settlement and
    # open-loop payments happen inside a few seconds.  Every run outlasts
    # a report timeout and a monitor interval, so that a child silent
    # from the start times out and moves.
    monitor_interval = draw(st.sampled_from([0.5, 1.0, 5.0]))
    report_timeout = draw(st.sampled_from([0.7, 2.0, 12.0]))
    duration = draw(st.floats(0.05, 5.0)) + report_timeout + monitor_interval
    parents = tuple(
        ParentJob(total_credits=draw(st.floats(0.05, 6.0)),
                  deadline_minutes=draw(st.sampled_from([0.25, 1.0, 2.0])),
                  num_hosts=draw(st.integers(1, num_hosts)))
        for _ in range(draw(st.integers(1, 3))))
    kills = draw(st.lists(st.tuples(st.floats(0.0, duration,
                                              exclude_max=True),
                                    st.integers(0, num_hosts - 1)),
                          max_size=2))
    return ScenarioConfig(
        num_hosts=num_hosts, parents=parents, duration=duration,
        policy_kind=draw(st.sampled_from(list(PolicyKind))),
        drop_probability=draw(st.floats(0.0, 0.3)),
        message_latency=draw(st.floats(0.0, 0.02)),
        kill_hosts=tuple(kills),
        advertise_interval=draw(st.sampled_from([0.3, 2.0])),
        monitor_interval=monitor_interval, report_timeout=report_timeout,
        migration_overhead=draw(st.sampled_from([0.0, 0.5])),
        funding_interval=draw(st.sampled_from([0.5, 1.0])),
        admin_pool=draw(st.sampled_from([0.5, 100.0])),
        audit_every_slice=True,
        rng_seed=draw(st.integers(0, 2**16)))


def run_noting_settlements(cfg):
    """Run a scenario; also return, per child key, the last cumulative
    spend the bank was told before the escrow closed, and every host the
    bank was asked to fund the child at."""
    sim = HarnessSim(cfg)
    told, closed, funded_at = {}, set(), {}
    handle = sim.bank.handle

    def spy(msg):
        p = msg.payload
        if msg.kind is MessageKind.TRANSFER:
            for key, total in p.cumulative.items():
                if key not in closed:
                    told[key] = total
            closed.update(p.close)
        elif msg.kind is MessageKind.FUND_AUCTIONEER:
            funded_at.setdefault(p.child_key, set()).add(p.host)
        handle(msg)

    sim.network.register("bank", spy)
    return sim, sim.run(), told, funded_at


@settings(max_examples=150, deadline=None)
@given(small_scenarios())
def test_random_small_scenarios_keep_the_books(cfg):
    # audit_every_slice raises as soon as any slice leaves the ledger
    # out of balance.
    sim, report, told, funded_at = run_noting_settlements(cfg)
    assert report.ledger_ok
    assert report.no_negative_balances
    assert report.total_issued == report.final_total
    for _, host in cfg.kill_hosts:
        assert not report.hosts[host].alive
    # A child key names one child on one host, which is what lets the
    # bank name an escrow by the key alone.
    assert all(len(hosts) == 1 for hosts in funded_at.values())
    # Every host a parent places a child on is one none of its children
    # uses, so no parent ends with two children on one host.
    for parent in sim.parents:
        hosts = [child.host for child in parent.children.values()]
        assert len(hosts) == len(set(hosts))
    # Once an escrow's final spend reaches the bank, its provider holds
    # exactly the metered spend; every other gap is reported unsettled.
    unsettled = 0
    for host, row in zip(sim.hosts, report.hosts):
        receipts = 0
        for key, metered in host.metered().items():
            books = sim.bank.escrows.get(key)
            moved = books.moved if books else 0
            assert 0 <= moved <= metered
            if told.get(key, 0) == metered:
                assert moved == metered
            receipts += moved
            unsettled += metered - moved
        assert credits_to_micro(row.revenue_credits) == receipts
    assert report.unsettled_micro == unsettled


@settings(max_examples=25, deadline=None)
@given(small_scenarios())
def test_event_windows_match_per_slice_stepping(cfg):
    # Conservative lookahead (Chandy & Misra, 1979): a window may end no
    # later than the next slice on which anything but an auction round
    # happens.  Ending every window after one slice is always safe, so
    # the two runs must agree.  Stepping is several times slower, hence
    # the few examples.
    windowed = run_harness_scenario(cfg)
    with mock.patch.object(HarnessSim, "_next_event",
                           lambda self, k, *_: k + 1):
        stepped = run_harness_scenario(cfg)
    assert stepped == windowed


#: The ScenarioConfig fields that hold a time, in seconds or minutes.
TIME_FIELDS = ("duration", "timeslice_length", "advertise_interval",
               "sls_ttl", "monitor_interval", "report_timeout",
               "migration_overhead", "message_latency", "funding_interval",
               "funding_chunk_minutes")


def time_scaled(cfg, factor):
    """``cfg`` with every time in it, kill times and each parent's
    deadline included, multiplied by ``factor``."""
    return dataclasses.replace(
        cfg, **{name: getattr(cfg, name) * factor for name in TIME_FIELDS},
        kill_hosts=tuple((when * factor, host)
                         for when, host in cfg.kill_hosts),
        parents=tuple(dataclasses.replace(
            job, deadline_minutes=job.deadline_minutes * factor)
            for job in cfg.parents))


def assert_time_scales(cfg, factor):
    """A run and its time-scaled twin agree bit for bit, but for work
    and the moments of replacements, which scale exactly by ``factor``.

    A power of two scales every time exactly, and so every slice count,
    spending rate and lump stays the same.
    """
    run = run_harness_scenario(cfg)
    twin = run_harness_scenario(time_scaled(cfg, factor))
    assert twin.hosts == run.hosts
    assert [p._replace(work_done=0.0) for p in twin.parents] \
        == [p._replace(work_done=0.0) for p in run.parents]
    assert [p.work_done for p in twin.parents] \
        == [factor * p.work_done for p in run.parents]
    assert [r._replace(time=0.0) for r in twin.replacements] \
        == [r._replace(time=0.0) for r in run.replacements]
    assert [r.time for r in twin.replacements] \
        == [factor * r.time for r in run.replacements]
    # The ledger's totals, the message counts and unsettled_micro.
    rest = dict(parents=[], hosts=[], replacements=[])
    assert dataclasses.replace(twin, **rest) \
        == dataclasses.replace(run, **rest)


@settings(max_examples=50, deadline=None)
@given(small_scenarios())
def test_scaling_every_time_by_4_scales_only_the_work(cfg):
    assert_time_scales(cfg, 4.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "refill deadlock: a child is refilled only when its funds fall below "
    "refresh_fraction of its lump, and the poorer child rests above its "
    "own floor but below the richer child's, so it never wins, spends "
    "or refills"))
@pytest.mark.parametrize("budgets", [(4.0, 8.0), (2.0, 8.0)])
def test_work_tracks_budget_on_shared_hosts(budgets):
    # Two parents on the same 3 hosts, each with the whole run as its
    # deadline.  Proportional share predicts a work ratio equal to the
    # budget ratio; today it is 0.054 against 0.5, and 0.0089 against 0.25.
    report = run_harness_scenario(ScenarioConfig(
        num_hosts=3, duration=240.0,
        parents=tuple(ParentJob(total_credits=credits, deadline_minutes=4.0,
                                num_hosts=3) for credits in budgets)))
    poorer, richer = report.parents
    assert poorer.work_done / richer.work_done \
        == pytest.approx(budgets[0] / budgets[1], abs=0.05)


def test_config_rejects_nonsense():
    with pytest.raises(ConfigError):
        ScenarioConfig(num_hosts=0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(parents=()).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(refresh_fraction=1.5).validate()
    ScenarioConfig().validate()


# Values a run of each config produced when the harness still stepped
# one slice at a time; stepping from event to event must reproduce them
# exactly.  Per config: each parent's (work_done, funded, reclaimed),
# each host's (revenue, utilization, slices_run), the replacements,
# (messages_sent, messages_dropped) and unsettled_micro.  Last, each
# host's count of auction rounds held (its scheduler's slice_index), as
# the harness counted them when it held every round through run_slice.
PINNED_HARNESS = {
    "lossy": (
        dict(num_hosts=8, duration=25.0, rng_seed=3,
             parents=tuple(ParentJob(num_hosts=3) for _ in range(5)),
             drop_probability=0.05, message_latency=0.02,
             host_speeds=(1.0, 0.3, 1.0, 0.3), report_timeout=6.0,
             kill_hosts=((8.0, 2), (12.0, 4))),
        [(16.66999999999982, 0.833335, 0.136811),
         (16.846999999999806, 1.000002, 0.25638),
         (12.786999999999876, 0.833335, 0.255966),
         (16.936999999999788, 0.833335, 0.253224),
         (14.597000000000167, 0.666668, 0.133744)],
        [(0.226644, 0.9976, 2494), (0.203361, 0.9976, 2494),
         (0.059712, 0.9925, 794), (0.169675, 0.9976, 2494),
         (0.098947, 0.995, 1194), (0.051094, 0.1996, 499),
         (0.223456, 0.9976, 2494), (0.0, 0.0, 0)],
        [(10.01, "parent:1", "host:1", "host:0", "slow"),
         (10.01, "parent:3", "host:3", "host:6", "slow"),
         (15.01, "parent:0", "host:2", "host:5", "timeout"),
         (15.01, "parent:1", "host:2", "host:1", "timeout"),
         (15.01, "parent:2", "host:6", "host:1", "timeout"),
         (15.01, "parent:4", "host:4", "host:5", "timeout"),
         (20.01, "parent:2", "host:4", "host:5", "timeout"),
         (20.01, "parent:3", "host:4", "host:7", "timeout")],
        (450, 18), 37755,
        [2494, 2494, 794, 2494, 1194, 499, 2494, 0]),
    "open_loop": (
        dict(num_hosts=3, duration=20.0, rng_seed=5,
             policy_kind=PolicyKind.OPEN_LOOP,
             message_latency=0.015, drop_probability=0.1),
        [(34.94000000000004, 1.0, 0.0), (9.859999999999879, 0.5, 0.0)],
        [(0.014877, 0.247, 494), (0.069928, 0.997, 1994),
         (0.227988, 0.996, 1992)],
        [],
        (108, 11), 55051,
        [494, 1994, 1992]),
    # Deliveries at 0.015 past a boundary, and a replacement activated
    # 4.995 s after its move, fall between slice boundaries.
    "off_grid": (
        dict(num_hosts=4, duration=25.0, rng_seed=9,
             parents=(job(num_hosts=2), job(num_hosts=2), job(num_hosts=1)),
             message_latency=0.015, migration_overhead=4.995,
             report_timeout=6.0, host_speeds=(1.0, 0.2)),
        [(23.46199999999961, 0.75, 0.128755),
         (19.739999999999668, 0.5, 0.0),
         (17.65999999999996, 0.5, 0.0)],
        [(0.441956, 0.9976, 2494), (0.121245, 0.3988, 997),
         (0.121588, 0.3996, 999), (0.28218, 0.9976, 2494)],
        [(10.01, "parent:0", "host:1", "host:2", "slow")],
        (206, 0), 0,
        [2494, 997, 999, 2494]),
    "kill": (
        dict(num_hosts=4, duration=25.0, rng_seed=11,
             parents=(job(num_hosts=1), job(num_hosts=1), job(num_hosts=1)),
             kill_hosts=((7.005, 0), (7.005, 1)), report_timeout=6.0,
             migration_overhead=2.0),
        [(10.489999999999865, 1.0, 0.409339),
         (10.489999999999865, 1.0, 0.409339),
         (17.00999999999986, 0.5, 0.0)],
        [(0.181322, 1.0, 701), (0.0, 0.0, 0), (0.206533, 0.3196, 799),
         (0.545721, 1.0, 2500)],
        [(15.01, "parent:0", "host:0", "host:2", "timeout"),
         (15.01, "parent:1", "host:0", "host:3", "timeout")],
        (139, 0), 27113,
        [701, 0, 799, 2500]),
}


@pytest.mark.parametrize("name", PINNED_HARNESS)
def test_harness_runs_match_pinned_values(name):
    overrides, parents, hosts, replacements, messages, unsettled, rounds = \
        PINNED_HARNESS[name]
    sim = HarnessSim(ScenarioConfig(**overrides))
    report = sim.run()
    assert [(p.work_done, p.funded_credits, p.reclaimed_credits)
            for p in report.parents] == parents
    assert [(h.revenue_credits, h.utilization, h.slices_run)
            for h in report.hosts] == hosts
    assert report.replacements == replacements
    assert (report.messages_sent, report.messages_dropped) == messages
    assert report.unsettled_micro == unsettled
    assert [host.sched.slice_index for host in sim.hosts] == rounds


@pytest.mark.parametrize("name", PINNED_HARNESS)
def test_pinned_runs_scale_with_time(name):
    # Longer than the searched scenarios: these replace slow and silent
    # hosts, on lossy and open-loop networks.
    assert_time_scales(ScenarioConfig(**PINNED_HARNESS[name][0]), 4.0)
