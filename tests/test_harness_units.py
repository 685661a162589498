"""Bank ledger, funding policies, SLS registry, agent logic, messaging."""

import numpy as np
import pytest

from tycoon_sim.errors import (
    ConfigError,
    InsufficientBalanceError,
    InvalidAmountError,
    InvalidSpecError,
    UnknownAccountError,
)
from tycoon_sim.harness.agents import (
    ChildAgentState,
    ParentJob,
    parent_budget,
    parent_monitor_and_replace,
)
from tycoon_sim.harness.bank import (
    MICRO,
    BankLedger,
    PolicyKind,
    apply_funding_policy,
    bank_transfer,
    credits_to_micro,
    micro_to_credits,
)
from tycoon_sim.harness.messages import (
    Fund,
    FundRequest,
    Message,
    MessageKind,
    Network,
    Settle,
    Spawn,
)
from tycoon_sim.harness import scenario
from tycoon_sim.harness.scenario import HarnessSim, ScenarioConfig
from tycoon_sim.harness.sls import ServiceLocator


# -- bank -------------------------------------------------------------------


def test_micro_conversions_round_trip():
    assert credits_to_micro(1.5) == 1_500_000
    assert micro_to_credits(1_500_000) == 1.5
    assert credits_to_micro(micro_to_credits(123_456_789)) == 123_456_789


def test_transfer_moves_exactly():
    ledger = BankLedger()
    ledger.create_account("a", 50 * MICRO)
    ledger.create_account("b")
    bank_transfer(ledger, "a", "b", 10 * MICRO)
    assert ledger.balance("a") == 40 * MICRO
    assert ledger.balance("b") == 10 * MICRO


def test_zero_transfer_is_a_noop():
    ledger = BankLedger()
    ledger.create_account("a", 5)
    ledger.create_account("b")
    bank_transfer(ledger, "a", "b", 0)
    assert ledger.balance("a") == 5
    assert ledger.balance("b") == 0


def test_transfer_rejections():
    ledger = BankLedger()
    ledger.create_account("a", 5)
    ledger.create_account("b")
    with pytest.raises(UnknownAccountError):
        bank_transfer(ledger, "ghost", "b", 1)
    with pytest.raises(UnknownAccountError):
        bank_transfer(ledger, "a", "ghost", 1)
    with pytest.raises(InvalidAmountError):
        bank_transfer(ledger, "a", "b", -1)
    with pytest.raises(InvalidAmountError):
        bank_transfer(ledger, "a", "b", 1.5)
    with pytest.raises(InsufficientBalanceError):
        bank_transfer(ledger, "a", "b", 6)
    assert ledger.balance("a") == 5  # nothing moved


def test_account_creation_rules():
    ledger = BankLedger()
    ledger.create_account("a", 3)
    with pytest.raises(InvalidAmountError):
        ledger.create_account("a")
    with pytest.raises(InvalidAmountError):
        ledger.create_account("b", -1)
    with pytest.raises(UnknownAccountError):
        ledger.balance("nobody")


def test_random_transfers_conserve_total_exactly():
    rng = np.random.default_rng(21)
    ledger = BankLedger()
    names = [f"acct{i}" for i in range(12)]
    for name in names:
        ledger.create_account(name, int(rng.integers(0, 10**9)))
    issued = ledger.total_issued
    moved = 0
    for _ in range(10_000):
        src, dst = rng.choice(names, size=2, replace=False)
        amount = int(rng.integers(0, 10**7))
        try:
            bank_transfer(ledger, str(src), str(dst), amount)
            moved += 1
        except InsufficientBalanceError:
            pass
        assert ledger.total_balance() == issued
    assert moved > 9000  # the fuzz actually exercised transfers


def test_open_loop_policy_pays_incomes_and_drains_providers():
    # (admin pool, balances paid, incomes skipped); a dry pool skips the
    # income it cannot cover and still drains the providers.
    for admin, paid, skipped in ((100, [1, 2, 3], []),
                                 (4, [1, 2, 0], ["u3"])):
        ledger = BankLedger()
        ledger.create_account("admin", admin)
        for name in ("u1", "u2", "u3"):
            ledger.create_account(name)
        ledger.create_account("prov", 7)
        assert apply_funding_policy(ledger, "admin",
                                    {"u1": 1, "u2": 2, "u3": 3},
                                    ("prov",)) == skipped
        assert [ledger.balance(u) for u in ("u1", "u2", "u3")] == paid
        assert ledger.balance("prov") == 0
        assert ledger.balance("admin") == admin - sum(paid) + 7
        assert ledger.total_balance() == ledger.total_issued


# -- agents -------------------------------------------------------------------


def test_parent_budget_worked_examples():
    assert parent_budget(ParentJob(700.0, 100.0, 7)) == pytest.approx(1.0)
    assert parent_budget(ParentJob(100.0, 10.0, 1)) == pytest.approx(10.0)
    with pytest.raises(InvalidSpecError):
        parent_budget(ParentJob(100.0, 0.0, 1))
    with pytest.raises(InvalidSpecError):
        parent_budget(ParentJob(100.0, 10.0, 0))


def children(*ratios):
    """``{"c<i>": child}`` of children on ``host:<i>``, one per ratio."""
    return {f"c{i}": ChildAgentState(host=f"host:{i}", progress=r, cost=1.0)
            for i, r in enumerate(ratios)}


def test_laggard_below_half_median_is_replaced():
    kids = children(10.0, 10.0, 1.0)
    rng = np.random.default_rng(1)
    moves = parent_monitor_and_replace(kids, 0.5, ["host:9"], rng)
    assert moves == [("c2", "host:9")]


def test_equal_performers_left_alone():
    kids = children(5.0, 5.0, 5.0)
    rng = np.random.default_rng(1)
    assert parent_monitor_and_replace(kids, 0.5, ["host:9"], rng) == []


def test_zero_threshold_never_replaces():
    kids = children(10.0, 0.001)
    rng = np.random.default_rng(1)
    assert parent_monitor_and_replace(kids, 0.0, ["host:9"], rng) == []


def test_no_spend_yet_means_no_baseline():
    kids = {"c0": ChildAgentState(host="host:0"),
            "c1": ChildAgentState(host="host:1")}
    kids["c0"].progress = 3.0  # ratio inf; median non-finite
    rng = np.random.default_rng(1)
    assert parent_monitor_and_replace(kids, 0.5, ["host:9"], rng) == []


def test_laggards_draw_distinct_free_hosts_and_leave_the_list():
    kids = children(10.0, 10.0, 10.0, 0.1, 0.1, 0.1)
    free = ["host:7", "host:8"]
    moves = parent_monitor_and_replace(kids, 0.5, free,
                                       np.random.default_rng(2))
    assert sorted(new for _, new in moves) == ["host:7", "host:8"]
    assert free == ["host:7", "host:8"]


# -- a parent's placements ----------------------------------------------------


def parent_with(known, *children_at, now=20.0):
    """parent:0 of a 4-host harness, knowing hosts ``known`` and holding
    one child per ``(host, ratio)`` pair at time ``now``.  A ratio of
    None is a child silent since t=0, past the 12 s report timeout; the
    rest reported at ``now``.  Nothing is pumped."""
    sim = HarnessSim(ScenarioConfig(num_hosts=4,
                                    parents=(ParentJob(num_hosts=1),)))
    sim.now = now
    parent = sim.parents[0]
    parent.known_hosts = [f"host:{i}" for i in known]
    for host, _ in children_at:
        parent._spawn_child(f"host:{host}", activate_at=now)
    for child, (_, ratio) in zip(parent.children.values(), children_at):
        if ratio is None:
            child.last_report = 0.0
        else:
            child.progress, child.cost = ratio, 1.0
    return sim, parent


def test_free_hosts_are_the_known_hosts_no_child_uses():
    _, parent = parent_with([0, 1, 2, 3], (1, 1.0), (3, None))
    assert parent._free_hosts() == ["host:0", "host:2"]
    # A child on a host the locator no longer lists frees nothing.
    parent.known_hosts = ["host:1", "host:2"]
    assert parent._free_hosts() == ["host:2"]


def test_a_laggard_and_a_silent_child_never_share_a_new_host():
    # The laggard (ratio 1 against a median of 5.5) draws host:3, the one
    # free host; the silent child must not draw it too, and takes the
    # host the laggard left.
    sim, parent = parent_with([0, 1, 2, 3], (0, None), (1, 10.0),
                              (2, 1.0))
    parent.monitor_decide()
    hosts = sorted(child.host for child in parent.children.values())
    assert hosts == ["host:1", "host:2", "host:3"]
    assert [(r.old_host, r.new_host, r.reason)
            for r in sim.replacements] == [("host:2", "host:3", "slow"),
                                           ("host:0", "host:2", "timeout")]


def test_a_silent_child_with_no_free_host_stays():
    sim, parent = parent_with([0, 1], (0, None), (1, 1.0))
    keys = list(parent.children)
    parent.monitor_decide()
    assert list(parent.children) == keys
    assert sim.replacements == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a silent child's new host is drawn from a free list that holds the "
    "host a silent sibling left in the same decision, so it can move onto "
    "the host presumed dead (cluster-lossy seed 5, parent:8 at t=15.01)"))
def test_a_silent_child_never_lands_where_a_silent_sibling_left():
    sim, parent = parent_with([0, 1, 2], (0, None), (1, None))
    parent.monitor_decide()
    # Today: host:0 -> host:2, then host:1 -> host:0.
    left = {r.old_host for r in sim.replacements}
    assert not left & {r.new_host for r in sim.replacements}


# -- service location service --------------------------------------------------


def test_advertise_and_lookup():
    reg = ServiceLocator(ttl=5.0)
    reg.advertise("host:1", now=0.0)
    reg.advertise("host:0", now=0.0)
    assert reg.lookup(now=1.0) == ["host:0", "host:1"]  # sorted, both live


def test_entries_expire_at_ttl():
    reg = ServiceLocator(ttl=5.0)
    reg.advertise("host:0", now=0.0)
    assert reg.lookup(now=4.999)
    assert reg.lookup(now=5.0) == []  # the boundary instant is expired


def test_readvertising_refreshes_the_lease():
    reg = ServiceLocator(ttl=5.0)
    reg.advertise("host:0", now=0.0)
    reg.advertise("host:0", now=4.0)
    assert reg.lookup(now=8.0) == ["host:0"]
    assert reg.lookup(now=9.0) == []


def test_dead_host_disappears_within_one_ttl():
    reg = ServiceLocator(ttl=5.0)
    reg.advertise("host:0", now=0.0)
    reg.advertise("host:1", now=0.0)
    # host:1 dies silently; host:0 keeps advertising.
    reg.advertise("host:0", now=2.0)
    assert reg.lookup(now=5.5) == ["host:0"]


def test_nonpositive_ttl_rejected():
    for ttl in (0.0, -1.0):
        with pytest.raises(ConfigError):
            ServiceLocator(ttl)


# -- message network -----------------------------------------------------------


def test_delivery_order_is_time_then_sender_then_sequence():
    log = []
    net = Network()
    for name in ("x", "y"):
        net.register(name, lambda m, name=name: log.append(
            (name, m.sender, m.payload["n"])))
    net.send(1.0, "a", "x", MessageKind.TRANSFER, {"n": 0})
    net.send(0.0, "b", "x", MessageKind.TRANSFER, {"n": 1})
    net.send(0.0, "a", "x", MessageKind.TRANSFER, {"n": 2})
    net.send(0.0, "a", "x", MessageKind.TRANSFER, {"n": 3})
    # Ties on time and sender go by sequence alone: the recipients, kinds
    # and payloads below would order differently, or not at all.
    net.send(0.0, "a", "y", MessageKind.SPAWN_CHILD, {"n": 4})
    net.send(0.0, "a", "x", MessageKind.ADVERTISE, {"n": 5})
    net.send(0.0, "a", "x", MessageKind.ADVERTISE, {"n": 6})
    net.pump(0.0)
    assert log == [("x", "a", 2), ("x", "a", 3), ("y", "a", 4),
                   ("x", "a", 5), ("x", "a", 6), ("x", "b", 1)]
    net.pump(1.0)
    assert log[-1] == ("x", "a", 0)


def test_zero_latency_chains_settle_in_one_pump():
    net = Network()
    log = []

    def relay(msg):
        log.append(msg.payload["hop"])
        if msg.payload["hop"] < 3:
            net.send(msg.delivery_time, "relay", "relay",
                     MessageKind.TRANSFER, {"hop": msg.payload["hop"] + 1})

    net.register("relay", relay)
    net.send(0.0, "origin", "relay", MessageKind.TRANSFER, {"hop": 1})
    net.pump(0.0)
    assert log == [1, 2, 3]


def test_latency_delays_delivery():
    net = Network(latency=0.5)
    log = []
    net.register("x", lambda m: log.append(m.payload))
    net.send(0.0, "a", "x", MessageKind.TRANSFER, {})
    net.pump(0.4)
    assert log == []
    net.pump(0.5)
    assert len(log) == 1


def test_drops_are_seeded_and_counted():
    def run(seed):
        net = Network(drop_probability=0.3, seed=seed)
        delivered = []
        net.register("x", lambda m: delivered.append(m.payload["i"]))
        for i in range(500):
            net.send(0.0, "a", "x", MessageKind.TRANSFER, {"i": i})
        net.pump(0.0)
        return delivered, net.dropped

    first, dropped = run(5)
    again, _ = run(5)
    assert first == again
    assert 80 < dropped < 220
    assert len(first) + dropped == 500


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_drop_stream_is_one_coin_per_send(seed):
    # Send i is dropped exactly when the i-th draw of the seed's
    # generator falls below p.
    p = 0.3
    net = Network(drop_probability=p, seed=seed)
    delivered = []
    net.register("x", lambda m: delivered.append(m.payload["i"]))
    for i in range(1000):
        net.send(0.0, "a", "x", MessageKind.TRANSFER, {"i": i})
    net.pump(0.0)
    rng = np.random.default_rng(seed)
    expected = {i for i in range(1000) if rng.random() < p}
    assert set(range(1000)) - set(delivered) == expected
    assert net.dropped == len(expected)


def test_unregistered_recipient_is_counted_not_raised():
    net = Network()
    net.send(0.0, "a", "nobody", MessageKind.TRANSFER, {})
    net.pump(0.0)
    assert net.undeliverable == 1


# -- host activation -------------------------------------------------------


def one_host():
    """A one-host harness whose host is driven by hand, plus a log of the
    agent ids its scheduler pushes onto the bid heap.  Its slices are
    0.01 s long."""
    sim = HarnessSim(ScenarioConfig(num_hosts=1, duration=1.0,
                                    parents=(ParentJob(num_hosts=1),)))
    host = sim.hosts[0]
    pushed = []
    push = host.sched.heap.push

    def spy(agent_id, bid):
        pushed.append(agent_id)
        push(agent_id, bid)

    host.sched.heap.push = spy
    return sim, host, pushed


def to_host(kind, payload):
    return Message(delivery_time=0.0, sender="parent:0", seq=0,
                   recipient="host:0", kind=kind, payload=payload)


def test_seat_killed_before_activation_never_enters_the_heap():
    sim, host, pushed = one_host()
    host.handle(to_host(MessageKind.SPAWN_CHILD, Spawn("p/c0", 0.5)))
    host.handle(to_host(MessageKind.FUND_AUCTIONEER, Fund("p/c0", MICRO)))
    agent_id = host.children["p/c0"].agent_id
    host.run_slices(0, 20)
    host.handle(to_host(MessageKind.KILL_CHILD, "p/c0"))
    host.run_slices(20, 100)
    assert pushed == []
    assert agent_id not in host.sched.heap
    assert host.sched.slice_index == 0


def test_seats_due_in_one_slice_enter_the_heap_in_open_order():
    sim, host, pushed = one_host()
    # Opened in key order; due in a different order, all by t = 0.3.
    due = {"p/c0": 0.3, "p/c1": 0.1, "p/c2": 0.2}
    for key, at in due.items():
        host.handle(to_host(MessageKind.SPAWN_CHILD, Spawn(key, at)))
    ids = [host.children[key].agent_id for key in due]
    host.run_slices(5, 6)
    assert pushed == []
    host.run_slices(30, 31)
    assert pushed == ids
    assert all(agent_id in host.sched.heap for agent_id in ids)


def test_seats_due_inside_a_window_enter_the_heap_on_their_slice():
    sim, host, pushed = one_host()
    # 57 * 0.01 is 0.5700000000000001, so a seat due at 0.57 runs from
    # slice 57; one due at 0.105 runs from slice 11, the first at or after.
    for key, at in (("p/c0", 0.57), ("p/c1", 0.105)):
        host.handle(to_host(MessageKind.SPAWN_CHILD, Spawn(key, at)))
        host.handle(to_host(MessageKind.FUND_AUCTIONEER, Fund(key, MICRO)))
    first, second = (host.children[key].agent_id
                     for key in ("p/c0", "p/c1"))
    entered = {}
    set_runnable = host.sched.set_runnable

    def spy(agent_id, runnable):
        # Slices before this one's round are already counted.
        entered[agent_id] = host.slices_alive
        set_runnable(agent_id, runnable)

    host.sched.set_runnable = spy
    host.run_slices(0, 100)
    assert pushed == [second, first]
    assert entered == {second: 11, first: 57}
    assert host.slices_alive == 100
    assert host.sched.slice_index == 100 - 11


def test_each_stretch_is_one_run_rounds_call_whatever_its_length():
    sim, host, pushed = one_host()
    host.handle(to_host(MessageKind.SPAWN_CHILD, Spawn("p/c0", 0.0)))
    host.handle(to_host(MessageKind.FUND_AUCTIONEER, Fund("p/c0", MICRO)))
    rounds, singles = [], []
    run_slice, run_rounds = host.sched.run_slice, host.sched.run_rounds
    host.sched.run_rounds = lambda n: rounds.append(n) or run_rounds(n)
    # run_rounds(1) holds its round through run_slice, and nothing else
    # calls it.
    host.sched.run_slice = lambda: singles.append(rounds[-1]) or run_slice()
    for k0, k1 in ((0, 1), (1, 2), (2, 40)):
        host.run_slices(k0, k1)
    assert rounds == [1, 1, 38]
    assert singles == [1, 1]
    assert host.sched.slice_index == 40
    assert host.children["p/c0"].progress > 0


def test_idle_host_counts_its_slices_and_holds_no_round():
    sim, host, pushed = one_host()
    rounds = []
    run_slice, run_rounds = host.sched.run_slice, host.sched.run_rounds
    host.sched.run_slice = lambda: rounds.append(1) or run_slice()
    host.sched.run_rounds = lambda n: rounds.append(n) or run_rounds(n)
    host.run_slices(0, 60)
    assert host.slices_alive == 60
    assert rounds == []
    assert host.sched.slice_index == 0
    # A seat that never activates in the window holds no round either.
    host.handle(to_host(MessageKind.SPAWN_CHILD, Spawn("p/c0", 5.0)))
    host.run_slices(60, 100)
    assert (host.slices_alive, host.sched.slice_index, rounds) == (100, 0, [])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a Fund whose SPAWN_CHILD was dropped opens the seat due at 0 s, so "
    "it bids from the next slice, not from the activation its parent "
    "chose (cluster-lossy seed 9: parent:19/c3 from 30.05 s, not 35.01 s)"))
def test_no_child_bids_before_the_activation_its_parent_chose():
    sim, host, pushed = one_host()
    send = sim.network.send

    def drop_spawns(now, sender, recipient, kind, payload=None):
        if kind is not MessageKind.SPAWN_CHILD:
            send(now, sender, recipient, kind, payload)

    sim.network.send = drop_spawns
    sim.parents[0]._spawn_child("host:0", activate_at=0.5)
    sim.network.pump(0.0)
    host.run_slices(0, 50)
    # Today the seat holds all 50 slices before 0.5 s.
    assert host.sched.slice_index == 0


def test_dead_host_runs_no_slices():
    sim, host, pushed = one_host()
    host.kill()
    host.run_slices(0, 100)
    assert host.slices_alive == 0


def test_no_ledger_write_falls_inside_a_window(monkeypatch):
    cfg = ScenarioConfig(
        num_hosts=3, duration=20.0, rng_seed=5,
        policy_kind=PolicyKind.OPEN_LOOP, message_latency=0.015,
        drop_probability=0.1, migration_overhead=0.995,
        kill_hosts=((7.005, 0),), report_timeout=6.0,
        audit_every_slice=True)
    sim = HarnessSim(cfg)
    dt = cfg.timeslice_length
    writes, windows = [], []
    running = []

    def spying(name, original):
        def spy(*args, **kwargs):
            assert not running, f"{name} inside a window"
            writes.append(sim.now)
            return original(*args, **kwargs)
        return spy

    for name in ("bank_transfer", "apply_funding_policy"):
        monkeypatch.setattr(scenario, name,
                            spying(name, getattr(scenario, name)))
    monkeypatch.setattr(BankLedger, "create_account",
                        spying("create_account", BankLedger.create_account))
    run_slices = scenario._HostNode.run_slices

    def window(host, k0, k1):
        windows.append((k0, k1))
        running.append(host)
        try:
            run_slices(host, k0, k1)
        finally:
            running.pop()

    monkeypatch.setattr(scenario._HostNode, "run_slices", window)
    report = sim.run()
    assert report.ledger_ok
    assert max(k1 - k0 for k0, k1 in windows) > 1
    assert len(writes) > 10
    for t in writes:
        assert not any(k0 * dt < t < k1 * dt for k0, k1 in windows), t


# -- cumulative settlement at the bank --------------------------------------


CHILD = "parent:0/c0"  # also the name of its escrow account


def bank_with_escrow(lump):
    """A harness whose bank has opened CHILD's escrow with one lump from
    parent:0."""
    sim = HarnessSim(ScenarioConfig(num_hosts=1, duration=1.0,
                                    parents=(ParentJob(num_hosts=1),)))
    sim.bank.handle(Message(
        delivery_time=0.0, sender="parent:0", seq=0, recipient="bank",
        kind=MessageKind.FUND_AUCTIONEER,
        payload=FundRequest("host:0", CHILD, lump)))
    return sim


def report(total, close=()):
    return Message(delivery_time=0.0, sender="host:0", seq=0,
                   recipient="bank", kind=MessageKind.TRANSFER,
                   payload=Settle({CHILD: total}, list(close)))


def test_duplicate_and_stale_reports_move_nothing():
    sim = bank_with_escrow(MICRO)
    sim.bank.handle(report(300))
    sim.bank.handle(report(300))
    sim.bank.handle(report(120))
    assert sim.ledger.balance("host:0") == 300
    assert sim.ledger.balance(CHILD) == MICRO - 300
    assert sim.rejected_transfers == 0


def test_report_after_a_lost_one_moves_the_whole_gap():
    sim = bank_with_escrow(MICRO)
    sim.bank.handle(report(300))
    # report(450) was lost on the way.
    sim.bank.handle(report(700))
    assert sim.ledger.balance("host:0") == 700
    assert sim.bank.escrows[CHILD].moved == 700


def test_close_settles_the_final_spend_before_the_sweep():
    sim = bank_with_escrow(MICRO)
    user = sim.ledger.balance("parent:0")
    sim.bank.handle(report(300))
    sim.bank.handle(report(700, close=[CHILD]))
    assert sim.ledger.balance("host:0") == 700
    assert sim.ledger.balance(CHILD) == 0
    assert sim.ledger.balance("parent:0") == user + MICRO - 700
    # The host repeats its close until one gets through; repeats, and
    # reports that reach the closed escrow, move nothing.
    sim.bank.handle(report(700, close=[CHILD]))
    sim.bank.handle(report(900))
    assert sim.ledger.balance("host:0") == 700
    sim.network.pump(1.0)
    assert sim.parents[0].reclaimed_micro == MICRO - 700


def test_the_bank_refuses_a_request_or_report_it_cannot_pay():
    # Each refusal is counted and moves no credit.
    sim = bank_with_escrow(MICRO)
    ledger = dict(sim.ledger.accounts)
    sim.bank.handle(Message(
        delivery_time=0.0, sender="parent:0", seq=1, recipient="bank",
        kind=MessageKind.FUND_AUCTIONEER,
        payload=FundRequest("host:0", CHILD, ledger["parent:0"] + 1)))
    assert sim.rejected_transfers == 1
    # The escrow holds one lump; a report of more is not paid.
    sim.bank.handle(report(MICRO + 1))
    assert sim.rejected_transfers == 2
    assert sim.ledger.accounts == ledger
    assert sim.bank.escrows[CHILD].moved == 0


def test_funding_that_arrives_after_its_kill_opens_no_seat():
    sim = bank_with_escrow(MICRO)  # the host's Fund is on its way
    user = sim.ledger.balance("parent:0")
    host = sim.hosts[0]
    # The parent's KILL_CHILD overtakes the Fund; the host's close goes
    # out at once.
    host.handle(to_host(MessageKind.KILL_CHILD, CHILD))
    sim.network.pump(0.0)  # the Fund, then the close
    assert host.children == {} and host.sched.accounts == {}
    # The close swept the lump the Fund carried back to the parent.
    assert sim.ledger.balance(CHILD) == 0
    assert sim.ledger.balance("parent:0") == user + MICRO
    assert sim.parents[0].reclaimed_micro == MICRO
    assert sim.rejected_transfers == 0
    assert sim.ledger.total_balance() == sim.ledger.total_issued


# -- random streams -------------------------------------------------------------


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "HarnessSim.rng and its Network's drop coins are both "
    "default_rng(rng_seed), so the placement draws replay the drop coins' "
    "stream; separating them moves the cluster-lossy and open-loop CSVs"))
def test_placement_draws_and_drop_coins_are_separate_streams():
    sim = HarnessSim(ScenarioConfig(rng_seed=7, drop_probability=0.05))
    assert (sim.rng.bit_generator.state
            != sim.network._rng.bit_generator.state)
