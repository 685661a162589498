"""Auction clearing, charging, price statistics, and reservations."""

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tycoon_sim.errors import (
    CapacityRejection,
    InsufficientBalanceError,
    InsufficientHistoryError,
    InvalidAccountError,
    InvalidAmountError,
    InvalidElapsedError,
)
from tycoon_sim.sched.auction import (
    AuctionShareScheduler,
    compute_bid,
    reservation_accept,
    reservation_quote,
)
from tycoon_sim.sched.types import (
    AgentAccount,
    PriceMode,
    PriceStats,
    Reservation,
    SchedulerConfig,
)

FIRST = SchedulerConfig(price_mode=PriceMode.FIRST_PRICE)
SECOND = SchedulerConfig(price_mode=PriceMode.SECOND_PRICE)


def account(agent_id, balance, requested=1.0):
    return AgentAccount(agent_id=agent_id, balance=balance,
                        requested_cpu_seconds=requested)


# -- bids and winner selection ------------------------------------------


def test_bid_is_balance_over_request():
    assert compute_bid(account(0, 100.0, 10.0)) == 10.0
    assert compute_bid(account(0, 0.0, 5.0)) == 0.0


def test_bid_undefined_without_request():
    with pytest.raises(InvalidAccountError):
        compute_bid(account(0, 100.0, 0.0))


def argmax_oracle(accounts):
    best = None
    for acct in accounts:
        bid = acct.balance / acct.requested_cpu_seconds
        if best is None or bid > best[1] or (bid == best[1]
                                             and acct.agent_id < best[0]):
            best = (acct.agent_id, bid)
    return None if best is None else best[0]


def slice_winner(accounts, reservations=()):
    """Winner of one round on a fresh scheduler holding ``accounts``."""
    sched = AuctionShareScheduler(FIRST)
    for acct in accounts:
        sched.add_agent(acct)
    sched.reservations.extend(reservations)
    return sched.run_slice().winner


def test_select_winner_matches_linear_scan():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        accounts = [
            account(i, float(rng.integers(0, 8)), float(rng.integers(1, 5)))
            for i in range(n)
        ]
        expected = argmax_oracle(accounts)  # before the round charges anyone
        assert slice_winner(accounts) == expected


def test_select_winner_empty_idles():
    assert slice_winner([]) is None


def test_select_winner_tie_goes_to_lowest_id():
    accounts = [account(3, 10.0), account(1, 10.0), account(2, 10.0)]
    assert slice_winner(accounts) == 1


def test_reservation_preempts_spot_market():
    res = Reservation(agent_id="r", fraction=0.5, period=10, quoted_price=1.0)
    accounts = [account(0, 1000.0)]
    assert slice_winner(accounts, [res]) == "r"
    res.slices_won = 5
    res.slices_elapsed = 9  # on target; spot market resumes
    assert slice_winner(accounts, [res]) == 0


# -- charging ------------------------------------------------------------


def one_round(config, accounts, elapsed=None):
    """The result of one round on a fresh scheduler holding ``accounts``."""
    sched = AuctionShareScheduler(config)
    for acct in accounts:
        sched.add_agent(acct)
    return sched.run_slice(elapsed)


def test_full_slice_first_price_charges_own_bid():
    acct = account(0, 100.0, 10.0)
    result = one_round(FIRST, [acct])
    assert (result.winner, result.payment) == (0, 10.0)
    assert acct.balance == 90.0


def test_half_slice_prorates_payment():
    acct = account(0, 100.0, 10.0)
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(acct)
    result = sched.run_slice(0.005)
    assert result.payment == 5.0
    # The clearing price is the full-slice rate the payment was cut from.
    assert sched.price_stats.mean == 10.0
    assert acct.balance == 95.0


def test_second_price_charges_runner_up_bid():
    acct, runner_up = account(0, 100.0, 10.0), account(1, 40.0, 10.0)
    result = one_round(SECOND, [acct, runner_up])
    assert (result.winner, result.payment) == (0, 4.0)
    assert acct.balance == 96.0
    assert runner_up.balance == 40.0


def test_lone_bidder_pays_nothing_under_second_price():
    acct = account(0, 100.0, 10.0)
    result = one_round(SECOND, [acct])
    assert (result.winner, result.payment) == (0, 0.0)
    assert acct.balance == 100.0


def test_payment_capped_at_balance():
    acct = account(0, 2.0, 0.1)  # bid 20/slice, holds 2
    result = one_round(FIRST, [acct])
    assert result.payment == 2.0
    assert acct.balance == 0.0


def test_elapsed_must_lie_within_slice():
    for elapsed in (0.0, -0.001, 0.011):
        acct = account(0, 1.0)
        with pytest.raises(InvalidElapsedError):
            one_round(FIRST, [acct], elapsed)
        assert acct.balance == 1.0


def test_round_rejects_a_winner_without_request():
    for config in (FIRST, SECOND):
        sched = AuctionShareScheduler(config)
        acct = account(0, 1.0)
        sched.add_agent(acct)
        acct.requested_cpu_seconds = 0.0
        with pytest.raises(InvalidAccountError):
            sched.run_slice()


def test_fund_rejects_negative_and_non_finite():
    sched = AuctionShareScheduler(FIRST)
    acct = account(0, 1.0)
    sched.add_agent(acct)
    sched.fund(0, 2.5)
    # A harness parent with no credits deposits exactly 0.
    sched.fund(0, 0.0)
    assert acct.balance == 3.5
    # A NaN balance stops the agent winning; an infinite one makes the
    # next payment, and the clearing prices after it, infinite.
    for amount in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidAmountError):
            sched.fund(0, amount)
    assert acct.balance == 3.5
    assert sched.run_slice().payment == 3.5


# -- price statistics -----------------------------------------------------


def test_price_stats_match_recomputation():
    rng = np.random.default_rng(5)
    stats = PriceStats(window_size=1000)
    seen = []
    for _ in range(10_000):
        price = float(rng.random() * 10)
        stats.observe(price)
        seen.append(price)
    window = seen[-1000:]
    assert stats.mean == statistics.fmean(window)
    assert stats.stddev == statistics.stdev(window)


def test_price_stats_stay_exact_far_from_zero():
    # Prices with a spread of ~0.3 around a large level: raw sums of
    # squares would cancel to a few digits (near 1e8, a stddev ~20x off).
    rng = np.random.default_rng(9)
    for offset in (1e3, 1e6, 1e8):
        stats = PriceStats(window_size=256)
        prices = [float(p) for p in rng.normal(offset, 0.3, size=1000)]
        for price in prices:
            stats.observe(price)
        window = prices[-256:]
        assert stats.mean == statistics.fmean(window)
        assert stats.stddev == statistics.stdev(window)


def stdlib_read(window):
    """(len, mean, stddev) of ``window`` from the standard library; the
    mean is 0.0 with no price and the stddev 0.0 below two."""
    n = len(window)
    return (n, statistics.fmean(window) if n else 0.0,
            statistics.stdev(window) if n > 1 else 0.0)


@st.composite
def price_streams(draw):
    """A window size, then at most 3 * window + 2 prices around one
    level, near zero or far from it, with reads (None) at random points,
    so a stream can wrap the window more than once."""
    window = draw(st.integers(1, 50))
    level = draw(st.sampled_from([0.0, 1e-3, 5.0, 1e6, -2e8]))
    spread = draw(st.sampled_from([1e-6, 0.3, 50.0]))
    prices = st.floats(-1.0, 1.0).map(lambda u: level + u * spread)
    stream = draw(st.lists(st.one_of(prices, prices, prices, st.none()),
                           max_size=3 * window + 2))
    return window, stream


@settings(max_examples=150, deadline=None)
@given(price_streams())
# A running fold of the window reads this stddev one ulp off.
@example((3, [0.0, 0.0, 1e-06]))
def test_price_stats_read_as_the_standard_library(case):
    window, stream = case
    single = PriceStats(window_size=window)
    # One observe_many per run of prices between two reads, and one for
    # the whole stream.
    bulk, whole = PriceStats(window_size=window), PriceStats(window_size=window)
    seen, run = [], []
    for price in stream + [None]:
        if price is None:
            bulk.observe_many(run)
            run = []
            read = stdlib_read(seen[-window:])
            assert (len(single), single.mean, single.stddev) == read
            assert (len(bulk), bulk.mean, bulk.stddev) == read
        else:
            single.observe(price)
            seen.append(price)
            run.append(price)
    whole.observe_many(seen)
    assert (len(whole), whole.mean, whole.stddev) == stdlib_read(
        seen[-window:])


def test_price_stats_small_windows():
    stats = PriceStats(window_size=10)
    assert stats.mean == 0.0
    assert stats.stddev == 0.0
    stats.observe(4.0)
    assert stats.mean == 4.0
    assert stats.stddev == 0.0  # a lone sample has no spread
    # A float window never evicted, and True acted as a window of 1.
    for size in (0, -1, 2.5, math.nan, True):
        with pytest.raises(ValueError):
            PriceStats(window_size=size)


def test_scheduler_prices_window_the_last_thousand_payments():
    # Single rounds and held stretches, mixed, past the 1000-price window:
    # both must observe every payment, in round order.
    sched = AuctionShareScheduler(FIRST)
    for agent_id, balance in enumerate((900.0, 700.0, 500.0)):
        sched.add_agent(account(agent_id, balance, 10.0))
    payments = []
    for n in (1, 7, 1, 1, 300, 1, 450, 2, 1, 600):
        if n == 1:
            payments.append(sched.run_slice().payment)
        else:
            payments += sched.run_rounds(n)[1]
    assert len(payments) > 1000
    stats = sched.price_stats
    assert (len(stats), stats.mean, stats.stddev) == stdlib_read(
        payments[-1000:])


# -- reservations ---------------------------------------------------------


def quote_config(capacity=0.5):
    return SchedulerConfig(reservation_capacity=capacity)


def seeded_stats(prices):
    stats = PriceStats()
    for p in prices:
        stats.observe(p)
    return stats


def test_quote_is_mean_plus_stddev_scaled():
    stats = seeded_stats([1.0, 2.0, 3.0])
    expected = (stats.mean + stats.stddev) * 0.25 * 100
    quote = reservation_quote(stats, 0.25, 100, 0.0, quote_config())
    assert quote == pytest.approx(expected, abs=1e-9)


def test_quote_requires_history():
    with pytest.raises(InsufficientHistoryError):
        reservation_quote(PriceStats(), 0.1, 10, 0.0, quote_config())


def test_quote_rejects_over_capacity():
    stats = seeded_stats([1.0])
    with pytest.raises(CapacityRejection):
        reservation_quote(stats, 0.3, 10, 0.3, quote_config(capacity=0.5))


def test_quote_validates_fraction_and_period():
    stats = seeded_stats([1.0])
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidAmountError):
            reservation_quote(stats, fraction, 10, 0.0, quote_config())
    with pytest.raises(InvalidAmountError):
        reservation_quote(stats, 0.1, 0, 0.0, quote_config())
    # The range is (0, 1]: a whole-host reservation is priced.
    assert reservation_quote(stats, 1.0, 10, 0.0,
                             quote_config(capacity=1.0)) == 10.0


def test_accept_debits_quote_exactly():
    acct = account("r", 50.0)
    res = reservation_accept(acct, 12.5, 0.25, 100, accepted_at=7)
    assert acct.balance == 37.5
    assert (res.fraction, res.period, res.accepted_at) == (0.25, 100, 7)
    # The whole balance may go on one reservation.
    reservation_accept(acct, 37.5, 0.25, 100)
    assert acct.balance == 0.0


def test_accept_requires_funds():
    with pytest.raises(InsufficientBalanceError):
        reservation_accept(account("r", 1.0), 2.0, 0.1, 10)


def test_reservation_floor_bound_random():
    """A reservation never falls below floor(fraction * elapsed) slices."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        fraction = float(rng.uniform(0.05, 1.0))
        period = int(rng.integers(1, 120))
        res = Reservation(agent_id="r", fraction=fraction, period=period,
                          quoted_price=0.0)
        while res.active():
            if res.behind():
                res.slices_won += 1
            res.slices_elapsed += 1
            assert res.slices_won >= math.floor(fraction * res.slices_elapsed)
        assert res.slices_won >= math.floor(fraction * period)


def test_reservation_ceiling_bound():
    """A reservation never takes more than ceil(fraction * elapsed) slices.

    The target is exact on the fraction as written, so these take exactly
    7, 14, 28, 55 and 56 of 100 slices, not one more.
    """
    exact = {0.07: 7, 0.14: 14, 0.28: 28, 0.55: 55, 0.56: 56}
    rng = np.random.default_rng(18)
    pairs = [(fraction, 100) for fraction in exact]
    pairs += [(float(rng.uniform(0.01, 1.0)), int(rng.integers(1, 150)))
              for _ in range(1000)]
    for fraction, period in pairs:
        share = Fraction(repr(fraction))
        res = Reservation(agent_id="r", fraction=fraction, period=period,
                          quoted_price=0.0)
        while res.active():
            if res.behind():
                res.slices_won += 1
            res.slices_elapsed += 1
            assert res.slices_won <= math.ceil(share * res.slices_elapsed)
        assert res.slices_won == math.ceil(share * period)
        if fraction in exact:
            assert res.slices_won == exact[fraction]


# -- the stateful scheduler ----------------------------------------------


def test_run_slice_charges_winner_and_records_clearing_price():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 100.0, 10.0))
    sched.add_agent(account(1, 30.0, 10.0))
    result = sched.run_slice()
    assert result.winner == 0
    assert result.payment == 10.0
    assert sched.accounts[0].balance == 90.0
    assert sched.accounts[1].balance == 30.0
    assert (len(sched.price_stats), sched.price_stats.mean) == (1, 10.0)


def test_winner_bid_decays_until_overtaken():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 40.0, 10.0))
    sched.add_agent(account(1, 30.0, 10.0))
    winners = [sched.run_slice().winner for _ in range(4)]
    # 4 > 3, pays 4 -> 3.6 < 3? no: 36/10=3.6 still beats 3.0.
    # Balances walk down toward equality, alternating once they cross.
    assert winners[0] == 0
    assert 1 in winners


def test_yielded_agent_never_wins():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 100.0, 10.0))
    sched.add_agent(account(1, 1.0, 10.0))
    sched.set_runnable(0, False)
    assert sched.run_slice().winner == 1
    sched.set_runnable(0, True)
    assert sched.run_slice().winner == 0


def test_no_runnable_agents_idles():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 1.0), runnable=False)
    result = sched.run_slice()
    assert result.winner is None
    assert result.payment == 0.0


def test_fund_rekeys_live_bid():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 1.0, 10.0))
    sched.add_agent(account(1, 2.0, 10.0))
    sched.fund(0, 100.0)
    assert sched.run_slice().winner == 0


def test_reserved_slices_preempt_and_expire():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 100.0, 10.0))
    sched.add_agent(account("r", 50.0, 10.0), runnable=False)
    sched.run_slice()  # establish a clearing price
    reservation = sched.accept("r", 0.5, 4)
    assert reservation.quoted_price > 0
    winners = [sched.run_slice().winner for _ in range(4)]
    assert winners.count("r") == 2  # half of a 4-slice period
    assert not reservation.active()
    assert sched.reservations == []


def test_accept_rekeys_a_queued_bid():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 100.0, 10.0))
    sched.add_agent(account(1, 60.0, 10.0))
    sched.run_slice()  # 0 pays 10 and bids 9; the clearing price is 10
    sched.accept(0, 0.5, 10)  # quoted 50: 0 holds 40 and bids 4
    assert sched.accounts[0].balance == 40.0
    assert sched.heap.peek() == (1, 6.0)
    assert dict(zip(*sched.heap.entries()))[0] == 4.0


def test_duplicate_agent_rejected():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 1.0))
    with pytest.raises(InvalidAccountError):
        sched.add_agent(account(0, 2.0))


# -- batched rounds -----------------------------------------------------------


def bits(x):
    return x.hex() if isinstance(x, float) else x


def scheduler_state(sched):
    """Everything a round reads or writes, floats compared bit for bit."""
    queued = sorted(zip(*sched.heap.entries()))
    stats = sched.price_stats
    return ([(agent_id, bits(a.balance))
             for agent_id, a in sched.accounts.items()],
            [(agent_id, bits(bid)) for agent_id, bid in queued],
            tuple(map(bits, sched.heap.peek())), sched.slice_index,
            (len(stats), bits(stats.mean), bits(stats.stddev)))


@st.composite
def round_runs(draw):
    """Bidders as (id, balance, request, runnable, stale balance), with
    zero balances, equal bids and bids above the balance, plus rounds run
    before and the rounds to batch."""
    balances = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 40.0]),
                         st.floats(0.0, 1e3))
    requests = st.one_of(st.sampled_from([0.5, 1.0, 10.0, 1500.0]),
                         st.floats(0.01, 2e3))
    m = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(m)))
    bidders = [(agent_id, draw(balances), draw(requests),
                agent_id == ids[0] or draw(st.booleans()),
                draw(st.none() | balances))
               for agent_id in ids]
    return bidders, draw(st.integers(0, 3)), draw(st.integers(1, 300))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([FIRST, SECOND]), round_runs())
def test_batched_rounds_match_one_slice_at_a_time(config, run):
    bidders, before, n = run
    twins = []
    for _ in range(2):
        sched = AuctionShareScheduler(config)
        for agent_id, balance, requested, runnable, stale in bidders:
            acct = account(agent_id, balance, requested)
            sched.add_agent(acct, runnable)
            if stale is not None:
                # A balance moved behind the scheduler's back: rounds rank
                # by the queued bid but charge from the balance.
                acct.balance = stale
        for _ in range(before):
            sched.run_slice()
        twins.append(sched)
    batched, stepped = twins
    winners, payments = batched.run_rounds(n)
    results = [stepped.run_slice() for _ in range(n)]
    assert winners == [r.winner for r in results]
    assert list(map(bits, payments)) == [bits(r.payment) for r in results]
    assert scheduler_state(batched) == scheduler_state(stepped)


def test_batched_rounds_reject_a_bidder_without_request_before_any_charge():
    for config in (FIRST, SECOND):
        scheds = []
        for _ in range(2):
            sched = AuctionShareScheduler(config)
            for acct in (account(0, 1.0, 0.5), account(1, 5.0),
                         account(2, 3.0)):
                sched.add_agent(acct)
            sched.accounts[1].requested_cpu_seconds = 0.0
            scheds.append(sched)
        batched, stepped = scheds
        with pytest.raises(InvalidAccountError):
            stepped.run_slice()
        with pytest.raises(InvalidAccountError):
            batched.run_rounds(5)
        assert [a.balance for a in batched.accounts.values()] == [1.0, 5.0,
                                                                  3.0]
        assert (batched.slice_index, len(batched.price_stats)) == (0, 0)


def test_batched_rounds_need_a_bidder_and_no_reservation():
    # A single round goes through run_slice only after the same checks.
    sched = AuctionShareScheduler(FIRST)
    for n in (1, 3):
        with pytest.raises(ValueError):
            sched.run_rounds(n)
    sched.add_agent(account(0, 10.0))
    with pytest.raises(ValueError):
        sched.run_rounds(0)
    sched.reservations.append(Reservation(agent_id=0, fraction=0.5,
                                          period=10, quoted_price=1.0))
    for n in (1, 3):
        with pytest.raises(ValueError):
            sched.run_rounds(n)
    assert (sched.slice_index, sched.accounts[0].balance) == (0, 10.0)


# -- windows that end on a sleeper's win -----------------------------------


def stepped_window(sched, n, until, join):
    """What ``run_rounds(n, until, join)`` holds, one ``run_slice`` at a
    time: ``until`` is made runnable before round ``join``, the first
    round it wins ends the window, and it leaves the queue at the
    window's end, whether it won or not."""
    winners, payments = [], []
    for r in range(n):
        if r == join:
            sched.set_runnable(until, True)
        result = sched.run_slice()
        winners.append(result.winner)
        payments.append(result.payment)
        if result.winner == until:
            break
    sched.set_runnable(until, False)
    return winners, payments


@st.composite
def sleeper_windows(draw):
    """Agents as (id, balance, request, stale balance), the first of them
    the sleeper ``until``; its join round in [0, n] or None, rounds run
    before, and the window's length n."""
    balances = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 40.0]),
                         st.floats(0.0, 1e3))
    requests = st.one_of(st.sampled_from([0.5, 1.0, 10.0, 1500.0]),
                         st.floats(0.01, 2e3))
    m = draw(st.integers(1, 5))
    ids = draw(st.permutations(range(m + 1)))
    agents = [(agent_id, draw(balances), draw(requests),
               draw(st.none() | balances)) for agent_id in ids]
    n = draw(st.integers(1, 60))
    return (agents, draw(st.none() | st.integers(0, n)),
            draw(st.integers(0, 3)), n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([FIRST, SECOND]), sleeper_windows())
# Outbid at its join, it wins two rounds later.
@example(FIRST, ([(0, 30.0, 10.0, None), (1, 40.0, 10.0, None)], 1, 0, 8))
# Outbid through the whole window, so it is asleep again after it.
@example(SECOND, ([(1, 1.0, 10.0, None), (0, 40.0, 10.0, None)], 2, 0, 5))
# Its join is the window's length: it never bids.
@example(FIRST, ([(0, 40.0, 1.0, None), (1, 1.0, 1.0, None)], 6, 0, 6))
def test_until_window_matches_one_slice_at_a_time(config, case):
    agents, join, before, n = case
    until = agents[0][0]
    twins = []
    for _ in range(2):
        sched = AuctionShareScheduler(config)
        for agent_id, balance, requested, stale in agents:
            acct = account(agent_id, balance, requested)
            sched.add_agent(acct, agent_id != until)
            if stale is not None:
                acct.balance = stale
        for _ in range(before):
            sched.run_slice()
        twins.append(sched)
    held, stepped = twins
    winners, payments = held.run_rounds(n, until, join)
    expected, expected_payments = stepped_window(stepped, n, until, join)
    assert winners == expected
    assert list(map(bits, payments)) == list(map(bits, expected_payments))
    assert scheduler_state(held) == scheduler_state(stepped)
    # Every clearing price in the window, in order, bit for bit.
    assert ([bits(p) for p in held.price_stats._window]
            == [bits(p) for p in stepped.price_stats._window])


def test_until_window_rejects_a_negative_join():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 1.0))
    sched.add_agent(account(1, 1.0), runnable=False)
    with pytest.raises(ValueError):
        sched.run_rounds(3, 1, -1)
    assert (sched.slice_index, 1 in sched.heap) == (0, False)


def test_until_window_refuses_a_queued_until():
    # ``until`` is a sleeper: a queued one, on top or below it, is refused
    # before any round, and the scheduler is left as it was.
    for n in (1, 5):
        for join in (None, 0):
            sched = AuctionShareScheduler(SECOND)
            for acct in (account(0, 4.0), account(1, 9.0), account(2, 2.0)):
                sched.add_agent(acct)
            before = scheduler_state(sched)
            for until in (1, 0):
                with pytest.raises(ValueError):
                    sched.run_rounds(n, until, join)
            assert scheduler_state(sched) == before


# -- credits are a unit ----------------------------------------------------


@st.composite
def funded_windows(draw):
    """Agents as (balance, request, starts queued), with ids 0..m-1, and
    windows as (deposits, n, until, join).  Only agent 0 sleeps or is an
    ``until``, and only beside another agent, so every window starts
    with a queued bidder; beside one, it always sleeps, since
    ``run_rounds`` refuses a queued ``until``.  No credit amount is
    below 1e-3 but 0, and no request lies in (1, 2), where first-price
    charges shrink a balance by more than half a round; so no scaled
    amount goes subnormal."""
    credits = st.sampled_from([0.0, 1.0, 2.5, 40.0]) | st.floats(1e-3, 1e3)
    requests = st.sampled_from([0.5, 1.0]) | st.floats(2.0, 2e3)
    m = draw(st.integers(1, 5))
    agents = [(draw(credits), draw(requests), agent_id > 0 or m == 1)
              for agent_id in range(m)]
    windows = []
    for _ in range(draw(st.integers(1, 6))):
        deposits = draw(st.lists(st.tuples(st.integers(0, m - 1), credits),
                                 max_size=3))
        n = draw(st.integers(1, 40))
        until = draw(st.none() | st.just(0)) if m > 1 else None
        join = draw(st.none() | st.integers(0, n)) if until == 0 else None
        windows.append((deposits, n, until, join))
    return agents, windows


def run_funded(config, case, scale):
    """The scheduler after ``case``'s windows with every credit amount
    times ``scale``, and each window's winners and payments."""
    agents, windows = case
    sched = AuctionShareScheduler(config)
    for agent_id, (balance, requested, queued) in enumerate(agents):
        sched.add_agent(account(agent_id, balance * scale, requested), queued)
    held = []
    for deposits, n, until, join in windows:
        for agent_id, amount in deposits:
            sched.fund(agent_id, amount * scale)
        held.append(sched.run_rounds(n, until, join))
    return sched, held


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FIRST, SECOND]), funded_windows())
def test_credits_scaled_by_a_power_of_two_scale_every_payment(config, case):
    # A bid is credits per slice, so scaling every balance and deposit by
    # 2**-7 ranks the same bids: the same winners, and payments and
    # balances scaled exactly.
    scale = 2.0 ** -7
    sched, held = run_funded(config, case, 1.0)
    twin, twin_held = run_funded(config, case, scale)
    assert [winners for winners, _ in twin_held] == [
        winners for winners, _ in held]
    assert [list(map(bits, payments)) for _, payments in twin_held] == [
        [bits(p * scale) for p in payments] for _, payments in held]
    assert [bits(a.balance) for a in twin.accounts.values()] == [
        bits(a.balance * scale) for a in sched.accounts.values()]
