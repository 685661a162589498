"""Auction clearing, charging, price statistics, and reservations."""

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

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
    charge,
    compute_bid,
    fund,
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


def test_full_slice_first_price_charges_own_bid():
    acct = account(0, 100.0, 10.0)
    payment = charge(acct, 0.010, FIRST)
    assert payment == 10.0
    assert acct.balance == 90.0


def test_half_slice_prorates_payment():
    acct = account(0, 100.0, 10.0)
    payment = charge(acct, 0.005, FIRST)
    assert payment == 5.0
    assert acct.balance == 95.0


def test_second_price_charges_runner_up_bid():
    acct = account(0, 100.0, 10.0)
    payment = charge(acct, 0.010, SECOND, second_bid=4.0)
    assert payment == 4.0
    assert acct.balance == 96.0


def test_lone_bidder_pays_nothing_under_second_price():
    acct = account(0, 100.0, 10.0)
    assert charge(acct, 0.010, SECOND, second_bid=None) == 0.0
    assert acct.balance == 100.0


def test_payment_capped_at_balance():
    acct = account(0, 2.0, 0.1)  # bid 20/slice, holds 2
    payment = charge(acct, 0.010, FIRST)
    assert payment == 2.0
    assert acct.balance == 0.0


def test_elapsed_must_lie_within_slice():
    for elapsed in (0.0, -0.001, 0.011):
        with pytest.raises(InvalidElapsedError):
            charge(account(0, 1.0), elapsed, FIRST)


def test_fund_rejects_negative():
    acct = account(0, 1.0)
    fund(acct, 2.5)
    assert acct.balance == 3.5
    with pytest.raises(InvalidAmountError):
        fund(acct, -0.1)


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
    assert stats.mean == pytest.approx(statistics.fmean(window), abs=1e-9)
    assert stats.stddev == pytest.approx(statistics.stdev(window), abs=1e-9)


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
        assert stats.mean == pytest.approx(statistics.fmean(window),
                                           rel=1e-12)
        assert stats.stddev == pytest.approx(statistics.stdev(window),
                                             rel=1e-9)


def test_price_stats_small_windows():
    stats = PriceStats(window_size=10)
    assert stats.mean == 0.0
    assert stats.stddev == 0.0
    stats.observe(4.0)
    assert stats.mean == 4.0
    assert stats.stddev == 0.0  # a lone sample has no spread
    with pytest.raises(ValueError):
        PriceStats(window_size=0)


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


def test_accept_debits_quote_exactly():
    acct = account("r", 50.0)
    res = reservation_accept(acct, 12.5, 0.25, 100, accepted_at=7)
    assert acct.balance == 37.5
    assert (res.fraction, res.period, res.accepted_at) == (0.25, 100, 7)


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


def test_run_slice_charges_winner_and_tracks_revenue():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 100.0, 10.0))
    sched.add_agent(account(1, 30.0, 10.0))
    result = sched.run_slice()
    assert result.winner == 0
    assert result.payment == 10.0
    assert sched.accounts[0].balance == 90.0
    assert sched.revenue == 10.0
    assert result.clearing_price == 10.0


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


def test_duplicate_agent_rejected():
    sched = AuctionShareScheduler(FIRST)
    sched.add_agent(account(0, 1.0))
    with pytest.raises(InvalidAccountError):
        sched.add_agent(account(0, 2.0))
