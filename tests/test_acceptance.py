"""Acceptance gate: eight release criteria, one test and one printed line each.

Every test here evaluates its criterion completely, records a PASS or
FAIL line that shows up in the pytest terminal summary, and then
asserts.  The tolerances are pinned on purpose: loosening one is a
release decision, not a test fix.
"""

import json
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from conftest import record_acceptance
from test_bidheap import max_op_comparisons

from tycoon_sim import cli
from tycoon_sim.harness.bank import (
    BankLedger,
    FundingPolicy,
    PolicyKind,
    apply_funding_policy,
    bank_transfer,
)
from tycoon_sim.harness.scenario import ParentJob, ScenarioConfig, run_harness_scenario
from tycoon_sim.errors import InsufficientBalanceError, InvalidAmountError
from tycoon_sim.hostsim import comparison_rows, run_host_sim
from tycoon_sim.market import Behavior
from tycoon_sim.sched.auction import AuctionShareScheduler, reservation_quote
from tycoon_sim.sched.proportional import advance
from tycoon_sim.sched.proportional import select_winner as ps_select
from tycoon_sim.sched.types import (
    AgentAccount,
    PriceStats,
    PSProcess,
    Reservation,
    SchedulerConfig,
)

SEEDS = tuple(range(1, 31))
ROW_LABELS = ("ps-1/10-yield", "ps-7/10-yield", "ps-7/10-noyield",
              "as-1/10-yield", "as-1/10-noyield")
INTERARRIVALS = (140.0, 120.0, 100.0, 80.0, 60.0, 50.0, 40.0, 20.0)
SATURATION_INTERARRIVAL = 100.0
DOUBLE_LOAD_INTERARRIVAL = 50.0


def finish(criterion: int, ok: bool, detail: str) -> None:
    record_acceptance(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def table():
    """Per-seed metrics for the five comparison rows, seeds 1..30."""
    runs = {}
    for label, config in comparison_rows():
        runs[label] = [run_host_sim(replace(config, rng_seed=s))
                       for s in SEEDS]
    return runs


@pytest.fixture(scope="module")
def market_grid():
    """behavior -> interarrival -> mean utility, seeds 42..51 per point.

    Built by the CLI's own sweep runner, so the gate checks the numbers
    figure1.csv reports.
    """
    seeds = list(range(42, 52))
    grid = {behavior: {} for behavior in Behavior}
    for ia, behavior, mean, _, _ in cli._market_points(
            {}, list(Behavior), INTERARRIVALS, seeds):
        grid[Behavior(behavior)][ia] = mean
    return grid


# -- 1: the comparison table lands in its published bands ------------------


def test_criterion_1_table_means_sit_in_their_bands(table):
    err = {k: statistics.fmean(m.scheduling_error for m in v)
           for k, v in table.items()}
    lat = {k: statistics.fmean(m.mean_latency_ms for m in v)
           for k, v in table.items()
           if all(m.mean_latency_ms is not None for m in v)}
    bands = [
        ("ps-1/10-yield err <= 0.15", err["ps-1/10-yield"] <= 0.15),
        ("ps-1/10-yield lat in [60, 110]",
         60.0 <= lat["ps-1/10-yield"] <= 110.0),
        ("ps-7/10-yield err <= 0.03", err["ps-7/10-yield"] <= 0.03),
        ("ps-7/10-yield lat <= 7", lat["ps-7/10-yield"] <= 7.0),
        ("ps-7/10-noyield err >= 0.8", err["ps-7/10-noyield"] >= 0.8),
        ("as-1/10-yield err <= 0.03", err["as-1/10-yield"] <= 0.03),
        ("as-1/10-yield lat <= 7", lat["as-1/10-yield"] <= 7.0),
        ("as-1/10-noyield err <= 0.05", err["as-1/10-noyield"] <= 0.05),
        ("as-1/10-noyield lat >= 60", lat["as-1/10-noyield"] >= 60.0),
    ]
    broken = [name for name, ok in bands if not ok]
    detail = ("mean err " +
              " ".join(f"{k}={err[k]:.4f}" for k in ROW_LABELS) +
              "; mean lat(ms) " +
              " ".join(f"{k}={lat[k]:.2f}" for k in ROW_LABELS if k in lat))
    if broken:
        detail = "out of band: " + ", ".join(broken) + "; " + detail
    finish(1, not broken, detail)


# -- 2: the qualitative ordering holds for every single seed ---------------


def test_criterion_2_orderings_hold_for_every_seed(table):
    fails = []
    for i, seed in enumerate(SEEDS):
        r1, r2, r3, r4, r5 = (table[label][i] for label in ROW_LABELS)
        if not r4.mean_latency_ms * 5 < r1.mean_latency_ms:
            fails.append(f"seed {seed}: 5x auction-yield latency "
                         f"{r4.mean_latency_ms:.1f} !< {r1.mean_latency_ms:.1f}")
        for other in (r1, r2, r4, r5):
            if not r3.scheduling_error > 10 * other.scheduling_error:
                fails.append(f"seed {seed}: noyield stride error "
                             f"{r3.scheduling_error:.3f} !> 10x "
                             f"{other.scheduling_error:.3f}")
        if not (r5.mean_latency_ms >= 10 * r4.mean_latency_ms
                and r5.scheduling_error <= 0.05):
            fails.append(f"seed {seed}: auction noyield lat "
                         f"{r5.mean_latency_ms:.1f} err "
                         f"{r5.scheduling_error:.3f}")
    detail = (f"3 orderings x {len(SEEDS)} seeds all hold" if not fails
              else "; ".join(fails[:4]))
    finish(2, not fails, detail)


# -- 3: utility under load separates the three bidding behaviors -----------


def test_criterion_3_market_utility_curves(market_grid):
    ob = market_grid[Behavior.OBEDIENT]
    nm = market_grid[Behavior.STRATEGIC_NO_MARKET]
    mk = market_grid[Behavior.STRATEGIC_MARKET]
    fails = []
    if not nm[DOUBLE_LOAD_INTERARRIVAL] < 0.1 * ob[DOUBLE_LOAD_INTERARRIVAL]:
        fails.append(f"no-market at 2x load {nm[DOUBLE_LOAD_INTERARRIVAL]:.3f}"
                     f" !< 0.1 x {ob[DOUBLE_LOAD_INTERARRIVAL]:.3f}")
    for ia in INTERARRIVALS:
        if not mk[ia] >= 0.75 * ob[ia]:
            fails.append(f"market-informed at ia={ia:g} {mk[ia]:.3f} "
                         f"!>= 0.75 x {ob[ia]:.3f}")
        if ia < SATURATION_INTERARRIVAL and not nm[ia] <= 0.5 * ob[ia]:
            fails.append(f"no-market at ia={ia:g} {nm[ia]:.3f} "
                         f"!> half of {ob[ia]:.3f}")
    detail = ("collapse at 2x load {:.3f} vs {:.3f} obedient; informed "
              "strategy stays >= {:.2f} of obedient".format(
                  nm[DOUBLE_LOAD_INTERARRIVAL],
                  ob[DOUBLE_LOAD_INTERARRIVAL],
                  min(mk[ia] / ob[ia] for ia in INTERARRIVALS)))
    if fails:
        detail = "; ".join(fails[:4])
    finish(3, not fails, detail)


# -- 4: winner selection is exact and long-run shares track weights --------


def brute_force_winner(accounts):
    best = None
    for acct in accounts:
        bid = acct.balance / acct.requested_cpu_seconds
        if (best is None or bid > best[1]
                or (bid == best[1] and acct.agent_id < best[0])):
            best = (acct.agent_id, bid)
    return best[0]


def test_criterion_4_selection_exactness_and_share_accuracy():
    rng = np.random.default_rng(2026)
    mismatches = 0
    trials = 10_000
    for _ in range(trials):
        n = int(rng.integers(1, 10))
        accounts = [
            AgentAccount(agent_id=i,
                         balance=float(rng.integers(0, 9)),
                         requested_cpu_seconds=float(rng.integers(1, 6)))
            for i in range(n)
        ]
        expected = brute_force_winner(accounts)  # before the round charges
        sched = AuctionShareScheduler()
        for acct in accounts:
            sched.add_agent(acct)
        if sched.run_slice().winner != expected:
            mismatches += 1

    weights = (1, 2, 3, 4)
    processes = [PSProcess(process_id=i, weight=w)
                 for i, w in enumerate(weights)]
    counts = [0] * len(processes)
    slices = 1000
    for _ in range(slices):
        winner = ps_select(processes)
        counts[winner.process_id] += 1
        advance(winner, 0.010)
    drift = max(abs(c - slices * w / sum(weights))
                for c, w in zip(counts, weights))
    ok = mismatches == 0 and drift <= 1.0
    finish(4, ok, f"{trials} auctions, {mismatches} oracle mismatches; "
           f"stride counts {counts} drift {drift:g} slice(s) from ideal")


# -- 5: credits are conserved, even while hosts die and messages drop ------


def test_criterion_5_conservation_under_churn_and_faults():
    ledger = BankLedger()
    rng = np.random.default_rng(5)
    ids = [f"acct:{i}" for i in range(12)]
    for account_id in ids:
        ledger.create_account(account_id, int(rng.integers(0, 5_000_000)))
    policy = FundingPolicy(kind=PolicyKind.OPEN_LOOP, admin_account="acct:0",
                           income_rates={"acct:1": 250, "acct:2": 125},
                           provider_accounts=("acct:3",))
    events = rejected = 0
    for _ in range(10_000):
        kind = rng.integers(0, 10)
        src, dst = rng.choice(len(ids), size=2, replace=False)
        try:
            if kind == 0:
                apply_funding_policy(ledger, policy)
            elif kind == 1:
                bank_transfer(ledger, ids[src], ids[dst],
                              -int(rng.integers(1, 100)))
            else:
                bank_transfer(ledger, ids[src], ids[dst],
                              int(rng.integers(0, 2_000_000)))
        except (InvalidAmountError, InsufficientBalanceError):
            rejected += 1
        events += 1
    bank_ok = (ledger.total_balance() == ledger.total_issued
               and min(ledger.accounts.values()) >= 0)

    config = ScenarioConfig(
        num_hosts=3,
        parents=(ParentJob(), ParentJob()),
        duration=30.0,
        kill_hosts=((12.0, 2),),
        message_latency=0.02,
        drop_probability=0.1,
        report_timeout=6.0,
        rng_seed=11,
    )
    report = run_harness_scenario(config)
    harness_ok = (report.ledger_ok and report.no_negative_balances
                  and report.final_total == report.total_issued
                  and report.messages_dropped > 0)
    finish(5, bank_ok and harness_ok,
           f"{events} ledger events ({rejected} rejected cleanly), "
           f"exact total {ledger.total_issued}; faulted scenario dropped "
           f"{report.messages_dropped} messages, killed a host, books "
           f"still balance at {report.final_total}")


# -- 6: reservations never fall behind and quotes follow the price stats ---


def test_criterion_6_reservation_floor_and_quote_identity():
    rng = np.random.default_rng(6)
    config = SchedulerConfig(reservation_capacity=1.0)
    floor_violations = quote_errors = 0
    trials = 1000
    for _ in range(trials):
        fraction = float(rng.uniform(0.01, 1.0))
        period = int(rng.integers(1, 150))

        res = Reservation(agent_id="r", fraction=fraction, period=period,
                          quoted_price=0.0)
        while res.active():
            if res.behind():
                res.slices_won += 1
            res.slices_elapsed += 1
            if res.slices_won < math.floor(fraction * res.slices_elapsed):
                floor_violations += 1

        stats = PriceStats(window_size=256)
        prices = rng.uniform(0.0, 20.0, size=int(rng.integers(2, 64)))
        for price in prices:
            stats.observe(float(price))
        quote = reservation_quote(stats, fraction, period, 0.0, config)
        expected = ((statistics.fmean(prices) + statistics.stdev(prices))
                    * fraction * period)
        if not math.isclose(quote, expected, rel_tol=1e-9):
            quote_errors += 1
    ok = floor_violations == 0 and quote_errors == 0
    finish(6, ok, f"{trials} random (fraction, period) pairs: "
           f"{floor_violations} floor violations at slice boundaries, "
           f"{quote_errors} quote mismatches beyond 1e-9 relative")


# -- 7: rerunning the command line reproduces every output byte ------------


def test_criterion_7_cli_reruns_are_byte_identical(tmp_path):
    doc = {
        "host": {"num_timeslices": 300, "warmup_slices": 50},
        "harness": {"num_hosts": 2, "duration": 10.0,
                    "drop_probability": 0.05, "message_latency": 0.01},
    }
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(doc))
    outputs = {}
    for experiment in ("table1", "harness"):
        for attempt in ("a", "b"):
            out = tmp_path / f"{experiment}-{attempt}"
            rc = cli.main(["run", "--experiment", experiment,
                           "--config", str(conf), "--seeds", "1..2",
                           "--out", str(out)])
            assert rc == 0
            outputs[(experiment, attempt)] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same = all(outputs[(e, "a")] == outputs[(e, "b")]
               for e in ("table1", "harness"))
    n_files = sum(len(v) for (e, a), v in outputs.items() if a == "a")
    finish(7, same, f"{n_files} output files compared byte for byte "
           "across independent reruns" if same
           else "rerun produced different bytes")


# -- 8: the bid queue stays logarithmic ------------------------------------


def test_criterion_8_bid_queue_comparisons_stay_logarithmic():
    budget = 8.0  # comparisons per operation, per log2(n)
    worst = {n: max(max_op_comparisons(n, seed) for seed in (1, 2, 3))
             for n in (4, 64, 1024)}
    over = {n: w for n, w in worst.items() if w > budget * math.log2(n)}
    detail = ("worst per-op comparisons " +
              ", ".join(f"n={n}: {w} <= {budget * math.log2(n):g}"
                        for n, w in worst.items()))
    finish(8, not over, detail)
