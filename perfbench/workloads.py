"""The benchmark's workloads: one per scale of the simulator.

Each workload is a ``tycoon-sim run`` experiment driven one seed at a
time.  One such CLI invocation is a *unit*; every simulation inside it
(one seed x one config point) is a *run*.  A workload also says how many
simulated host-steps a run covers, read from the run's config so the
count does not depend on the implementation, and how to check a run's
result.  Why each workload is in the benchmark is said in BENCHMARK.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIGS = Path(__file__).resolve().parent / "configs"


def _host_steps(config) -> int:
    # One host, one step per 10 ms slice.
    return config.num_timeslices


def _market_steps(config) -> int:
    # Every time unit allocates every host once.
    return config.duration * config.num_hosts


def _cluster_steps(config) -> int:
    return round(config.duration / config.timeslice_length) * config.num_hosts


def _check_host(metrics) -> str | None:
    if not 0.0 <= metrics.utilization <= 1.0:
        return f"utilization {metrics.utilization} outside [0, 1]"
    shares = metrics.per_process_shares.values()
    if any(s < 0 for s in shares):
        return f"negative share in {metrics.per_process_shares}"
    if not math.isclose(sum(shares), metrics.utilization,
                        rel_tol=1e-9, abs_tol=1e-12):
        return (f"shares sum to {sum(shares)}, "
                f"utilization is {metrics.utilization}")
    return None


def _check_market(result) -> str | None:
    utility = result.mean_utility_per_host_per_time_unit
    if not math.isfinite(utility) or utility < 0:
        return f"utility {utility} is not finite and non-negative"
    return None


def _check_cluster(report) -> str | None:
    if not report.ledger_ok:
        return "ledger audit failed"
    if not report.no_negative_balances:
        return "negative balance in the ledger"
    if report.total_issued != report.final_total:
        return f"issued {report.total_issued} != final {report.final_total}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str        # the tycoon-sim experiment one unit runs
    section: str           # the config block that experiment reads
    runner: str            # the tycoon_sim.cli name that runs one simulation
    unit_seconds: float    # run-seconds one unit stands for; sizes runs
    steps: Callable
    check: Callable

    @property
    def config_path(self) -> Path:
        return CONFIGS / f"{self.name}.json"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="host-table1",
        experiment="table1", section="host", runner="run_host_sim",
        unit_seconds=0.5, steps=_host_steps, check=_check_host),
    Workload(
        name="market-sweep",
        experiment="figure1", section="market", runner="run_market_sim",
        unit_seconds=4.0, steps=_market_steps, check=_check_market),
    Workload(
        name="cluster-lossy",
        experiment="harness", section="harness",
        runner="run_harness_scenario",
        unit_seconds=2.0, steps=_cluster_steps, check=_check_cluster),
)}
