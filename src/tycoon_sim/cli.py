"""Experiment runner.

    tycoon-sim run --experiment table1 --config conf.json --seeds 1..30 --out results/
    tycoon-sim validate --config conf.json

Each experiment writes CSV tables into the output directory (``--out``,
else ``TYCOON_SIM_OUT``, else ``./results``).  Exit status is 0 on
success; configuration and I/O problems print a diagnostic to stderr
and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
from pathlib import Path

from . import config as cfg
from .csvio import emit_csv
from .errors import ConfigError, TycoonError
from .harness.scenario import run_harness_scenario
from .hostsim import comparison_rows, run_host_sim
from .market import run_market_sim

HOST_HEADER = ["scheduler", "web_share", "yields", "error",
               "mean_latency_ms", "utilization", "seed"]
MARKET_HEADER = ["interarrival", "behavior", "utility_mean",
                 "utility_stddev", "seeds"]
TABLE1_HEADER = ["row", "scheduler", "web_share", "yields",
                 "error_mean", "error_stddev",
                 "latency_ms_mean", "latency_ms_stddev", "seeds"]
USERS_HEADER = ["seed", "parent", "funded_credits", "reclaimed_credits",
                "work_done", "starvation_events", "bank_balance"]
HOSTS_HEADER = ["seed", "host", "alive", "revenue_credits",
                "utilization", "slices_run"]
EVENTS_HEADER = ["seed", "time", "parent", "old_host", "new_host", "reason"]


def _parse_seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigError(f"--seeds wants A..B, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--seeds wants integer bounds, got {text!r}") from None
    if b < a:
        raise ConfigError(f"--seeds range {text!r} is empty")
    if a < 0:
        raise ConfigError(f"--seeds wants bounds >= 0, got {text!r}")
    return list(range(a, b + 1))


def _mean_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    if len(values) == 1:
        return values[0], 0.0
    return statistics.fmean(values), statistics.stdev(values)


def _host_row(metrics) -> list:
    return [metrics.scheduler, metrics.web_weight_share, metrics.web_yields,
            metrics.scheduling_error, metrics.mean_latency_ms,
            metrics.utilization, metrics.seed]


def _run_host(doc, seeds) -> list[tuple]:
    rows = []
    for seed in seeds:
        metrics = run_host_sim(cfg.build_host_config(doc.get("host", {}), seed))
        rows.append(_host_row(metrics))
    return [("host.csv", HOST_HEADER, rows, ())]


def _run_table1(doc, seeds) -> list[tuple]:
    errors: dict[str, list[float]] = {}
    latencies: dict[str, list[float]] = {}
    meta = {}
    for seed in seeds:
        base = cfg.build_host_config(doc.get("host", {}), seed)
        for label, row_cfg in comparison_rows(base):
            metrics = run_host_sim(row_cfg)
            meta[label] = (metrics.scheduler, metrics.web_weight_share,
                           metrics.web_yields)
            errors.setdefault(label, []).append(metrics.scheduling_error)
            if metrics.mean_latency_ms is not None:
                latencies.setdefault(label, []).append(metrics.mean_latency_ms)
    rows = []
    for label in errors:
        scheduler, share, yields = meta[label]
        err_mean, err_std = _mean_std(errors[label])
        lat_mean, lat_std = _mean_std(latencies.get(label, []))
        rows.append([label, scheduler, share, yields,
                     err_mean, err_std, lat_mean, lat_std, len(seeds)])
    return [("table1.csv", TABLE1_HEADER, rows, ())]


def _market_points(doc, behaviors, interarrivals, seeds) -> list:
    """One row per (behavior, interarrival) point, behavior-major.

    Runs interarrival -> seed -> behavior, so the behaviors at one
    (seed, interarrival) run back to back on one task draw.  Each
    point's utilities are still aggregated in seed order.
    """
    utilities = {}  # (behavior index, interarrival index) -> per seed
    for j, interarrival in enumerate(interarrivals):
        for seed in seeds:
            base = dataclasses.replace(
                cfg.build_market_config(doc.get("market", {}), seed),
                mean_task_interarrival=interarrival)
            for i, behavior in enumerate(behaviors):
                result = run_market_sim(
                    dataclasses.replace(base, behavior=behavior))
                utilities.setdefault((i, j), []).append(
                    result.mean_utility_per_host_per_time_unit)
    rows = []
    for i, behavior in enumerate(behaviors):
        for j, interarrival in enumerate(interarrivals):
            mean, std = _mean_std(utilities[i, j])
            rows.append([interarrival, behavior.value, mean, std, len(seeds)])
    return rows


def _run_market(doc, seeds) -> list[tuple]:
    base = cfg.build_market_config(doc.get("market", {}))
    rows = _market_points(doc, [base.behavior],
                          [base.mean_task_interarrival], seeds)
    return [("market.csv", MARKET_HEADER, rows, ())]


def _run_figure1(doc, seeds) -> list[tuple]:
    interarrivals, behaviors = cfg.sweep_points(doc)
    rows = _market_points(doc, behaviors, interarrivals, seeds)
    return [("figure1.csv", MARKET_HEADER, rows, ())]


def _run_harness(doc, seeds) -> list[tuple]:
    users, hosts, events, audits = [], [], [], []
    for seed in seeds:
        report = run_harness_scenario(
            cfg.build_harness_config(doc.get("harness", {}), seed))
        for parent, stats in sorted(report.per_parent.items()):
            users.append([seed, parent, stats["funded_credits"],
                          stats["reclaimed_credits"], stats["work_done"],
                          stats["starvation_events"], stats["bank_balance"]])
        for host, stats in sorted(report.per_host.items()):
            hosts.append([seed, host, stats["alive"],
                          stats["revenue_credits"], stats["utilization"],
                          stats["slices_run"]])
        for when, parent, old, new, reason in report.replacements:
            events.append([seed, when, parent, old, new, reason])
        audits.append(
            f"ledger-audit seed={seed}: conserved={str(report.ledger_ok).lower()}"
            f" issued={report.total_issued} final={report.final_total}"
            f" dropped={report.messages_dropped}")
    return [("harness_users.csv", USERS_HEADER, users, audits),
            ("harness_hosts.csv", HOSTS_HEADER, hosts, audits),
            ("harness_events.csv", EVENTS_HEADER, events, audits)]


# Each runner returns its tables as (file name, header, rows, comments).
_RUNNERS = {
    cfg.Experiment.HOST: _run_host,
    cfg.Experiment.MARKET: _run_market,
    cfg.Experiment.HARNESS: _run_harness,
    cfg.Experiment.TABLE1: _run_table1,
    cfg.Experiment.FIGURE1: _run_figure1,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tycoon-sim",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write CSV tables")
    run.add_argument("--experiment", required=True,
                     choices=[e.value for e in cfg.Experiment])
    run.add_argument("--config", required=True, help="JSON config file")
    seeds = run.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="single seed")
    seeds.add_argument("--seeds", help="inclusive range A..B")
    run.add_argument("--out", help="output directory "
                     "(default: $TYCOON_SIM_OUT, else ./results)")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a config value, "
                     "e.g. harness.drop_probability=0.05")

    val = sub.add_parser("validate", help="check a config file and exit")
    val.add_argument("--config", required=True)
    return parser


def _cmd_validate(args) -> int:
    doc = cfg.load_config(args.config)
    cfg.validate_config(doc)
    print(f"{args.config}: ok")
    return 0


def _cmd_run(args) -> int:
    doc = cfg.apply_overrides(cfg.load_config(args.config), args.overrides)
    cfg.validate_config(doc)
    experiment = cfg.Experiment(args.experiment)

    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        seeds = [args.seed]
    elif args.seeds is not None:
        seeds = _parse_seed_range(args.seeds)
    else:
        seeds = doc.get("seeds") or cfg.default_seeds(experiment)
    repetitions = doc.get("repetitions", 1)
    seeds = cfg.effective_seeds(seeds, repetitions)

    out_dir = Path(args.out or os.environ.get("TYCOON_SIM_OUT") or "results")
    out_dir.mkdir(parents=True, exist_ok=True)

    resolved = cfg.resolved_config(doc, experiment, seeds, repetitions)
    for name, header, rows, comments in _RUNNERS[experiment](doc, seeds):
        path = out_dir / name
        emit_csv(path, header, rows, resolved, comments=comments)
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args)
    except TycoonError as exc:
        print(f"tycoon-sim: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tycoon-sim: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"tycoon-sim: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
