"""In-process A/B of two ``src/`` trees, row by row.

    python3 scripts/row_ab.py BASE_SRC NEW_SRC            # table1 rows
    python3 scripts/row_ab.py BASE_SRC NEW_SRC --harness  # + cluster-lossy

Each tree (a directory holding ``tycoon_sim``, such as a checkout's
``src/``) is imported by its own long-lived worker process, so only the
simulation is timed: no interpreter start, no import, no CSV.  Every
``table1`` row of ``perfbench/configs/host-table1.json`` runs for seeds
1001..1020, and ``--harness`` adds ``perfbench/configs/cluster-lossy.json``
for seeds 1001..1010.  The two workers take turns, one run at a time,
and which of them goes first alternates from pair to pair, so that a
machine whose speed drifts slows both sides alike.  The base worker runs
with ``PYTHONHASHSEED=1`` and the new one with ``2``, so no result may
follow str hash order: ``row_ab.py src src --harness`` checks just that.

Each run's result is compared in full (``repr`` keeps every float
exactly); the script prints each row's median new/base time ratio over
its seeds with the quartiles, and exits 1 if any result differs.  The
configs are read from this checkout, whichever trees run them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
TABLE1_SEEDS = range(1001, 1021)
HARNESS_SEEDS = range(1001, 1011)


def worker() -> None:
    """Answer one JSON line ``[row, seed]`` with ``[repr, seconds]``."""
    from tycoon_sim import config as cfg
    from tycoon_sim.harness.scenario import run_harness_scenario
    from tycoon_sim.hostsim import comparison_rows, run_host_sim

    table1 = json.loads((CONFIGS / "host-table1.json").read_text())["host"]
    lossy = json.loads((CONFIGS / "cluster-lossy.json").read_text())["harness"]
    for line in sys.stdin:
        row, seed = json.loads(line)
        if row == "cluster-lossy":
            run, config = (run_harness_scenario,
                           cfg.build_harness_config(lossy, seed))
        else:
            run, config = run_host_sim, dict(comparison_rows(
                cfg.build_host_config(table1, seed)))[row]
        start = time.perf_counter()
        result = run(config)
        elapsed = time.perf_counter() - start
        print(json.dumps([repr(result), elapsed]), flush=True)


class Worker:
    def __init__(self, src: Path, hash_seed: int):
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONHASHSEED=str(hash_seed))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker"], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, row: str, seed: int) -> tuple[str, float]:
        self.proc.stdin.write(json.dumps([row, seed]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker exited on {row} seed {seed}")
        result, elapsed = json.loads(line)
        return result, elapsed

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def table1_rows(src: Path) -> list[str]:
    """The labels of the base tree's table1 rows."""
    sys.path.insert(0, str(src))
    from tycoon_sim.hostsim import comparison_rows
    return [label for label, _ in comparison_rows()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the base src/ tree")
    parser.add_argument("new", type=Path, help="the new src/ tree")
    parser.add_argument("--harness", action="store_true",
                        help="also run cluster-lossy seeds 1001..1010")
    args = parser.parse_args(argv)
    for src in (args.base, args.new):
        if not (src / "tycoon_sim").is_dir():
            parser.error(f"{src}: no tycoon_sim package in it")

    pairs = [(row, seed) for row in table1_rows(args.base)
             for seed in TABLE1_SEEDS]
    if args.harness:
        pairs += [("cluster-lossy", seed) for seed in HARNESS_SEEDS]
    base, new = Worker(args.base.resolve(), 1), Worker(args.new.resolve(), 2)
    ratios: dict[str, list[float]] = {}
    differ = 0
    try:
        for i, (row, seed) in enumerate(pairs):
            if i % 2:
                new_out, new_s = new.run(row, seed)
                base_out, base_s = base.run(row, seed)
            else:
                base_out, base_s = base.run(row, seed)
                new_out, new_s = new.run(row, seed)
            if new_out != base_out:
                print(f"differs: {row} seed {seed}")
                differ += 1
            ratios.setdefault(row, []).append(new_s / base_s)
    finally:
        base.close()
        new.close()
    for row, values in ratios.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{row:16} new/base {median:.3f} "
              f"(quartiles {q1:.3f}-{q3:.3f}, {len(values)} seeds)")
    print(f"{sum(map(len, ratios.values()))} runs compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
