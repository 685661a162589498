"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs the benchmark as its users do, in short traced runs, and checks
that the per-layer counts are exact (two traced runs of one seed agree),
that each workload stays out of the layers it should not touch, that
the layers each workload is meant to load are busy, and that the
benchmark refuses to run without the program's sources.  About a
minute on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEED = 3

# Layers each workload must use (non-zero span or count), and the layer
# prefixes it must never enter.
USES = {
    "host-table1": ("sched.auction.run_slice",
                    "sched.proportional.select_winner",
                    "hostsim.run_host_sim", "sched.bidheap.ops"),
    "market-sweep": ("market.allocate_host_step", "market.run",
                     "market.setup"),
    "cluster-lossy": ("harness.messages.send", "harness.messages.pump",
                      "harness.bank.bank_transfer",
                      "harness.agents.parent_monitor_and_replace",
                      "harness.scenario.run", "harness.sls.advertise.calls",
                      "sched.auction.run_slice", "sched.bidheap.ops"),
}
AVOIDS = {
    "host-table1": ("market.", "harness."),
    "market-sweep": ("harness.", "sched.", "hostsim."),
    "cluster-lossy": ("market.", "hostsim.", "sched.proportional."),
}


def bench(workload: str, root: Path = ROOT, trace: int = 1):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def exact(metrics: dict) -> dict:
    """The metrics that are counts, or ratios of counts."""
    return {name: m["value"] for name, m in metrics.items()
            if not name.startswith("bench.trace.")
            and m["unit"] in ("count", "bytes", "ratio")}


class TracedRuns(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in USES:
            results = []
            for _ in range(2):
                proc = bench(workload)
                if proc.returncode != 0:
                    raise RuntimeError(f"{workload}: {proc.stderr}")
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                trace_file = OUT / f"trace-{workload}-seed{SEED}.json"
                trace = json.loads(trace_file.read_text(encoding="utf-8"))
                results.append((line, trace))
            cls.runs[workload] = results

    def test_two_traced_runs_of_one_seed_count_alike(self):
        for workload, ((first, _), (second, _)) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertTrue(first["correct"])
                self.assertEqual(exact(first["metrics"]),
                                 exact(second["metrics"]))

    def test_workloads_stay_out_of_other_layers(self):
        for workload, ((_, trace), _) in self.runs.items():
            seen = set(trace["totals"]) | {
                name for name, n in trace["counts"].items() if n}
            for prefix in AVOIDS[workload]:
                with self.subTest(workload=workload, prefix=prefix):
                    self.assertEqual(
                        [n for n in seen if n.startswith(prefix)], [])

    def test_workloads_load_their_layers(self):
        for workload, ((_, trace), _) in self.runs.items():
            for name in USES[workload]:
                with self.subTest(workload=workload, layer=name):
                    calls = (trace["totals"].get(name, {}).get("calls", 0)
                             or trace["counts"].get(name, 0))
                    self.assertGreater(calls, 0)

    def test_every_span_has_a_parent_inside_its_unit(self):
        for workload, ((_, trace), _) in self.runs.items():
            roots = {trace["names"].index("cli.main")}
            for name, start, end, parent in trace["spans"]:
                with self.subTest(workload=workload):
                    self.assertLessEqual(start, end)
                    if parent < 0:
                        self.assertIn(name, roots)
                    else:
                        p_start, p_end = trace["spans"][parent][1:3]
                        self.assertTrue(p_start <= start <= end <= p_end)


class BareCheckout(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = bench("host-table1", root=bare, trace=0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
