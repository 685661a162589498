"""tycoon-sim benchmark: one workload per scale of the simulator.

    python3 perfbench/run.py --workload host-table1 --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the program is imported from
its ``src/`` directory and from nowhere else.  The workload is driven as
a closed loop: one process, one thread, each simulation starting only
after the previous one ended.  One unit is one ``tycoon-sim run`` of the
workload's experiment for one seed, made through the CLI's own ``main``;
unit seeds are ``1000 * seed + 1``, ``+ 2``, ... so ``--seed`` fixes the
inputs.  Every simulation's result is checked and the CSV files the CLI
writes are digested.

The work of a run is fixed: ``--seconds`` divided by the workload's
nominal unit cost gives the number of units, so two versions of the
program are measured on the same inputs and every count depends on the
seed alone.

``--trace 0`` runs those units and reports the end-to-end metrics:
``setup_s`` (median set-up time of fresh interpreters, see
setup_probe.py), ``sim_steps_per_s`` (simulated host-steps per second
of completed runs, median over units), ``run_s_p50`` and ``run_s_tail``
(seconds per completed run: the median, and the highest percentile with
``TAIL_BEYOND`` runs beyond it) and ``peak_rss_mb``.  ``--trace 1`` runs
``TRACE_SHARE`` of the units once untraced and once with spans around
every layer boundary (spans.py), and reports the per-layer metrics with
the tracing overhead; it also checks that both passes wrote the same
CSV bytes, and that the first unit's files match byte for byte a
separate ``python3 -m tycoon_sim.cli run`` of the same config and seed.

The last line on stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a run that raised or failed
an output check counts as failed.  A fuller record, with the
environment, the CSV digests and each failure, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SEED_STRIDE = 1000
SETUP_PROBES = 7        # measured set-ups per run, after one warm-up
TRACE_SHARE = 0.4       # share of --seconds each phase of --trace 1 sizes
TAIL_BEYOND = 10        # runs that must lie beyond the tail percentile
SUBPROCESS_TIMEOUT = 150


@dataclass
class Run:
    """One simulation: one seed x one config point."""

    seconds: float
    steps: int
    raised: str | None = None     # exception type, when it raised
    problem: str | None = None    # failed output check, when it returned

    @property
    def ok(self) -> bool:
        return self.raised is None and self.problem is None


@dataclass
class Phase:
    """Everything one closed loop of units produced."""

    runs: list = field(default_factory=list)
    unit_runs: list = field(default_factory=list)   # (first, end) into runs
    seconds: float = 0.0
    digests: dict = field(default_factory=dict)
    first_seed: int = 0
    first_code: int | None = None
    first_csvs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def ok_runs(self) -> list:
        return [r for r in self.runs if r.ok]

    def steps_per_s(self) -> float:
        """Simulated host-steps per second of completed runs: the median
        over units, which all do the same kind of work."""
        rates = []
        for first, end in self.unit_runs:
            done = [r for r in self.runs[first:end] if r.ok]
            if done:
                rates.append(sum(r.steps for r in done)
                             / sum(r.seconds for r in done))
        return statistics.median(rates)


def load_program():
    """Import tycoon_sim from this checkout's src/, or exit non-zero."""
    package = SRC / "tycoon_sim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no tycoon_sim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tycoon_sim
    if Path(tycoon_sim.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported tycoon_sim from {tycoon_sim.__file__},"
                 f" not from {package}")
    from tycoon_sim import cli
    return cli


def timed_runs(workload, runs: list):
    """Wrap the CLI's simulate call: time it and check its result."""
    def wrap(simulate):
        def timed(config):
            start = time.perf_counter()
            try:
                result = simulate(config)
            except Exception as exc:
                runs.append(Run(time.perf_counter() - start, 0,
                                raised=type(exc).__name__))
                raise
            seconds = time.perf_counter() - start
            runs.append(Run(seconds, workload.steps(config),
                            problem=workload.check(result)))
            return result
        return timed
    return wrap


def cli_argv(workload, seed: int, out_dir: Path) -> list[str]:
    return ["run", "--experiment", workload.experiment,
            "--config", str(workload.config_path),
            "--seed", str(seed), "--out", str(out_dir)]


def read_csvs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def first_unit_seed(seed: int) -> int:
    """The seed of a run's first unit; later units count up from it."""
    return SEED_STRIDE * seed + 1


def unit_count(workload, seconds: float) -> int:
    """The units a run of ``seconds`` is made of."""
    return max(1, round(seconds / workload.unit_seconds))


def run_units(cli, workload, first_seed: int, units: int) -> Phase:
    """A closed loop of ``units`` units, one seed each."""
    phase = Phase(first_seed=first_seed)
    out_dir = OUT / "csv" / workload.name
    patcher = spans.Patcher()
    patcher.replace(cli, workload.runner, timed_runs(workload, phase.runs))
    try:
        start = time.perf_counter()
        for seed in range(first_seed, first_seed + units):
            fresh_dir(out_dir)
            gc.collect()  # a clean heap per unit, as in a fresh CLI process
            before = len(phase.runs)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(cli_argv(workload, seed, out_dir))
                except Exception:  # a crash the CLI does not catch
                    code = None
                    stderr.write(traceback.format_exc())
            if code != 0:
                phase.errors.append(f"seed {seed}: exit {code}: "
                                    f"{stderr.getvalue().strip()}")
                if not any(r.raised for r in phase.runs[before:]):
                    # Failed outside any simulation: count it as one run.
                    phase.runs.append(Run(0.0, 0, raised=f"exit {code}"))
            csvs = read_csvs(out_dir)
            for name, data in csvs.items():
                digest = phase.digests.setdefault(name, hashlib.sha256())
                digest.update(f"seed {seed}\n".encode() + data)
            if seed == first_seed:
                phase.first_code, phase.first_csvs = code, csvs
            phase.unit_runs.append((before, len(phase.runs)))
        phase.seconds = time.perf_counter() - start
    finally:
        patcher.restore()
    if not phase.ok_runs:
        sys.exit(f"perfbench: no {workload.name} run completed: "
                 f"{phase.errors[:3]}")
    phase.digests = {k: v.hexdigest() for k, v in phase.digests.items()}
    return phase


def reference_check(workload, phase: Phase) -> str | None:
    """Compare the first unit with a separate ``tycoon-sim run``."""
    out_dir = fresh_dir(OUT / "reference" / workload.name)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "tycoon_sim.cli",
         *cli_argv(workload, phase.first_seed, out_dir)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != phase.first_code:
        return (f"tycoon-sim run exited {proc.returncode}, "
                f"the benchmark's unit {phase.first_code}")
    reference = read_csvs(out_dir)
    if reference != phase.first_csvs:
        differ = sorted(set(reference) ^ set(phase.first_csvs)
                        | {n for n in reference
                           if reference[n] != phase.first_csvs.get(n)})
        return f"CSV bytes differ from tycoon-sim run: {', '.join(differ)}"
    return None


def measure_setup(workload) -> list[float]:
    """Set-up seconds from fresh interpreters; the first fills caches."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
           str(workload.config_path), workload.section]
    values = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        if Path(probe["module"]).resolve().parent != SRC / "tycoon_sim":
            raise RuntimeError(f"set-up probe imported {probe['module']}")
        if i:
            values.append(probe["setup_s"])
    return values


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND runs
    beyond it.  With too few runs for that, the upper median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload) -> dict:
    import numpy
    from tycoon_sim import config as cfg
    from tycoon_sim.csvio import config_hash

    doc = cfg.load_config(workload.config_path)
    cfg.validate_config(doc)
    resolved = cfg.resolved_config(doc, cfg.Experiment(workload.experiment),
                                   [], 1)
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config_hash": config_hash(resolved),
        "src_lines": src_lines,
    }


def end_to_end(cli, workload, seed: int, seconds: float) -> dict:
    setups = measure_setup(workload)
    phase = run_units(cli, workload, first_unit_seed(seed),
                      unit_count(workload, seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [r.seconds for r in phase.ok_runs]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sim_steps_per_s": (phase.steps_per_s(), "1/s"),
        "run_s_p50": (statistics.median(times), "s"),
        "run_s_tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_samples_s": setups,
        "units": len(phase.unit_runs),
        "measured_s": phase.seconds,
        "run_s_samples": len(times),
        "run_s_tail_percentile": tail_pct,
    }
    return {"phase": phase, "metrics": metrics, "notes": notes}


def per_layer(cli, workload, seed: int, seconds: float) -> dict:
    units = unit_count(workload, TRACE_SHARE * seconds)
    base = run_units(cli, workload, first_unit_seed(seed), units)
    tracer = spans.Tracer()
    patcher = spans.Patcher()
    spans.instrument(tracer, patcher)
    try:
        phase = run_units(cli, workload, first_unit_seed(seed), units)
    finally:
        patcher.restore()
    metrics = spans.layer_metrics(tracer)
    untraced, traced = base.steps_per_s(), phase.steps_per_s()
    metrics.update({
        "bench.trace.sim_steps_per_s_untraced": (untraced, "1/s"),
        "bench.trace.sim_steps_per_s_traced": (traced, "1/s"),
        "bench.trace.traced_to_untraced": (traced / untraced, "ratio"),
    })
    problems = []
    if base.digests != phase.digests:
        problems.append("traced CSVs differ from untraced ones")
    mismatch = reference_check(workload, phase)
    if mismatch:
        problems.append(mismatch)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path)
    notes = {"units": units, "trace_file": str(trace_path.relative_to(ROOT))}
    return {"phase": phase, "metrics": metrics, "notes": notes,
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cli = load_program()
    workload = WORKLOADS[args.workload]
    env = environment(workload)
    measure = per_layer if args.trace else end_to_end
    result = measure(cli, workload, args.seed, args.seconds)
    phase = result["phase"]

    problems = list(result.get("problems", ()))
    problems += [r.problem for r in phase.runs if r.problem]
    attempted = len(phase.runs)
    failed = attempted - len(phase.ok_runs)
    failure_kinds = dict(Counter(r.raised or "check failed"
                                 for r in phase.runs if not r.ok))
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in result["metrics"].items()}

    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "csv_sha256": phase.digests,
        "reference_seed": phase.first_seed,
        "runs": attempted,
        "run_seconds": [r.seconds for r in phase.ok_runs],
        "failed_runs_ratio": failed / attempted,
        "failures": failure_kinds,
        "errors": phase.errors,
        "problems": problems,
        **result["notes"],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = (OUT / f"result-{workload.name}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")

    print(f"{workload.name} seed {args.seed}: {attempted} runs in "
          f"{len(phase.unit_runs)} units, {failed} failed (failed_runs_ratio "
          f"{failed / attempted} ratio) {failure_kinds}")
    for key in ("nproc", "cpu_model", "python", "numpy", "config_hash",
                "src_lines"):
        print(f"  env {key}: {env[key]}")
    for name, digest in phase.digests.items():
        print(f"  csv {name} sha256 {digest}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value} {unit}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
