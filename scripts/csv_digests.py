"""Check every pinned CSV set against its checked-in sha256 digests.

    python3 scripts/csv_digests.py          # check every set
    python3 scripts/csv_digests.py --write  # re-pin: rewrite the digests

Each set is one ``tycoon-sim run`` of this checkout's sources (``src/``
goes first on ``PYTHONPATH``) into a temporary directory, and every CSV
it writes is hashed, ``# config-hash:`` line included.  A check prints
each file whose digest differs, is missing or is new, and exits 1 if
there is one.  A change that must move no byte leaves the digest file
as it is; a re-pin rewrites it in the same commit and says which
digests moved and why.  About 25 s on a 2-core machine, two runs at a
time, most of it the 30-seed ``figure1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "csv_digests.sha256"
CONFIGS = ROOT / "perfbench" / "configs"


def _host(scheduler: str, yields: bool) -> dict:
    return {"host": {"scheduler": scheduler,
                     "web": {"yields_cpu": yields}}}


# name -> (experiment, config document or file, seed arguments)
SETS = {
    "table1-default": ("table1", {}, ["--seeds", "1..30"]),
    "figure1-default": ("figure1", {}, ["--seeds", "1..30"]),
    "figure1-market-sweep": ("figure1", CONFIGS / "market-sweep.json",
                             ["--seeds", "1..3"]),
    "table1-host-table1": ("table1", CONFIGS / "host-table1.json",
                           ["--seeds", "1001..1020"]),
    "harness-default": ("harness", {}, []),
    "cluster-lossy-1..10": ("harness", CONFIGS / "cluster-lossy.json",
                            ["--seeds", "1..10"]),
    "cluster-lossy-1001": ("harness", CONFIGS / "cluster-lossy.json",
                           ["--seed", "1001"]),
    "open-loop": ("harness", {"harness": {
        "policy_kind": "open_loop", "message_latency": 0.015,
        "drop_probability": 0.1}}, ["--seeds", "1..5"]),
    **{f"host-{short}-{'yield' if yields else 'noyield'}": (
        "host", _host(scheduler, yields), ["--seeds", "1..5"])
       for short, scheduler in (("stride", "proportional_share"),
                                ("auction", "auction_share"))
       for yields in (True, False)},
}


def run_set(name: str, scratch: Path) -> dict[str, str]:
    """``{"<set>/<file>": sha256}`` for every CSV one set's run writes."""
    experiment, config, seeds = SETS[name]
    out = scratch / name
    if isinstance(config, dict):
        path = scratch / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        config = path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tycoon_sim.cli", "run",
         "--experiment", experiment, "--config", str(config), *seeds,
         "--out", str(out)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return {f"{name}/{csv.name}": hashlib.sha256(csv.read_bytes()).hexdigest()
            for csv in sorted(out.glob("*.csv"))}


def read_digests() -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    digests = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, _, name = line.partition("  ")
        digests[name] = digest
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the digest file from this run")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch, \
            ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda name: run_set(name, Path(scratch)),
                             SETS))
    actual = {key: digest for run in runs for key, digest in run.items()}
    if args.write:
        DIGESTS.write_text("".join(
            f"{digest}  {key}\n" for key, digest in sorted(actual.items())),
            encoding="utf-8")
        print(f"wrote {len(actual)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0

    expected = read_digests()
    bad = 0
    for key in sorted(expected.keys() | actual.keys()):
        if key not in actual:
            print(f"missing: {key}")
        elif key not in expected:
            print(f"new: {key}")
        elif actual[key] != expected[key]:
            print(f"differs: {key}")
        else:
            continue
        bad += 1
    print(f"{len(actual)} files in {len(SETS)} sets, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
