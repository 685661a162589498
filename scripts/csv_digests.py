"""Check every pinned CSV set against its checked-in sha256 digests.

    python3 scripts/csv_digests.py          # check every set
    python3 scripts/csv_digests.py --write  # re-pin: rewrite the digests

Each set is one ``tycoon-sim run`` of this checkout's sources (``src/``
goes first on ``PYTHONPATH``) into a temporary directory, and every CSV
it writes is hashed, ``# config-hash:`` line included.  A check prints
each file whose digest differs, is missing or is new, and exits 1 if
there is one.  A change that must move no byte leaves the digest file
as it is; a re-pin rewrites it in the same commit and says which
digests moved and why.  About 35 s on a 2-core machine, two runs at a
time, most of it the 30-seed ``figure1``.

``csv_digests.sha256`` is the only copy of each digest.  Tier-1's
``test_set_matches_its_pinned_digests`` reads it too: it runs every set
but the three slowest (its ``SLOW_SETS``) through ``cli.main`` in
process, about 2 s on the same machine.  So a re-pin is ``--write``
and nothing else.
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


def _host(scheduler: str, yields: bool, **host) -> dict:
    return {"host": {"scheduler": scheduler,
                     "web": {"yields_cpu": yields}, **host}}


# name -> (experiment, config document or file, seed arguments)
SETS = {
    "table1-default": ("table1", {}, ["--seeds", "1..30"]),
    "figure1-default": ("figure1", {}, ["--seeds", "1..30"]),
    "figure1-market-sweep": ("figure1", CONFIGS / "market-sweep.json",
                             ["--seeds", "1..3"]),
    # The runner steps interarrival -> seed -> behavior; this pins the
    # behavior-major rows and their per-seed aggregation.
    "figure1-repeated-load": ("figure1", {
        "market": {"num_users": 20, "num_hosts": 4, "duration": 150},
        # A repeated load keeps a row of its own.
        "sweep": {"interarrivals": [100, 50, 20, 50]},
    }, ["--seeds", "1..3"]),
    "market-default": ("market", {}, ["--seeds", "1..5"]),
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
    "host-auction-poisson": ("host", _host("auction_share", True,
                                           funding_mode="poisson"),
                             ["--seeds", "1..5"]),
}


def cli_args(name: str, scratch: Path,
             seeds: list[str] | None = None) -> list[str]:
    """The ``tycoon-sim run`` arguments of one set, ``seeds`` in place
    of its own if given.  A config document is written into
    ``scratch``, and the run writes into ``scratch / name``."""
    experiment, config, own_seeds = SETS[name]
    if isinstance(config, dict):
        doc, config = config, scratch / f"{name}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
    return ["run", "--experiment", experiment, "--config", str(config),
            *(own_seeds if seeds is None else seeds),
            "--out", str(scratch / name)]


def hashes(name: str, scratch: Path) -> dict[str, str]:
    """``{"<set>/<file>": sha256}`` for every CSV one set's run wrote
    into ``scratch``."""
    return {f"{name}/{csv.name}": hashlib.sha256(csv.read_bytes()).hexdigest()
            for csv in sorted((scratch / name).glob("*.csv"))}


def run_set(name: str, scratch: Path) -> dict[str, str]:
    """Run one set in a subprocess of this checkout's sources; hash it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tycoon_sim.cli", *cli_args(name, scratch)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return hashes(name, scratch)


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
