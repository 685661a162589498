"""Times the program's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <src dir> <config file> <section>

Set-up is the import of ``tycoon_sim`` (every layer, through the CLI
module), the config load, ``validate_config`` and the ``build_*_config``
of the workload's block: everything before the first simulated step.
Prints one JSON line with the seconds it took and the module path.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, config_path, section = sys.argv[1:4]
    sys.path.insert(0, src)
    import tycoon_sim
    from tycoon_sim import cli  # noqa: F401  (imports every layer)
    from tycoon_sim import config as cfg

    doc = cfg.load_config(config_path)
    cfg.validate_config(doc)
    build = {"host": cfg.build_host_config,
             "market": cfg.build_market_config,
             "harness": cfg.build_harness_config}[section]
    build(doc.get(section, {}))
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "module": tycoon_sim.__file__}))


if __name__ == "__main__":
    main()
