"""Shared pytest hooks: print one summary line per acceptance criterion,
and the Hypothesis profiles the suite runs under.

``tier1``, the default, runs every property with its own example count,
bounds and strategies, derandomized: each run of the suite tries the
same examples.  ``deep`` (``--hypothesis-profile deep``) runs
``DEEP_FACTOR`` times each property's examples from a random seed, which
it prints in the header; ``--hypothesis-seed`` repeats a seed.
"""

import re
import secrets

import pytest
from hypothesis import settings

DEEP_FACTOR = 20

settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", derandomize=False, deadline=None,
                          print_blob=True)
settings.load_profile("tier1")

# criterion number -> (passed, detail), filled in by test_acceptance.py
_RESULTS: dict = {}
_COLLECTED: set = set()


def record_acceptance(criterion: int, passed: bool, detail: str) -> None:
    _RESULTS[criterion] = (passed, detail)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Ahead of the Hypothesis plugin, which forces the seed it finds.
    if (config.getoption("hypothesis_profile") == "deep"
            and config.getoption("hypothesis_seed") is None):
        config.option.hypothesis_seed = str(secrets.randbits(32))


def pytest_report_header(config):
    if config.getoption("hypothesis_profile") == "deep":
        return (f"hypothesis deep profile: {DEEP_FACTOR}x examples, "
                f"--hypothesis-seed {config.getoption('hypothesis_seed')}")
    return None


def pytest_collection_modifyitems(config, items):
    deep = config.getoption("hypothesis_profile") == "deep"
    scaled = set()
    for item in items:
        match = re.search(r"test_criterion_(\d+)", item.name)
        if match:
            _COLLECTED.add(int(match.group(1)))
        test = getattr(item, "obj", None)
        # A property's own settings are fixed when its module is imported;
        # scale each one once, however many items parametrize it.
        if deep and hasattr(test, "hypothesis") and test not in scaled:
            scaled.add(test)
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * DEEP_FACTOR)


def pytest_terminal_summary(terminalreporter):
    if not _COLLECTED:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_COLLECTED):
        if n in _RESULTS:
            passed, detail = _RESULTS[n]
            status = "PASS" if passed else "FAIL"
        else:
            status, detail = "FAIL", "not evaluated: the test errored out"
        terminalreporter.write_line(f"ACCEPTANCE {n}: {status} ({detail})")
