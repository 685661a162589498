"""The test suite's own settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_next_test_runs():
    pass
'''


def test_a_failing_property_does_not_end_the_run(tmp_path):
    # filterwarnings = ["error"] once turned a warning the hypothesis
    # plugin raises while reporting a falsified property into an
    # INTERNALERROR, and pytest ran nothing after that test.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_a_deselected_criterion_prints_no_acceptance_line():
    # The criteria were once recorded before -k deselected any, and each
    # deselected one printed "FAIL (not evaluated ...)".
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "-k", "test_criterion_1", "tests/test_acceptance.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = [line for line in run.stdout.splitlines()
             if line.startswith("ACCEPTANCE")]
    assert len(lines) == 1, run.stdout
    assert lines[0].startswith("ACCEPTANCE 1: PASS")
    assert "1 passed, 7 deselected" in run.stdout


def test_tier1_searches_draw_the_same_examples(request):
    # tier1 is the profile unless the command line names another.
    assert settings.get_current_profile_name() == (
        request.config.getoption("hypothesis_profile") or "tier1")
    runs = []

    @settings(settings.get_profile("tier1"), max_examples=30)
    @given(st.lists(st.floats(allow_nan=False)), st.integers())
    def probe(xs, n):
        runs[-1].append((xs, n))

    for _ in range(2):
        runs.append([])
        probe()
    assert len(runs[0]) == 30
    assert runs[0] == runs[1]
