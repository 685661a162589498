"""Print, per ``src/`` module, the executable lines no CLI experiment reaches.

    python3 scripts/reach.py

Every set that ``scripts/csv_digests.py`` pins is run once more, at its
first seed (two for ``table1-default``), through ``tycoon_sim.cli.main``
in this process under the standard library's ``trace``.  ``tycoon_sim``
is first imported inside the traced call, so module-level lines
(imports, constants, ``def`` and ``class`` statements) count as
reached.  A line that only tests reach is evidence for a deletion, or
for a reason to keep it.

The report lists each module under ``src/`` with its unreached lines as
ranges, then a total.  The runs are seeded, so two runs print the same
report.  10 to 14 s on a 2-core machine.  It is not part of the test
suite.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import trace
from pathlib import Path

from csv_digests import ROOT, SETS, cli_args

SRC = ROOT / "src"


class SrcOnly:
    """A filter for ``trace.Trace`` that follows only files under ``src/``.
    ``trace``'s own filter caches its verdict by module base name, so the
    first ignored ``__init__.py`` would hide every package's."""

    @staticmethod
    def names(filename: str, modulename: str) -> bool:
        return not filename.startswith(f"{SRC}{os.sep}")


def few_seeds(name: str) -> list[str]:
    """A set's ``--seeds A..B`` cut to ``A..A``, or to ``A..A+1`` for
    ``table1-default``, whose rows then take a spread over two seeds.
    A second seed of any other set reaches no further line, and one of
    ``figure1`` or ``cluster-lossy`` costs about 2 s under ``trace``."""
    seeds = SETS[name][2]
    if seeds[:1] != ["--seeds"]:
        return seeds
    first = int(seeds[1].partition("..")[0])
    last = first + 1 if name == "table1-default" else first
    return ["--seeds", f"{first}..{last}"]


def run_experiments(scratch: Path) -> None:
    """Run every pinned set at ``few_seeds``; raise if one fails."""
    from tycoon_sim import cli

    for name in SETS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_args(name, scratch, few_seeds(name)))
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that start a bytecode instruction."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts
                     if hasattr(const, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    sys.path.insert(0, str(SRC))
    if "tycoon_sim" in sys.modules:
        raise SystemExit("tycoon_sim was imported before tracing")
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = SrcOnly()
    with tempfile.TemporaryDirectory() as scratch:
        tracer.runfunc(run_experiments, Path(scratch))
    reached: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        reached.setdefault(filename, set()).add(line)

    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        missed += len(unreached)
        name = path.relative_to(ROOT).as_posix()
        if unreached:
            print(f"{name}: {len(unreached)} of {len(lines)} unreached: "
                  f"{ranges(unreached)}")
        else:
            print(f"{name}: all {len(lines)} reached")
    print(f"{missed} of {total} executable lines unreached, "
          f"{len(SETS)} experiments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
