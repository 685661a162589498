"""Experiment configuration: JSON documents with strict key checking.

A configuration file carries one top-level block per simulation module
(``host``, ``market``, ``harness``) plus run controls (``seeds``,
``repetitions``, ``sweep``).  The experiment and the output directory
come from the command line only, and seeds only from ``seeds``,
``--seed`` or ``--seeds``.  Omitted parameters fall back to the module
defaults.  Unknown keys anywhere are rejected rather than ignored: a
typo that silently falls back to a default is worse than an error.

Each block is checked against the type hints of the dataclass it
builds, then against that dataclass's ``validate()``.  Counts are JSON
integers (``2.5`` and ``1e3`` are rejected), flags are ``true`` or
``false``, and float fields accept integers, stored as floats so ``60``
and ``60.0`` hash alike.  ``--set a.b=value`` overrides are applied on
top of the file content before validation, so they win.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from enum import Enum

from .errors import ConfigError, TycoonError
from .harness.scenario import ScenarioConfig
from .hostsim import HostSimConfig
from .market import MAX_EXPECTED_TASKS, Behavior, MarketConfig

__all__ = [
    "Experiment",
    "SweepConfig",
    "apply_overrides",
    "build_harness_config",
    "build_host_config",
    "build_market_config",
    "default_seeds",
    "effective_seeds",
    "load_config",
    "resolved_config",
    "sweep_points",
    "validate_config",
]


class Experiment(Enum):
    HOST = "host"
    MARKET = "market"
    HARNESS = "harness"
    TABLE1 = "table1"
    FIGURE1 = "figure1"


_TOP_KEYS = ("seeds", "repetitions", "host", "market", "harness", "sweep")

# Load sweep for the utility curve: interarrival means from light load
# down to well past the saturation point at 100.
DEFAULT_SWEEP_INTERARRIVALS = (140.0, 120.0, 100.0, 80.0, 60.0, 50.0, 40.0, 20.0)

#: Replicates shift every listed seed by this stride; a seed list whose
#: replicates would meet another listed seed is rejected.
REPETITION_SEED_STRIDE = 1000


@dataclasses.dataclass
class SweepConfig:
    """The grid a utility sweep covers: every behavior at every load."""

    interarrivals: tuple[float, ...] = DEFAULT_SWEEP_INTERARRIVALS
    behaviors: tuple[Behavior, ...] = tuple(Behavior)

    def validate(self) -> None:
        if not self.interarrivals or not all(
                0 < x < math.inf for x in self.interarrivals):
            raise ConfigError(
                "interarrivals: need at least one, all > 0 and finite")
        if not self.behaviors:
            raise ConfigError("behaviors: must not be empty")


def load_config(path) -> dict:
    """Read a JSON configuration document.  Content is not validated
    here; call :func:`validate_config` after applying overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply ``section.key=value`` assignments on top of a document.

    Values are parsed as JSON when possible (numbers, booleans, lists)
    and kept as strings otherwise, so ``--set host.weights=[1,2,3,4]``
    and ``--set host.scheduler=auction_share`` both read naturally.
    """
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends into a non-object")
            target = node
        target[parts[-1]] = value
    return doc


def _check_keys(block: dict, allowed, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"invalid {where}: must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


_hints = functools.cache(typing.get_type_hints)
_JSON_TYPES = {int: "integer", float: "number", bool: "boolean"}
_FLOAT_MAX = sys.float_info.max  # also rejects NaN and infinities


def _fields(cls, block, where: str) -> dict:
    """Constructor arguments for ``cls``, each checked and converted.
    No block sets ``rng_seed``: seeds come only from the run's seed list."""
    hints = _hints(cls)
    _check_keys(block, hints.keys() - {"rng_seed"}, where)
    return {key: _value(hints[key], raw, f"{where}.{key}")
            for key, raw in block.items()}


def _value(hint, raw, where: str):
    if dataclasses.is_dataclass(hint):
        return hint(**_fields(hint, raw, where))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        fixed = args[-1] is not Ellipsis
        if not isinstance(raw, (list, tuple)) or fixed and len(raw) != len(args):
            size = f" of {len(args)}" if fixed else ""
            raise ConfigError(f"invalid {where}: must be a JSON array{size}")
        items = args if fixed else args[:1] * len(raw)
        return tuple(_value(item, v, f"{where}[{i}]")
                     for i, (item, v) in enumerate(zip(items, raw)))
    if issubclass(hint, Enum):
        try:
            return hint(raw)
        except ValueError:
            choices = ", ".join(member.value for member in hint)
            raise ConfigError(
                f"invalid {where}: must be one of: {choices}") from None
    # bool is a subclass of int, so compare exact types.
    if type(raw) is hint and hint in (int, bool):
        return raw
    if hint is float and type(raw) in (int, float) and abs(raw) <= _FLOAT_MAX:
        return float(raw)
    raise ConfigError(f"invalid {where}: must be a JSON {_JSON_TYPES[hint]}")


def _build(cls, block, where: str, seed: int | None = None):
    kwargs = _fields(cls, block, where)
    if seed is not None:
        kwargs["rng_seed"] = seed
    built = cls(**kwargs)
    try:
        # validate() messages start with the field they name.
        built.validate()
    except TycoonError as exc:
        raise ConfigError(f"invalid {where}.{exc}") from None
    return built


def build_host_config(block: dict, seed: int | None = None) -> HostSimConfig:
    return _build(HostSimConfig, block, "host", seed)


def build_market_config(block: dict, seed: int | None = None) -> MarketConfig:
    return _build(MarketConfig, block, "market", seed)


def build_harness_config(block: dict, seed: int | None = None) -> ScenarioConfig:
    return _build(ScenarioConfig, block, "harness", seed)


def sweep_points(doc: dict) -> tuple[list[float], list[Behavior]]:
    """The (interarrival values, behaviors) grid a utility sweep covers."""
    sweep = _build(SweepConfig, doc.get("sweep", {}), "sweep")
    return list(sweep.interarrivals), list(sweep.behaviors)


def default_seeds(experiment: Experiment) -> list[int]:
    """Statistical runs default to seeds 1..30; single-scenario
    experiments default to the smoke seed 42."""
    if experiment in (Experiment.TABLE1, Experiment.FIGURE1):
        return list(range(1, 31))
    return [42]


def _check_distinct_seeds(seeds, repetitions: int) -> None:
    """Raise ConfigError if a seed would run twice: its rows would repeat
    and count twice in every mean.

    Replicate ``r`` of seed ``a`` is ``a + r * REPETITION_SEED_STRIDE``,
    so two listed seeds meet when they lie fewer than ``repetitions``
    whole strides apart.
    """
    stride = REPETITION_SEED_STRIDE
    below = {}  # seed % stride -> the largest listed seed so far with it
    for seed, i in sorted((seed, i) for i, seed in enumerate(seeds)):
        lower = below.get(seed % stride)
        if lower == seed:
            raise ConfigError(f"invalid seeds[{i}]: seed {seed} is listed "
                              "twice")
        if lower is not None and seed - lower < repetitions * stride:
            raise ConfigError(
                f"invalid repetitions: replicate {(seed - lower) // stride} "
                f"of seed {lower} is seed {seed}, which is listed too")
        below[seed % stride] = seed


def effective_seeds(seeds: list[int], repetitions: int) -> list[int]:
    """The listed seeds, then each replicate's; a seed that would run
    twice raises ConfigError."""
    _check_distinct_seeds(seeds, repetitions)
    out = []
    for rep in range(repetitions):
        out.extend(s + rep * REPETITION_SEED_STRIDE for s in seeds)
    return out


def validate_config(doc: dict) -> None:
    """Reject unknown keys and invalid parameter values everywhere.

    All module blocks are checked regardless of the selected experiment
    so a config stays valid when reused across experiments.
    """
    _check_keys(doc, _TOP_KEYS, "config")
    seeds = _value(tuple[int, ...], doc.get("seeds", []), "seeds")
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise ConfigError(f"invalid seeds[{i}]: must be >= 0")
    repetitions = _value(int, doc.get("repetitions", 1), "repetitions")
    if repetitions < 1:
        raise ConfigError("invalid repetitions: must be >= 1")
    _check_distinct_seeds(seeds, repetitions)
    build_host_config(doc.get("host", {}))
    market = build_market_config(doc.get("market", {}))
    build_harness_config(doc.get("harness", {}))
    interarrivals, _ = sweep_points(doc)
    # A sweep point runs the market block at its own interarrival.
    for i, interarrival in enumerate(interarrivals):
        if market.draws_too_many(interarrival):
            raise ConfigError(
                f"invalid sweep.interarrivals[{i}]: more than "
                f"{MAX_EXPECTED_TASKS} expected tasks with the market block "
                "(num_users * duration / interarrival)")


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def resolved_config(doc: dict, experiment: Experiment,
                    seeds: list[int], repetitions: int) -> dict:
    """The fully resolved configuration a run's config hash covers.

    Defaults are filled in by building every module config, so two
    documents that spell the same experiment differently hash alike.
    The output directory is deliberately excluded: where results land
    does not change what they are.
    """
    return {
        "experiment": experiment.value,
        "seeds": list(seeds),
        "repetitions": repetitions,
        "host": _plain(build_host_config(doc.get("host", {}))),
        "market": _plain(build_market_config(doc.get("market", {}))),
        "harness": _plain(build_harness_config(doc.get("harness", {}))),
        "sweep": _plain(_build(SweepConfig, doc.get("sweep", {}), "sweep")),
    }
