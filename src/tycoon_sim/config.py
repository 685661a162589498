"""Experiment configuration: JSON documents with strict key checking.

A configuration file carries one top-level block per simulation module
(``host``, ``market``, ``harness``) plus run controls (``seeds``,
``repetitions``, ``sweep``).  The experiment and the output directory
come from the command line only.  Omitted parameters fall back to the
module defaults.  Unknown keys anywhere are rejected rather than
ignored: a typo that silently falls back to a default is worse than an
error.  ``--set a.b=value`` overrides are applied on top of the file
content before validation, so they win.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum

from .errors import ConfigError
from .harness.bank import PolicyKind
from .harness.agents import ParentJob
from .harness.scenario import ScenarioConfig
from .hostsim import FundingMode, HostSimConfig, SchedulerKind, WorkloadSpec
from .market import Behavior, MarketConfig
from .sched.types import PriceMode

__all__ = [
    "Experiment",
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
_SWEEP_KEYS = ("interarrivals", "behaviors")

# Load sweep for the utility curve: interarrival means from light load
# down to well past the saturation point at 100.
DEFAULT_SWEEP_INTERARRIVALS = (140.0, 120.0, 100.0, 80.0, 60.0, 50.0, 40.0, 20.0)

#: Replicates shift every listed seed by this stride so replicate runs
#: never collide with the listed seeds themselves.
REPETITION_SEED_STRIDE = 1000


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
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _coerce_enum(cls, raw, where: str):
    if isinstance(raw, cls):
        return raw
    try:
        return cls(raw)
    except ValueError:
        choices = ", ".join(member.value for member in cls)
        raise ConfigError(f"{where} must be one of: {choices}") from None


def _field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def _build(cls, kwargs: dict, where: str):
    # Wrong-typed values surface as TypeError deep inside validate();
    # report them as the config problem they are.
    try:
        built = cls(**kwargs)
        built.validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where} parameters: {exc}") from exc
    return built


def build_host_config(block: dict, seed: int | None = None) -> HostSimConfig:
    _check_keys(block, _field_names(HostSimConfig), "host")
    kwargs = dict(block)
    if "web" in kwargs:
        web = dict(kwargs["web"]) if isinstance(kwargs["web"], dict) else None
        if web is None:
            raise ConfigError("host.web must be a JSON object")
        _check_keys(web, _field_names(WorkloadSpec), "host.web")
        kwargs["web"] = WorkloadSpec(**web)
    if "weights" in kwargs:
        kwargs["weights"] = tuple(kwargs["weights"])
    for name, cls in (("scheduler", SchedulerKind),
                      ("funding_mode", FundingMode),
                      ("price_mode", PriceMode)):
        if name in kwargs:
            kwargs[name] = _coerce_enum(cls, kwargs[name], f"host.{name}")
    if seed is not None:
        kwargs["rng_seed"] = seed
    return _build(HostSimConfig, kwargs, "host")


def build_market_config(block: dict, seed: int | None = None) -> MarketConfig:
    _check_keys(block, _field_names(MarketConfig), "market")
    kwargs = dict(block)
    if "behavior" in kwargs:
        kwargs["behavior"] = _coerce_enum(Behavior, kwargs["behavior"],
                                          "market.behavior")
    if seed is not None:
        kwargs["rng_seed"] = seed
    return _build(MarketConfig, kwargs, "market")


def build_harness_config(block: dict, seed: int | None = None) -> ScenarioConfig:
    _check_keys(block, _field_names(ScenarioConfig), "harness")
    kwargs = dict(block)
    if "parents" in kwargs:
        parents = []
        for i, spec in enumerate(kwargs["parents"]):
            where = f"harness.parents[{i}]"
            _check_keys(spec, _field_names(ParentJob), where)
            parents.append(ParentJob(**spec))
        kwargs["parents"] = tuple(parents)
    if "host_speeds" in kwargs:
        kwargs["host_speeds"] = tuple(kwargs["host_speeds"])
    if "kill_hosts" in kwargs:
        kills = []
        for entry in kwargs["kill_hosts"]:
            if len(entry) != 2:
                raise ConfigError(
                    "harness.kill_hosts entries are [time, host_index] pairs")
            kills.append((float(entry[0]), int(entry[1])))
        kwargs["kill_hosts"] = tuple(kills)
    for name, cls in (("policy_kind", PolicyKind), ("price_mode", PriceMode)):
        if name in kwargs:
            kwargs[name] = _coerce_enum(cls, kwargs[name], f"harness.{name}")
    if seed is not None:
        kwargs["rng_seed"] = seed
    return _build(ScenarioConfig, kwargs, "harness")


def sweep_points(doc: dict) -> tuple[list[float], list[Behavior]]:
    """The (interarrival values, behaviors) grid a utility sweep covers."""
    block = doc.get("sweep", {})
    _check_keys(block, _SWEEP_KEYS, "sweep")
    values = [float(v) for v in block.get("interarrivals",
                                          DEFAULT_SWEEP_INTERARRIVALS)]
    if not values or any(v <= 0 for v in values):
        raise ConfigError("sweep.interarrivals must be positive")
    behaviors = [_coerce_enum(Behavior, b, "sweep.behaviors")
                 for b in block.get("behaviors",
                                    [m.value for m in Behavior])]
    if not behaviors:
        raise ConfigError("sweep.behaviors must not be empty")
    return values, behaviors


def default_seeds(experiment: Experiment) -> list[int]:
    """Statistical runs default to seeds 1..30; single-scenario
    experiments default to the smoke seed 42."""
    if experiment in (Experiment.TABLE1, Experiment.FIGURE1):
        return list(range(1, 31))
    return [42]


def effective_seeds(seeds: list[int], repetitions: int) -> list[int]:
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
    seeds = doc.get("seeds", [])
    if (not isinstance(seeds, list)
            or any(not isinstance(s, int) or isinstance(s, bool) for s in seeds)):
        raise ConfigError("seeds must be a list of integers")
    reps = doc.get("repetitions", 1)
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        raise ConfigError("repetitions must be an integer >= 1")
    build_host_config(doc.get("host", {}))
    build_market_config(doc.get("market", {}))
    build_harness_config(doc.get("harness", {}))
    sweep_points(doc)


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
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
        "sweep": {
            "interarrivals": sweep_points(doc)[0],
            "behaviors": [b.value for b in sweep_points(doc)[1]],
        },
    }
