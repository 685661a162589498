"""Output tables, configuration documents, and the command line."""

import csv
import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest
from csv_digests import SETS, cli_args, hashes, read_digests

from tycoon_sim import cli
from tycoon_sim.config import (
    MAX_SEEDS,
    Experiment,
    SweepConfig,
    apply_overrides,
    build_harness_config,
    build_host_config,
    build_market_config,
    default_seeds,
    effective_seeds,
    load_config,
    resolved_config,
    sweep_points,
    validate_config,
)
from tycoon_sim.csvio import config_hash, emit_csv, format_field
from tycoon_sim.errors import ConfigError, TycoonError
from tycoon_sim.harness import scenario
from tycoon_sim.harness.agents import ParentJob
from tycoon_sim.harness.scenario import ScenarioConfig
from tycoon_sim import hostsim
from tycoon_sim.hostsim import (MAX_TIMESLICES, FundingMode, HostSimConfig,
                                SchedulerKind, WorkloadSpec)
from tycoon_sim.market import Behavior, MarketConfig


# -- csv emission -----------------------------------------------------------


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    """Parse back an emitted table: (config hash, header, string rows).

    Comment lines other than the config hash are skipped.  Values come
    back as the printed strings; callers reparse numerics themselves.
    """
    digest = ""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = []
        for line in fh:
            if line.startswith("# "):
                if line.startswith("# config-hash: "):
                    digest = line[len("# config-hash: "):].strip()
                continue
            lines.append(line)
    parsed = list(csv.reader(lines))
    if not parsed:
        raise ValueError(f"{path} has no header row")
    return digest, parsed[0], parsed[1:]


def test_config_hash_ignores_key_order():
    assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_field_formatting():
    assert format_field(0.123456789) == "0.123457"
    assert format_field(1234567.0) == "1.23457e+06"
    assert format_field(True) == "true"
    assert format_field(False) == "false"
    assert format_field(None) == ""
    assert format_field("host:0") == "host:0"
    assert format_field(42) == "42"


def test_emit_and_read_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    config = {"x": 1}
    emit_csv(path, ["name", "value", "flag"],
             [["a", 0.5, True], ["b,c", 1 / 3, False]], config)
    digest, header, rows = read_csv(path)
    assert digest == config_hash(config)
    assert header == ["name", "value", "flag"]
    assert rows == [["a", "0.5", "true"], ["b,c", "0.333333", "false"]]
    # Values reparse to the printed precision.
    assert float(rows[1][1]) == pytest.approx(1 / 3, abs=1e-6)


def test_empty_rows_leave_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(path, ["a", "b"], [], {"k": 1})
    text = path.read_text()
    assert text.splitlines()[1] == "a,b"
    assert len(text.splitlines()) == 2


def test_row_width_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_csv(tmp_path / "bad.csv", ["a", "b"], [[1]], {})


def test_extra_comment_lines(tmp_path):
    path = tmp_path / "c.csv"
    emit_csv(path, ["a"], [[1]], {}, comments=("audit: ok",))
    assert "# audit: ok\n" in path.read_text()
    _, header, rows = read_csv(path)
    assert (header, rows) == (["a"], [["1"]])


# -- configuration ------------------------------------------------------------


def write_json(tmp_path, doc, name="conf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config(lst)


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="typo_key"):
        validate_config({"typo_key": 1})
    with pytest.raises(ConfigError, match="host"):
        validate_config({"host": {"nope": 1}})
    with pytest.raises(ConfigError, match="host.web: kind"):
        validate_config({"host": {"web": {"kind": "web_server"}}})
    with pytest.raises(ConfigError, match="market"):
        validate_config({"market": {"nope": 1}})
    with pytest.raises(ConfigError, match="market: spread_across_hosts"):
        validate_config({"market": {"spread_across_hosts": False}})
    with pytest.raises(ConfigError, match="harness"):
        validate_config({"harness": {"nope": 1}})
    with pytest.raises(ConfigError, match="sweep"):
        validate_config({"sweep": {"nope": []}})
    # The experiment and output directory come from the command line only.
    with pytest.raises(ConfigError, match="config: experiment"):
        validate_config({"experiment": "figure1"})
    with pytest.raises(ConfigError, match="config: out"):
        validate_config({"out": "/x"})
    validate_config({})  # all defaults are a valid document


def test_run_control_validation():
    with pytest.raises(ConfigError):
        validate_config({"seeds": [1, "x"]})
    with pytest.raises(ConfigError):
        validate_config({"repetitions": 0})


def test_overrides_parse_json_with_string_fallback():
    doc = {"host": {}}
    apply_overrides(doc, ["host.num_timeslices=500",
                          "host.weights=[1,2]",
                          "host.scheduler=auction_share",
                          "out=results/x"])
    assert doc["host"]["num_timeslices"] == 500
    assert doc["host"]["weights"] == [1, 2]
    assert doc["host"]["scheduler"] == "auction_share"
    assert doc["out"] == "results/x"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])


def test_enum_coercion_and_diagnostics():
    cfg = build_host_config({"scheduler": "auction_share",
                             "funding_mode": "poisson",
                             "web": {"yields_cpu": False}})
    assert cfg.scheduler is SchedulerKind.AUCTION_SHARE
    assert cfg.funding_mode is FundingMode.POISSON
    assert not cfg.web.yields_cpu
    with pytest.raises(ConfigError, match="proportional_share"):
        build_host_config({"scheduler": "fifo"})


def test_build_configs_apply_seed():
    assert build_host_config({}, seed=9).rng_seed == 9
    assert build_market_config({}, seed=9).rng_seed == 9
    assert build_harness_config({}, seed=9).rng_seed == 9


def test_blocks_reject_rng_seed():
    # The run's seed list always overwrites it, so a block's own seed
    # would be accepted and then ignored.
    for build in (build_host_config, build_market_config,
                  build_harness_config):
        with pytest.raises(ConfigError, match="rng_seed"):
            build({"rng_seed": 7})


def test_harness_block_coercions():
    cfg = build_harness_config({
        "parents": [{"total_credits": 2.0, "deadline_minutes": 1.0,
                     "num_hosts": 1}],
        "host_speeds": [1.0, 0.5],
        "kill_hosts": [[10.0, 1]],
        "policy_kind": "open_loop",
    })
    assert cfg.parents[0].num_hosts == 1
    assert cfg.host_speeds == (1.0, 0.5)
    assert cfg.kill_hosts == ((10.0, 1),)
    with pytest.raises(ConfigError):
        build_harness_config({"kill_hosts": [[10.0]]})
    with pytest.raises(ConfigError):
        build_harness_config({"parents": [{"bogus": 1}]})


def test_kill_hosts_must_name_an_existing_host(tmp_path, capsys):
    for index in (99, -1):
        with pytest.raises(ConfigError, match="kill_hosts index"):
            validate_config({"harness": {"num_hosts": 3,
                                         "kill_hosts": [[1.0, index]]}})
    validate_config({"harness": {"num_hosts": 3, "kill_hosts": [[1.0, 2]]}})
    conf = write_json(tmp_path, {"harness": {"num_hosts": 3,
                                             "kill_hosts": [[1.0, 99]]}})
    assert cli.main(["run", "--experiment", "harness", "--config", conf,
                     "--out", str(tmp_path / "out")]) == 2
    assert "kill_hosts index 99" in capsys.readouterr().err


def test_readme_config_example_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    validate_config(json.loads(example))


def test_wrong_typed_value_is_a_config_error():
    with pytest.raises(ConfigError, match="invalid host"):
        build_host_config({"num_timeslices": "many"})


def test_sweep_points_defaults_and_validation():
    values, behaviors = sweep_points({})
    assert len(values) == 8
    assert set(behaviors) == set(Behavior)
    values, behaviors = sweep_points(
        {"sweep": {"interarrivals": [50], "behaviors": ["obedient"]}})
    assert values == [50.0]
    assert behaviors == [Behavior.OBEDIENT]
    with pytest.raises(ConfigError):
        sweep_points({"sweep": {"interarrivals": [-1]}})
    with pytest.raises(ConfigError):
        sweep_points({"sweep": {"behaviors": []}})


def test_seed_defaults_and_repetitions():
    assert default_seeds(Experiment.TABLE1) == list(range(1, 31))
    assert default_seeds(Experiment.HOST) == [42]
    assert effective_seeds([1, 2], 1) == [1, 2]
    assert effective_seeds([1, 2], 3) == [1, 2, 1001, 1002, 2001, 2002]
    assert effective_seeds([5, 999, 1998], 2) == [5, 999, 1998,
                                                 1005, 1999, 2998]
    assert effective_seeds([7, 2007], 2) == [7, 2007, 1007, 3007]
    assert effective_seeds([1, 1001], 1) == [1, 1001]
    with pytest.raises(ConfigError, match="repetitions"):
        effective_seeds([1, 2, 2001], 3)
    with pytest.raises(ConfigError, match=re.escape("seeds[2]")):
        effective_seeds([4, 5, 4], 1)
    assert len(effective_seeds([7], MAX_SEEDS)) == MAX_SEEDS
    with pytest.raises(ConfigError, match="repetitions"):
        effective_seeds([7, 8], MAX_SEEDS // 2 + 1)


# Seed lists whose effective seeds repeat: the repeated seed's rows were
# written twice and counted twice in every mean.
REPEATED_SEEDS = [
    ("repetitions",
     {"seeds": [1, 1001], "repetitions": 2, "host": {"num_timeslices": 300}},
     []),
    ("seeds[1]", {"seeds": [3, 3]}, []),
    ("repetitions", {"repetitions": 2, "host": {"num_timeslices": 300}},
     ["--seeds", "1..1500"]),
]


@pytest.mark.parametrize("field,doc,flags", REPEATED_SEEDS,
                         ids=[f"{field}-{i}" for i, (field, _, _)
                              in enumerate(REPEATED_SEEDS)])
def test_repeated_effective_seeds_exit_2_naming_the_field(tmp_path, capsys,
                                                           field, doc, flags):
    assert_exit_2_naming(tmp_path, capsys, field, doc, flags)


def assert_exit_2_naming(tmp_path, capsys, field, doc, flags, says=""):
    """`validate` and `run` exit 2, naming ``field`` and saying ``says``,
    and write nothing."""
    conf = write_json(tmp_path, doc)
    out = tmp_path / "out"
    commands = [["run", "--experiment", "host", "--config", conf,
                 "--out", str(out), *flags]]
    if not flags:
        # The --seeds range is the command line's, so validate has no
        # effective seed list to check.
        commands.append(["validate", "--config", conf])
    for command in commands:
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert field in err and says in err
    assert not out.exists()


# An unbounded seed count passed `validate`, and `run` then ran out of
# memory building the seed list.  Each case asks for one seed more than
# the bound.
TOO_MANY_SEEDS = [
    ("repetitions", {"repetitions": MAX_SEEDS + 1}, []),
    ("repetitions", {"seeds": [1, 2], "repetitions": MAX_SEEDS // 2 + 1},
     []),
    ("repetitions", {"repetitions": MAX_SEEDS // 1000 + 1},
     ["--seeds", "1..1000"]),
    ("--seeds", {}, ["--seeds", f"0..{MAX_SEEDS}"]),
    ("invalid seeds", {"seeds": list(range(MAX_SEEDS + 1))}, []),
]


@pytest.mark.parametrize("field,doc,flags", TOO_MANY_SEEDS,
                         ids=[f"{field}-{i}" for i, (field, _, _)
                              in enumerate(TOO_MANY_SEEDS)])
def test_too_many_effective_seeds_exit_2_naming_the_field(
        tmp_path, capsys, monkeypatch, field, doc, flags):
    def must_not_run(config):
        raise AssertionError(f"seed {config.rng_seed} ran")

    monkeypatch.setattr(cli, "run_host_sim", must_not_run)
    assert_exit_2_naming(tmp_path, capsys, field, doc, flags,
                         says=f"more than {MAX_SEEDS}")


# An unbounded slice count passed `validate`; `run` then set out to
# allocate about 7 TiB of draws for 10^12 slices.  Neither is ever run.
@pytest.mark.parametrize("slices", [MAX_TIMESLICES + 1, 10**12])
def test_too_many_host_slices_exit_2_naming_the_field(
        tmp_path, capsys, monkeypatch, slices):
    def must_not_run(config):
        raise AssertionError(f"{config.num_timeslices} slices ran")

    monkeypatch.setattr(cli, "run_host_sim", must_not_run)
    assert_exit_2_naming(tmp_path, capsys, "host.num_timeslices",
                         {"host": {"num_timeslices": slices}}, [],
                         says=f"more than {MAX_TIMESLICES}")
    # The bound itself is a valid run length.
    conf = write_json(tmp_path, {"host": {"num_timeslices": MAX_TIMESLICES}},
                      "longest.json")
    assert cli.main(["validate", "--config", conf]) == 0


# Each passed `validate`.  A one-second Poisson clock against 1e300 s
# slices set out to draw about 1e303 gaps; an infinite start balance ran
# and served no request; infinite income failed mid-run with "cannot
# deposit inf", naming no field.  None of them is ever run.
HOST_FUNDING = [
    ("host.funding_mean_interval",
     {"funding_mode": "poisson", "timeslice_length": 1e300,
      "num_timeslices": 1000},
     "mean gap < timeslice_length"),
    ("host.initial_funding_intervals",
     {"initial_funding_intervals": 1e308, "weights": [100, 100],
      "num_timeslices": 3000}, "overflows"),
    ("host.weights",
     {"funding_mode": "poisson", "weights": [1e308, 1e308]}, "overflows"),
]


@pytest.mark.parametrize("field,block,says", HOST_FUNDING,
                         ids=[field for field, _, _ in HOST_FUNDING])
def test_host_funding_out_of_bounds_exits_2_naming_the_field(
        tmp_path, capsys, monkeypatch, field, block, says):
    def must_not_run(config):
        raise AssertionError("the host run started")

    monkeypatch.setattr(cli, "run_host_sim", must_not_run)
    assert_exit_2_naming(
        tmp_path, capsys, field,
        {"host": {"scheduler": "auction_share", **block}}, [], says=says)


@pytest.mark.parametrize("conf", [
    *sorted((Path(__file__).resolve().parents[1] / "perfbench"
             / "configs").glob("*.json")), None], ids=str)
def test_bench_configs_and_defaults_validate(tmp_path, conf):
    conf = str(conf) if conf else write_json(tmp_path, {})
    assert cli.main(["validate", "--config", conf]) == 0


def test_stride_block_runs_with_weights_the_auction_would_reject(
        tmp_path, capsys):
    # A stride run reads no funding field, and table1's rows set their
    # own weights, so a weight the auction's deposit bound rejects is
    # harmless here.
    block = {"scheduler": "proportional_share", "weights": [1000, 1]}
    conf = write_json(tmp_path, {"host": block})
    assert cli.main(["validate", "--config", conf]) == 0
    out = str(tmp_path / "stride")
    for experiment in ("host", "table1"):
        assert cli.main(["run", "--experiment", experiment, "--config", conf,
                         "--seed", "1", "--out", out]) == 0
    capsys.readouterr()
    assert_exit_2_naming(
        tmp_path, capsys, "host.funding_mean_interval",
        {"host": {**block, "scheduler": "auction_share"}}, [],
        says="interval / largest weight < timeslice_length")


def test_table1_auction_rows_hold_a_stride_block_to_the_funding_bounds(
        tmp_path, capsys):
    # The block is a valid stride run, but table1 builds auction rows
    # from it: weight 4 would be topped up every 1.25 ms.
    block = {"funding_mean_interval": 0.005}
    stride = SchedulerKind.PROPORTIONAL_SHARE
    assert build_host_config(block).scheduler is stride
    assert_exit_2_naming(tmp_path, capsys, "host.funding_mean_interval",
                         {"host": block}, [],
                         says="(table1 row as-1/10-yield)")


def test_resolved_config_is_stable_and_holds_what_the_run_reads():
    def blocks(experiment):
        return set(resolved_config({}, experiment, [42], 1)) - {
            "experiment", "seeds", "repetitions"}

    assert {e: blocks(e) for e in Experiment} == {
        Experiment.HOST: {"host"}, Experiment.TABLE1: {"table1"},
        Experiment.MARKET: {"market"}, Experiment.HARNESS: {"harness"},
        Experiment.FIGURE1: {"market", "sweep"}}
    resolved = resolved_config({}, Experiment.HOST, [42], 1)
    assert resolved["host"]["scheduler"] == "proportional_share"
    # The seed list names the seeds; no block's default seed is hashed.
    assert "rng_seed" not in resolved["host"]
    rows = resolved_config({}, Experiment.TABLE1, [42], 1)["table1"]
    assert list(rows) == [label for label, _ in hostsim.comparison_rows()]
    assert rows["as-1/10-noyield"]["scheduler"] == "auction_share"
    assert rows["ps-7/10-yield"]["weights"] == [21, 2, 3, 4]
    market = resolved_config({}, Experiment.FIGURE1, [42], 1)["market"]
    assert market["num_users"] == 100
    assert not {"behavior", "mean_task_interarrival", "rng_seed"} & set(market)
    # Spelling a default explicitly must not change the hash.
    spelled = resolved_config({"host": {"num_timeslices": 1000}},
                              Experiment.HOST, [42], 1)
    assert config_hash(spelled) == config_hash(resolved)
    # An integer spelling of a float field is stored as that float.
    harness = resolved_config({}, Experiment.HARNESS, [42], 1)
    integral = resolved_config({"harness": {"duration": 60}},
                               Experiment.HARNESS, [42], 1)
    assert config_hash(integral) == config_hash(harness)


# -- command line ---------------------------------------------------------------


def smoke_doc():
    return {
        "host": {"num_timeslices": 200, "warmup_slices": 40},
        "market": {"num_users": 10, "num_hosts": 2, "duration": 60},
        "harness": {"num_hosts": 1, "duration": 5.0,
                    "parents": [{"total_credits": 1.0,
                                 "deadline_minutes": 1.0, "num_hosts": 1}]},
        "sweep": {"interarrivals": [60], "behaviors": ["obedient"]},
    }


# (experiment, one edited field, whether the experiment reads it).  Until
# the hash covered only what a run reads, every edit in every block moved
# every experiment's hash line.
HASH_EDITS = [
    ("table1", {"market": {"num_users": 11}}, False),
    ("harness", {"market": {"num_users": 11}}, False),
    ("host", {"harness": {"duration": 4.0}}, False),
    ("market", {"sweep": {"interarrivals": [50]}}, False),
    # table1's rows set the scheduler, weights and yield hint themselves.
    ("table1", {"host": {"weights": [1, 1]}}, False),
    ("table1", {"host": {"scheduler": "auction_share"}}, False),
    ("table1", {"host": {"web": {"yields_cpu": False}}}, False),
    # Every sweep point sets its own behavior and interarrival.
    ("figure1", {"market": {"behavior": "strategic_market"}}, False),
    ("figure1", {"market": {"mean_task_interarrival": 50}}, False),
    ("host", {"host": {"weights": [1, 1]}}, True),
    ("table1", {"host": {"num_timeslices": 150}}, True),
    ("figure1", {"sweep": {"interarrivals": [50]}}, True),
    ("figure1", {"market": {"num_users": 11}}, True),
    ("market", {"market": {"behavior": "strategic_market"}}, True),
    ("harness", {"harness": {"duration": 4.0}}, True),
]


@pytest.mark.parametrize("experiment,edit,reads", HASH_EDITS,
                         ids=[f"{e}-{json.dumps(edit)}"
                              for e, edit, _ in HASH_EDITS])
def test_hash_line_moves_only_for_a_field_the_run_reads(tmp_path, experiment,
                                                        edit, reads):
    (block, values), = edit.items()
    edited = smoke_doc()
    edited[block] = {**edited[block], **values}
    digests = []
    for name, doc in (("base", smoke_doc()), ("edited", edited)):
        conf = write_json(tmp_path, doc, f"{name}.json")
        out = tmp_path / name
        assert cli.main(["run", "--experiment", experiment, "--config", conf,
                         "--seed", "1", "--out", str(out)]) == 0
        digests.append({path.name: read_csv(path)[0]
                        for path in sorted(out.glob("*.csv"))})
    assert (digests[0] != digests[1]) == reads


# (dotted field, document fragment) pairs that `validate` once crashed
# on, or passed while `run` then failed or ran them as something else.
BAD_DOCUMENTS = [
    ("harness.kill_hosts[0][1]", {"harness": {"kill_hosts": [[1, "x"]]}}),
    ("harness.kill_hosts[0]", {"harness": {"kill_hosts": [5]}}),
    ("host.weights", {"host": {"weights": 5}}),
    ("sweep.interarrivals[0]", {"sweep": {"interarrivals": ["a"]}}),
    ("harness.parents[0].num_hosts",
     {"harness": {"parents": [{"num_hosts": 0}]}}),
    ("harness.parents[0].total_credits",
     {"harness": {"parents": [{"total_credits": -4}]}}),
    ("harness.parents[0].deadline_minutes: must be > 0",
     {"harness": {"parents": [{"deadline_minutes": 0}]}}),
    ("harness.message_latency", {"harness": {"message_latency": -1}}),
    ("harness.drop_probability", {"harness": {"drop_probability": 2}}),
    ("harness.sls_ttl", {"harness": {"sls_ttl": 0}}),
    # These two also name the bound, which keeps their ids apart from the
    # wrong-typed probes of the same fields.
    ("harness.report_timeout: must be > 0",
     {"harness": {"report_timeout": -1}}),
    ("harness.migration_overhead: must be >= 0",
     {"harness": {"migration_overhead": -2}}),
    ("market.num_users", {"market": {"num_users": 2.5}}),
    ("host.num_timeslices", {"host": {"num_timeslices": 1e3}}),
    ("host.web.yields_cpu", {"host": {"web": {"yields_cpu": "no"}}}),
    ("harness.audit_every_slice", {"harness": {"audit_every_slice": "yes"}}),
    ("market.num_hosts", {"market": {"num_hosts": 1.5}}),
    ("harness.host_speeds[0]", {"harness": {"host_speeds": [0, -1]}}),
    ("harness.host_speeds", {"harness": {"host_speeds": [1, 1]}}),
    ("harness.monitor_interval", {"harness": {"monitor_interval": 0}}),
    ("harness.funding_chunk_minutes",
     {"harness": {"funding_chunk_minutes": 0}}),
    ("harness.duration", {"harness": {"duration": float("nan")}}),
    ("market.income_rate",
     {"market": {"behavior": "strategic_market", "income_rate": -1}}),
    ("harness.kill_hosts[0][0]",
     {"harness": {"num_hosts": 3, "duration": 5.0,
                  "kill_hosts": [[100.0, 1]]}}),
    ("harness.parents[0].num_hosts",
     {"harness": {"num_hosts": 1, "parents": [{"num_hosts": 2}]}}),
    # A served request takes one whole slice; a demand of any other
    # length was accepted and only rescaled the web server's share.
    ("host.web: service_demand",
     {"host": {"web": {"service_demand": 0.01}}}),
    # Slice counts that overflow a float.  The ids quote the message, which
    # keeps them apart from the other probes of the same fields.
    ("harness.duration: not a finite number of slices",
     {"harness": {"duration": 1e300, "timeslice_length": 1e-300}}),
    ("harness.advertise_interval: not a finite number of slices",
     {"harness": {"advertise_interval": 1e300, "timeslice_length": 1e-300}}),
    ("harness.monitor_interval: not a finite number of slices",
     {"harness": {"monitor_interval": 1e300, "timeslice_length": 1e-300}}),
    ("harness.funding_interval: not a finite number of slices",
     {"harness": {"funding_interval": 1e300, "timeslice_length": 1e-300}}),
    # `run` once tried to build about 3e300 periodic deposits.
    ("host.funding_mean_interval: more than one deposit",
     {"host": {"scheduler": "auction_share", "funding_mean_interval": 1e-300,
               "num_timeslices": 300}}),
    # Runs that once validated and then never finished: about 6e302 tasks
    # to draw, 1e12 market steps, and 1e302 harness slices.
    ("market.mean_task_interarrival: more than",
     {"market": {"mean_task_interarrival": 1e-300}}),
    ("market.duration: must be <=", {"market": {"duration": 1000000000000}}),
    ("sweep.interarrivals[0]: more than",
     {"sweep": {"interarrivals": [1e-300]}}),
    ("harness.duration: more than", {"harness": {"duration": 1e300}}),
    # Credit amounts that `run` then crashed converting to integer
    # micro-credits.  The per-host rate 4 / (1 * 1e-308) is infinite, and
    # so is the lump.
    ("harness.parents[0].total_credits: 1e+303 credits overflow",
     {"harness": {"parents": [{"total_credits": 1e303, "num_hosts": 1}]}}),
    ("harness.parents[0] lump: inf credits overflow",
     {"harness": {"parents": [{"deadline_minutes": 1e-308,
                               "num_hosts": 1}]}}),
    ("harness.admin_pool: 1e+303 credits overflow",
     {"harness": {"policy_kind": "open_loop", "admin_pool": 1e303}}),
    ("harness.open_loop_income: 1e+303 credits overflow",
     {"harness": {"policy_kind": "open_loop", "open_loop_income": 1e303}}),
    # A JSON integer no float can hold: `run` crashed making it the
    # market's capacity.
    ("market.num_hosts: must be > 0 and finite",
     {"market": {"num_hosts": 10**400}}),
    # `run` once set out to build every one of these hosts.  Validation
    # now stops both commands before a host is built.
    ("harness.num_hosts: more than", {"harness": {"num_hosts": 10**11}}),
]


# (field, config built in Python from one float) pairs whose validate()
# once let NaN or an infinity through; a JSON document cannot hold them.
NON_FINITE = [
    ("max_weight", lambda x: MarketConfig(
        max_weight=x, behavior=Behavior.STRATEGIC_NO_MARKET)),
    ("mean_task_size", lambda x: MarketConfig(mean_task_size=x)),
    ("weights", lambda x: HostSimConfig(weights=(1.0, x, 3.0))),
    ("initial_funding_intervals", lambda x: HostSimConfig(
        scheduler=SchedulerKind.AUCTION_SHARE, initial_funding_intervals=x)),
    ("migration_overhead", lambda x: ScenarioConfig(migration_overhead=x)),
    ("host_speeds[0]", lambda x: ScenarioConfig(host_speeds=(x,))),
    ("kill_hosts[0][0]", lambda x: ScenarioConfig(kill_hosts=((x, 0),))),
    ("total_credits",
     lambda x: ScenarioConfig(parents=(ParentJob(total_credits=x),))),
    ("performance_cost_threshold", lambda x: ScenarioConfig(
        parents=(ParentJob(performance_cost_threshold=x),))),
    ("interarrivals", lambda x: SweepConfig(interarrivals=(x,))),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")], ids=str)
@pytest.mark.parametrize("field,build", NON_FINITE,
                         ids=[field for field, _ in NON_FINITE])
def test_validate_rejects_non_finite_floats_naming_the_field(field, build,
                                                             value):
    with pytest.raises(TycoonError, match=re.escape(field)):
        build(value).validate()


def wrong_typed_fields():
    """One wrong-typed value for every field a document can set."""
    schema = (
        (HostSimConfig, "host", lambda kv: {"host": kv}),
        (WorkloadSpec, "host.web", lambda kv: {"host": {"web": kv}}),
        (MarketConfig, "market", lambda kv: {"market": kv}),
        (ScenarioConfig, "harness", lambda kv: {"harness": kv}),
        (ParentJob, "harness.parents[0]",
         lambda kv: {"harness": {"parents": [kv]}}),
        (SweepConfig, "sweep", lambda kv: {"sweep": kv}),
    )
    for cls, where, fragment in schema:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if field.name == "rng_seed":
                continue
            # Enums, arrays and objects never take a bare integer.
            wrong = {int: 2.5, float: True, bool: "no"}.get(
                hints[field.name], 5)
            yield f"{where}.{field.name}", fragment({field.name: wrong})


BAD_FIELDS = BAD_DOCUMENTS + list(wrong_typed_fields())


@pytest.mark.parametrize("field,fragment", BAD_FIELDS,
                         ids=[field for field, _ in BAD_FIELDS])
def test_bad_documents_exit_2_naming_the_field(tmp_path, capsys, field,
                                                fragment):
    # smoke_doc's short runs keep a wrongly accepted value cheap.
    (block, values), = fragment.items()
    doc = smoke_doc()
    doc[block] = {**doc[block], **values}
    conf = write_json(tmp_path, doc)
    experiment = {"sweep": "figure1"}.get(block, block)
    for argv in (["validate", "--config", conf],
                 ["run", "--experiment", experiment, "--config", conf,
                  "--seed", "1", "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        assert field in capsys.readouterr().err


def test_validate_command_exit_codes(tmp_path, capsys):
    good = write_json(tmp_path, smoke_doc())
    assert cli.main(["validate", "--config", good]) == 0
    assert "ok" in capsys.readouterr().out
    bad = write_json(tmp_path, {"host": {"nope": 1}}, "bad.json")
    assert cli.main(["validate", "--config", bad]) == 2
    assert "nope" in capsys.readouterr().err


def test_run_host_writes_expected_table(tmp_path):
    conf = write_json(tmp_path, smoke_doc())
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "host", "--config", conf,
                   "--seeds", "1..3", "--out", str(out)])
    assert rc == 0
    digest, header, rows = read_csv(out / "host.csv")
    assert header == cli.HOST_HEADER
    assert [r[-1] for r in rows] == ["1", "2", "3"]
    assert len(digest) == 64


def test_rerun_is_byte_identical(tmp_path):
    conf = write_json(tmp_path, smoke_doc())
    args = ["run", "--experiment", "market", "--config", conf, "--seed", "5"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "market.csv").read_bytes()
            == (tmp_path / "b" / "market.csv").read_bytes())


def test_set_overrides_reach_the_run(tmp_path):
    conf = write_json(tmp_path, smoke_doc())
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "host", "--config", conf,
                   "--seed", "1", "--out", str(out),
                   "--set", "host.weights=[21,2,3,4]"])
    assert rc == 0
    _, header, rows = read_csv(out / "host.csv")
    assert rows[0][header.index("web_share")] == "0.7"


def test_an_override_into_a_list_exits_2(tmp_path, capsys):
    doc = smoke_doc()
    doc["host"]["weights"] = [1, 2, 3, 4]
    conf = write_json(tmp_path, doc)
    rc = cli.main(["run", "--experiment", "host", "--config", conf,
                   "--seed", "1", "--out", str(tmp_path / "o"),
                   "--set", "host.weights.x=1"])
    assert rc == 2
    assert "'host.weights.x' descends into a non-object" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_env_var_names_output_dir(tmp_path, monkeypatch):
    conf = write_json(tmp_path, smoke_doc())
    monkeypatch.setenv("TYCOON_SIM_OUT", str(tmp_path / "from_env"))
    assert cli.main(["run", "--experiment", "host", "--config", conf,
                     "--seed", "1"]) == 0
    assert (tmp_path / "from_env" / "host.csv").exists()


# A negative seed once passed `validate`, and `run` then died in numpy's
# seeding with exit 1, the status kept for I/O errors.
@pytest.mark.parametrize("seeds,argv,named", [
    ([-1], [], "seeds[0]"),
    ([4, -1], [], "seeds[1]"),
    ([], ["--seed", "-3"], "--seed"),
    ([], ["--seeds=-3..2"], "--seeds"),
])
def test_negative_seeds_exit_2(tmp_path, capsys, seeds, argv, named):
    conf = write_json(tmp_path, {**smoke_doc(), "seeds": seeds})
    commands = [["run", "--experiment", "host", "--config", conf,
                 "--out", str(tmp_path / "o"), *argv]]
    if not argv:
        commands.append(["validate", "--config", conf])
    for command in commands:
        assert cli.main(command) == 2
        assert named in capsys.readouterr().err


def test_bad_seed_range_is_diagnosed(tmp_path, capsys):
    conf = write_json(tmp_path, smoke_doc())
    rc = cli.main(["run", "--experiment", "host", "--config", conf,
                   "--seeds", "5..1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--seeds" in capsys.readouterr().err
    # The widest range the bound allows still parses.
    assert len(cli._parse_seed_range(f"1..{MAX_SEEDS}")) == MAX_SEEDS


@pytest.mark.parametrize("seeds,says", [("5", "wants A..B"),
                                        ("a..b", "wants integer bounds")])
def test_malformed_seed_range_exits_2_naming_it(tmp_path, capsys, seeds,
                                                says):
    conf = write_json(tmp_path, smoke_doc())
    rc = cli.main(["run", "--experiment", "host", "--config", conf,
                   "--seeds", seeds, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and says in err
    assert not (tmp_path / "o").exists()


def test_unwritable_output_is_diagnosed(tmp_path, capsys):
    conf = write_json(tmp_path, smoke_doc())
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc = cli.main(["run", "--experiment", "host", "--config", conf,
                   "--seed", "1", "--out", str(blocker)])
    assert rc == 1
    assert capsys.readouterr().err


def test_an_impossible_allocation_exits_1_in_one_line(tmp_path, capsys,
                                                      monkeypatch):
    # 10**15 slices need 8 PB for one array of draws, more than any
    # address space holds, so the allocation fails at once.  Only with the
    # run-length bound raised does such a config get past validation.
    monkeypatch.setattr(hostsim, "MAX_TIMESLICES", 10**15)
    conf = write_json(tmp_path, {"host": {
        "scheduler": "proportional_share", "num_timeslices": 10**15}})
    rc = cli.main(["run", "--experiment", "host", "--config", conf,
                   "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("tycoon-sim: out of memory")
    assert err.count("\n") == 1


def test_harness_run_emits_three_tables_with_audit(tmp_path):
    conf = write_json(tmp_path, smoke_doc())
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "harness", "--config", conf,
                   "--seed", "2", "--out", str(out)])
    assert rc == 0
    for name in ("harness_users.csv", "harness_hosts.csv",
                 "harness_events.csv"):
        assert (out / name).exists()
    assert "ledger-audit seed=2: conserved=true" in (
        out / "harness_users.csv").read_text()


def mint(ledger, to_id):
    ledger.accounts[to_id] += 1


def overdraw(ledger, to_id):
    # The total stays right, but one account goes below zero.
    mint(ledger, to_id)
    ledger.accounts["overdrawn"] = ledger.accounts.get("overdrawn", 0) - 1


@pytest.mark.parametrize("fault, conserved", [(mint, "false"),
                                              (overdraw, "true")])
def test_failed_ledger_audit_writes_the_tables_and_exits_3(
        tmp_path, capsys, monkeypatch, fault, conserved):
    # Seed 2's bank runs the fault after every transfer; seeds 1 and 3
    # run clean.
    real_run, real_transfer = cli.run_harness_scenario, scenario.bank_transfer

    def leaky_transfer(ledger, from_id, to_id, amount):
        real_transfer(ledger, from_id, to_id, amount)
        fault(ledger, to_id)

    def run(config):
        if config.rng_seed != 2:
            return real_run(config)
        with monkeypatch.context() as patch:
            patch.setattr(scenario, "bank_transfer", leaky_transfer)
            return real_run(config)

    monkeypatch.setattr(cli, "run_harness_scenario", run)
    conf = write_json(tmp_path, smoke_doc())
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "harness", "--config", conf,
                   "--seeds", "1..3", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "tycoon-sim: ledger audit failed on seeds: 2\n")
    for name in ("harness_users.csv", "harness_hosts.csv",
                 "harness_events.csv"):
        text = (out / name).read_text()
        assert f"ledger-audit seed=2: conserved={conserved}" in text
        assert "ledger-audit seed=3: conserved=true" in text

    monkeypatch.undo()
    assert cli.main(["run", "--experiment", "harness", "--config", conf,
                     "--seeds", "1..3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_tripped_per_slice_audit_exits_3_in_one_line(tmp_path, capsys,
                                                     monkeypatch):
    # The per-slice audit stops the run on the first slice that leaves
    # the ledger out of balance, before any table is written.
    real_transfer = scenario.bank_transfer

    def leaky_transfer(ledger, from_id, to_id, amount):
        real_transfer(ledger, from_id, to_id, amount)
        mint(ledger, to_id)

    monkeypatch.setattr(scenario, "bank_transfer", leaky_transfer)
    conf = write_json(tmp_path, {})
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "harness", "--config", conf,
                   "--out", str(out),
                   "--set", "harness.audit_every_slice=true"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "tycoon-sim: ledger out of balance at t=0.0: balances sum to "
        "8000004, issued 8000000\n")
    assert not list(out.iterdir())


def test_dry_open_loop_admin_pool_starves_instead_of_failing(tmp_path,
                                                             capsys):
    conf = write_json(tmp_path, {})
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "harness", "--config", conf,
                   "--out", str(out),
                   "--set", "harness.policy_kind=open_loop",
                   "--set", "harness.admin_pool=1"])
    assert rc == 0, capsys.readouterr().err
    for name in ("harness_users.csv", "harness_hosts.csv",
                 "harness_events.csv"):
        assert "ledger-audit seed=42: conserved=true" in (
            out / name).read_text()
    _, header, rows = read_csv(out / "harness_users.csv")
    column = header.index("starvation_events")
    assert sum(int(row[column]) for row in rows) > 0


def test_figure1_run_covers_the_grid(tmp_path):
    conf = write_json(tmp_path, smoke_doc())
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "figure1", "--config", conf,
                   "--seeds", "1..2", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out / "figure1.csv")
    assert header == cli.MARKET_HEADER
    assert [(r[0], r[1]) for r in rows] == [("60", "obedient")]
    assert rows[0][-1] == "2"


# Sets too slow for tier-1, with their seconds in process on a 2-core
# machine; the CI job that runs scripts/csv_digests.py is their only check.
SLOW_SETS = {"figure1-default": 30.5, "figure1-market-sweep": 3.6,
             "table1-host-table1": 3.0}


@pytest.mark.parametrize("name", [name for name in SETS
                                  if name not in SLOW_SETS])
def test_set_matches_its_pinned_digests(name, tmp_path):
    assert cli.main(cli_args(name, tmp_path)) == 0
    assert hashes(name, tmp_path) == {
        key: digest for key, digest in read_digests().items()
        if key.startswith(f"{name}/")}


def test_table1_without_requests_has_no_latency(tmp_path):
    # No row serves a request, so each latency mean and spread is taken
    # over no values.
    doc = smoke_doc()
    doc["host"]["web"] = {"request_probability": 0}
    conf = write_json(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["run", "--experiment", "table1", "--config", conf,
                     "--seeds", "1..2", "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "table1.csv")
    latency = header.index("latency_ms_mean")
    assert header[latency + 1] == "latency_ms_stddev"
    assert len(rows) == 5
    assert all(row[latency:latency + 2] == ["nan", "nan"] for row in rows)


def test_table1_run_has_five_rows(tmp_path):
    conf = write_json(tmp_path, smoke_doc())
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", "table1", "--config", conf,
                   "--seed", "1", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out / "table1.csv")
    assert header == cli.TABLE1_HEADER
    assert len(rows) == 5
    assert {r[0] for r in rows} == {
        "ps-1/10-yield", "ps-7/10-yield", "ps-7/10-noyield",
        "as-1/10-yield", "as-1/10-noyield"}
