"""End-to-end command-line runs: the whole pipeline inside a temp directory.

Calls ``main(argv)`` in-process; every command returns its exit code, so
assertions stay cheap and stderr is captured by pytest as usual.
"""

import argparse
import contextlib
import gc
import io
import hashlib
import json
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgrtb import cli
from pgrtb.cli import main
from pgrtb.logs import BidLog, read_log_csv, summarize_auctions, write_log_csv
from pgrtb.solver import PricePlan

MARKET = {
    "supply_S": 10, "demand_Q": 40, "horizon_T": 5.0, "steps_N": 5,
    "arrival_rate_lambda": 1.2, "initial_arrival_mass": 0.25,
    "price_effect_alpha": 1.0, "time_effect_beta": 0.1,
    "risk_level_zeta": 4.0, "risk_decay_v": 0.2,
    "miss_prob_omega": 0.02, "penalty_size_varpi": 0.5,
    "max_value_pi": 0.8,
}


def base_config(tmp_path):
    return {
        "schema_version": 1,
        "market": dict(MARKET),
        "bid_model": {"kind": "uniform", "low": 0.1, "high": 0.9},
        "synthetic": {"hours": 40, "auctions_per_hour": 6,
                      "bidders_per_hour": [2, 3, 4, 5], "slot_id": "slot-a"},
        "seeds": {"root": 11},
        "simulate": {"n_runs": 20},
        "output": {"dir": str(tmp_path / "out")},
    }


def dump(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_full_pipeline(tmp_path, capsys):
    cfg_path = dump(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"

    assert main(["gen-data", "--config", cfg_path]) == 0
    log = out / "auction_log.csv"
    truth = json.loads((out / "ground_truth.json").read_text())
    assert truth["schema_version"] == 1
    assert truth["hours"] == 40 and truth["seed"] == 11
    assert "wrote 240 auctions" in capsys.readouterr().out

    assert main(["fit", "--config", cfg_path, "--log", str(log)]) == 0
    model_path = out / "fitted_model.json"
    fitted = json.loads(model_path.read_text())
    assert set(fitted) == {"schema_version", "n_auctions", "n_used", "max_value",
                           "payment_mean_curve", "payment_std_curve", "bid_model"}
    assert fitted["n_auctions"] == fitted["n_used"] == 240
    assert 0.1 < fitted["max_value"] < 0.9

    assert main(["optimize", "--config", cfg_path,
                 "--model", str(model_path)]) == 0
    payload = json.loads((out / "plan.json").read_text())
    plan = PricePlan.from_dict(payload["plan"])
    assert plan.total_sold <= MARKET["supply_S"]
    lines = (out / "plan_curves.csv").read_text().splitlines()
    assert lines[0].split(",") == ["step", "time", "price", "bound", "sell_now",
                                   "cumulative_sold", "competition_after"]
    assert len(lines) == MARKET["steps_N"] + 2
    assert "optimal revenue" in capsys.readouterr().out

    assert main(["simulate", "--config", cfg_path, "--plan",
                 str(out / "plan.json"), "--model", str(model_path)]) == 0
    sim = json.loads((out / "simulation_summary.json").read_text())
    assert sim["n_runs"] == 20
    assert set(sim["quantiles"]) == {"q05", "q25", "q50", "q75", "q95"}
    assert len(sim["mean_sold_per_step"]) == MARKET["steps_N"] + 1

    assert main(["replan", "--config", cfg_path, "--model", str(model_path)]) == 0
    rp = json.loads((out / "replan_plan.json").read_text())
    assert rp["epsilon"] == 0.1 and rp["noise_seed"] == 11
    trace_lines = (out / "replan_trace.csv").read_text().splitlines()
    assert len(trace_lines) == MARKET["steps_N"] + 2

    assert main(["segment", "--config", cfg_path, "--log", str(log)]) == 0
    report = json.loads((out / "segment_report.json").read_text())
    assert report["fallback_single_group"] is False
    assert [s["label"] for s in report["segments"]] == ["group1_high",
                                                        "group2_low"]
    assert report["combined_revenue"] == pytest.approx(
        sum(s["revenue"] for s in report["segments"]))


def test_optimize_uses_config_bid_model_without_flag(tmp_path):
    cfg_path = dump(tmp_path, base_config(tmp_path))
    other = tmp_path / "alt"
    assert main(["optimize", "--config", cfg_path, "--out", str(other)]) == 0
    payload = json.loads((other / "plan.json").read_text())
    assert payload["schema_version"] == 1


def test_gen_data_is_byte_reproducible(tmp_path):
    cfg_path = dump(tmp_path, base_config(tmp_path))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["gen-data", "--config", cfg_path, "--out", str(b)]) == 0
    assert (a / "auction_log.csv").read_bytes() == (b / "auction_log.csv").read_bytes()
    assert (a / "ground_truth.json").read_bytes() == (b / "ground_truth.json").read_bytes()
    c = tmp_path / "c"
    assert main(["gen-data", "--config", cfg_path, "--out", str(c),
                 "--seed", "12"]) == 0
    assert (a / "auction_log.csv").read_bytes() != (c / "auction_log.csv").read_bytes()


def test_seed_flag_changes_replan(tmp_path):
    cfg_path = dump(tmp_path, base_config(tmp_path))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["replan", "--config", cfg_path, "--out", str(a),
                 "--seed", "1"]) == 0
    assert main(["replan", "--config", cfg_path, "--out", str(b),
                 "--seed", "2"]) == 0
    ra = json.loads((a / "replan_plan.json").read_text())
    rb = json.loads((b / "replan_plan.json").read_text())
    assert ra["noise_seed"] == 1 and rb["noise_seed"] == 2


@pytest.mark.parametrize("command, extra", [
    ("gen-data", []), ("simulate", ["--plan", "plan.json"]), ("replan", []),
    ("segment", ["--log", "log.csv"]), ("fit", ["--log", "log.csv"]), ("optimize", [])])
def test_only_commands_that_draw_take_a_seed(capsys, command, extra):
    """gen-data, simulate and replan draw random numbers and take ``--seed``;
    fit, optimize and segment draw none, so the flag is refused there."""
    argv = [command, "--config", "run.json", *extra, "--seed", "1"]
    if command in ("fit", "optimize", "segment"):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    else:
        assert cli._build_parser().parse_args(argv).seed == 1


def test_segment_report_does_not_depend_on_the_root_seed(tmp_path):
    """The split draws nothing: configs that differ only in ``seeds.root``
    write the same report, byte for byte, on the same log."""
    cfg = base_config(tmp_path)
    log = str(tmp_path / "out" / "auction_log.csv")
    assert main(["gen-data", "--config", dump(tmp_path, cfg)]) == 0
    reports = []
    for root in (11, 12):
        cfg["seeds"]["root"] = root
        out = tmp_path / f"seed{root}"
        argv = ["segment", "--config", dump(tmp_path, cfg), "--log", log, "--out", str(out)]
        assert main(argv) == 0
        reports.append((out / "segment_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_repeated_commands_leave_no_parser_cycles(tmp_path):
    """Each argparse parser holds reference cycles; one parser serves every
    call, so repeated commands leave none for the cyclic collector."""
    cfg_path = dump(tmp_path, base_config(tmp_path))

    def parsers():
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

    assert main(["optimize", "--config", cfg_path]) == 0
    gc.collect()
    before = parsers()
    gc.disable()
    try:
        for _ in range(5):
            assert main(["optimize", "--config", cfg_path]) == 0
        assert parsers() == before
    finally:
        gc.enable()


def _fit(tmp_path, changes=None):
    """gen-data and fit on the base config (``changes`` to its synthetic section);
    returns the config path and the output directory."""
    cfg = base_config(tmp_path)
    cfg["synthetic"].update(changes or {})
    cfg_path = dump(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["fit", "--config", cfg_path, "--log", str(out / "auction_log.csv")]) == 0
    return cfg_path, out


def test_a_model_file_holding_the_bid_sample_plans_and_simulates_the_same(tmp_path):
    """A model file as earlier versions wrote it, with the bid sample, gives
    the same bytes from optimize, simulate and replan as one that holds the
    sample's histogram."""
    cfg_path, out = _fit(tmp_path)
    fitted = json.loads((out / "fitted_model.json").read_text())
    assert set(fitted["bid_model"]) == {"kind", "edges", "counts"}
    sample = summarize_auctions(read_log_csv(out / "auction_log.csv")).bids
    old = tmp_path / "old_model.json"
    old.write_text(json.dumps({**fitted, "bid_model": {"kind": "empirical",
                                                       "bids": sample.tolist()}}))
    assert main(["optimize", "--config", cfg_path, "--model",
                 str(out / "fitted_model.json")]) == 0  # the plan both simulate
    digests = []
    for model, name in ((out / "fitted_model.json", "new"), (old, "old")):
        where = tmp_path / name
        for argv in (["optimize"], ["simulate", "--plan", str(out / "plan.json")], ["replan"]):
            assert main([argv[0], "--config", cfg_path, "--out", str(where),
                         "--model", str(model), *argv[1:]]) == 0
        names = sorted(p.name for p in where.iterdir())
        digests.append(_digests(where, names))
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"plan.json", "plan_curves.csv", "simulation_summary.json",
                               "replan_plan.json", "replan_trace.csv"}


def test_model_file_size_does_not_grow_with_the_log(tmp_path):
    """The model file holds the law's edges and counts, not the bids: a log
    ten times longer over the same hours adds a few histogram bins (their
    number grows as the cube root of the bids) where the bids would add
    about 200 KB."""
    sizes = []
    for auctions in (6, 60):
        (tmp_path / str(auctions)).mkdir()
        _, out = _fit(tmp_path / str(auctions), {"auctions_per_hour": auctions})
        sizes.append((out / "fitted_model.json").stat().st_size)
    assert sizes[1] - sizes[0] < 1024, sizes


def test_model_and_plan_files_must_carry_this_schema_version(tmp_path, capsys):
    """optimize, simulate and replan refuse a model or plan file whose
    schema_version is not 1, naming the file, and write nothing."""
    cfg_path, out = _fit(tmp_path)
    assert main(["optimize", "--config", cfg_path, "--model",
                 str(out / "fitted_model.json")]) == 0
    for name in ("fitted_model.json", "plan.json"):
        payload = json.loads((out / name).read_text())
        (tmp_path / name).write_text(json.dumps({**payload, "schema_version": 2}))
    model, plan = tmp_path / "fitted_model.json", tmp_path / "plan.json"
    fresh = tmp_path / "fresh"
    for argv, path in ((["optimize", "--model", str(model)], model),
                       (["replan", "--model", str(model)], model),
                       (["simulate", "--plan", str(plan)], plan),
                       (["simulate", "--plan", str(out / "plan.json"), "--model", str(model)],
                        model)):
        assert main(argv[:1] + ["--config", cfg_path, "--out", str(fresh)] + argv[1:]) == 2
        assert f"{path} has unsupported schema_version 2" in capsys.readouterr().err
    assert not fresh.exists()


def test_a_bid_law_whose_payments_overflow_is_refused(tmp_path, capsys):
    cfg = {**base_config(tmp_path), "bid_model": {"kind": "lognormal", "mu": 700.0,
                                                  "sigma": 1.0}}
    assert main(["optimize", "--config", dump(tmp_path, cfg)]) == 2
    assert "squares overflow" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_inputs_exit_2(tmp_path, capsys):
    ok = base_config(tmp_path)

    assert main(["optimize", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["optimize", "--config", str(broken)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    assert main(["optimize", "--config",
                 dump(tmp_path, {**ok, "bogus": 1}, "k1.json")]) == 2
    assert "unknown key(s) in top level: bogus" in capsys.readouterr().err

    assert main(["optimize", "--config",
                 dump(tmp_path, {**ok, "schema_version": 99}, "k2.json")]) == 2
    assert "unsupported schema_version" in capsys.readouterr().err

    bad_market = {**ok, "market": {**MARKET, "supply_X": 3}}
    assert main(["optimize", "--config",
                 dump(tmp_path, bad_market, "k3.json")]) == 2
    assert "unknown key(s) in market" in capsys.readouterr().err

    sick_market = {**ok, "market": {**MARKET, "supply_S": 0}}
    assert main(["optimize", "--config",
                 dump(tmp_path, sick_market, "k4.json")]) == 2
    assert "bad market section" in capsys.readouterr().err

    bad_bids = {**ok, "bid_model": {"kind": "triangular"}}
    assert main(["optimize", "--config",
                 dump(tmp_path, bad_bids, "k5.json")]) == 2
    assert "bad bid_model: unknown bid model kind: 'triangular'" in capsys.readouterr().err

    bad_unc = {**ok, "uncertainty": {"epsilon": -0.5}}
    assert main(["replan", "--config", dump(tmp_path, bad_unc, "k6.json")]) == 2
    assert "bad uncertainty section" in capsys.readouterr().err

    coin = {**ok, "uncertainty": {"epsilon": 0.1, "noise_kind": "rademacher"}}
    assert main(["replan", "--config", dump(tmp_path, coin, "k6b.json")]) == 2
    assert "noise_kind must be 'gaussian', not 'rademacher'" in capsys.readouterr().err

    # json writes float("inf") as Infinity, which json.load reads back
    for section, key in (("simulate", "n_runs"), ("seeds", "root")):
        infinite = {**ok, section: {key: math.inf}}
        assert main(["optimize", "--config",
                     dump(tmp_path, infinite, f"inf-{key}.json")]) == 2
        assert f"{section}.{key} must be finite" in capsys.readouterr().err

    bad_feature = {**ok, "segmentation": {"feature": "volume"}}
    assert main(["optimize", "--config",
                 dump(tmp_path, bad_feature, "k7.json")]) == 2
    assert "unknown key(s) in top level: segmentation" in capsys.readouterr().err

    # JSON's NaN once planned silently (an all-auction plan at zeta = NaN)
    nan_market = {**ok, "market": {**MARKET, "risk_level_zeta": float("nan")}}
    assert main(["optimize", "--config",
                 dump(tmp_path, nan_market, "k8.json")]) == 2
    assert "risk_level_zeta must be finite" in capsys.readouterr().err

    listed_market = {**ok, "market": [1]}
    assert main(["optimize", "--config", dump(tmp_path, listed_market, "k9.json")]) == 2
    assert "config section 'market' must be a JSON object" in capsys.readouterr().err

    short_bids = {**ok, "bid_model": {"kind": "uniform", "low": 0.1}}
    assert main(["optimize", "--config", dump(tmp_path, short_bids, "k10.json")]) == 2
    assert "bid_model 'uniform' is missing 'high'" in capsys.readouterr().err

    bad_start = {**ok, "synthetic": {**ok["synthetic"], "start_time": "noon"}}
    assert main(["gen-data", "--config", dump(tmp_path, bad_start, "k11.json")]) == 2
    assert "bad synthetic.start_time" in capsys.readouterr().err

    # a JSON boolean is not a number: each of these once ran as 0 or 1
    booleans = [
        ("optimize", "market", {**MARKET, "supply_S": True}, "bad market section: supply_S"),
        ("optimize", "market", {**MARKET, "horizon_T": True}, "bad market section: horizon_T"),
        ("optimize", "market", {**MARKET, "steps_N": True}, "bad market section: steps_N"),
        ("optimize", "market", {**MARKET, "max_value_pi": False}, "bad market section: max_value_pi"),
        ("replan", "uncertainty", {"epsilon": True}, "bad uncertainty section: epsilon"),
        ("optimize", "bid_model", {"kind": "uniform", "low": False, "high": True},
         "bad bid_model: low must be a number"),
        ("optimize", "bid_model", {"kind": "lognormal", "mu": 0.0, "sigma": True},
         "bad bid_model: sigma must be a number"),
        ("optimize", "bid_model", {"kind": "empirical", "bids": [0.2, True]},
         "bad bid_model: bids must be a number"),
    ]
    for i, (command, section, value, message) in enumerate(booleans):
        assert main([command, "--config", dump(tmp_path, {**ok, section: value}, f"b{i}.json")]) == 2
        assert message in capsys.readouterr().err
    # JSON ints in float fields stay numbers
    whole = {**ok, "market": {**MARKET, "horizon_T": 5, "max_value_pi": 1},
             "uncertainty": {"epsilon": 0}, "bid_model": {"kind": "uniform", "low": 0, "high": 1}}
    assert main(["replan", "--config", dump(tmp_path, whole, "whole.json")]) == 0
    capsys.readouterr()

    for value in (None, 3, ["out"]):
        nameless = {**ok, "output": {"dir": value}}
        assert main(["optimize", "--config", dump(tmp_path, nameless, "k12.json")]) == 2
        assert f"output.dir must be a string, not {value!r}" in capsys.readouterr().err

    for blank in ("", " "):
        unnamed = {**ok, "synthetic": {**ok["synthetic"], "slot_id": blank}}
        assert main(["gen-data", "--config", dump(tmp_path, unnamed, "k13.json")]) == 2
        assert f"bad synthetic section: slot_id {blank!r} is blank" in capsys.readouterr().err


def test_strings_where_numbers_belong_exit_2_naming_the_key(tmp_path, capsys):
    """A JSON string is not a number: the first two once ran as uniform(0.1,
    0.9) and as an empirical law, and the others exited 2 naming no key."""
    ok = base_config(tmp_path)
    strings = [
        ("optimize", "bid_model", {"kind": "uniform", "low": "0.1", "high": "0.9"},
         "bad bid_model: low must be a number, not '0.1'"),
        ("optimize", "bid_model", {"kind": "empirical", "bids": ["0.2", "0.5", "0.7"]},
         "bad bid_model: bids must be a number, not '0.2'"),
        ("optimize", "market", {**MARKET, "horizon_T": "30"},
         "bad market section: horizon_T must be a number, not '30'"),
        ("simulate", "market", {**MARKET, "reserve_price_r0": None},
         "bad market section: reserve_price_r0 must be a number, not None"),
        ("replan", "uncertainty", {"epsilon": "0.1"},
         "bad uncertainty section: epsilon must be finite and non-negative, not '0.1'"),
    ]
    for i, (command, section, value, message) in enumerate(strings):
        extra = ["--plan", str(tmp_path / "plan.json")] if command == "simulate" else []
        cfg_path = dump(tmp_path, {**ok, section: value}, f"s{i}.json")
        assert main([command, "--config", cfg_path, *extra]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the numeric keys of each config section; a bid law's are those of its kind
_NUMERIC_KEYS = ([("market", key, None) for key in MARKET]
                 + [("bid_model", key, "uniform") for key in ("low", "high")]
                 + [("bid_model", key, "lognormal") for key in ("mu", "sigma")]
                 + [("bid_model", "bids", "empirical"), ("uncertainty", "epsilon", None),
                    ("uncertainty", "noise_seed", None), ("simulate", "n_runs", None),
                    ("seeds", "root", None)])
_NOT_NUMBERS = st.one_of(
    st.sampled_from(["30", "0.1", "1e3", "NaN", ""]), st.text(max_size=4), st.booleans(),
    st.none(), st.lists(st.one_of(st.floats(0.0, 1.0), st.text(max_size=2), st.booleans(),
                                  st.none()), max_size=3))


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """A directory holding a good config's plan, for ``simulate``."""
    where = tmp_path_factory.mktemp("planned")
    assert main(["optimize", "--config", dump(where, base_config(where))]) == 0
    return where


@settings(max_examples=60)
@given(slot=st.sampled_from(_NUMERIC_KEYS), value=_NOT_NUMBERS)
@example(slot=("market", "horizon_T", None), value="30")
@example(slot=("bid_model", "low", "uniform"), value="0.1")
@example(slot=("bid_model", "bids", "empirical"), value=[])
@example(slot=("bid_model", "bids", "empirical"), value=[0.5, 0.25])
def test_a_non_number_in_a_numeric_key_exits_0_or_2_naming_it(planned, slot, value):
    """A string, boolean, null or list in one numeric key of a config: each of
    ``optimize``, ``simulate`` and ``replan`` exits 2 naming the key, never 1,
    unless the value is a list of bids, which is a sample and exits 0."""
    section, key, kind = slot
    cfg = base_config(planned)
    cfg["uncertainty"] = {"epsilon": 0.1, "noise_seed": 3}
    if kind is not None:
        cfg["bid_model"] = {"uniform": {"low": 0.1, "high": 0.9}, "lognormal": {
            "mu": -0.5, "sigma": 0.5}, "empirical": {}}[kind] | {"kind": kind}
    cfg.setdefault(section, {})[key] = value
    cfg_path = dump(planned, cfg, "probe.json")
    sample = (key == "bids" and isinstance(value, list) and len(value) > 0
              and all(isinstance(v, float) for v in value))
    for command in ("optimize", "simulate", "replan"):
        extra = ["--plan", str(planned / "out" / "plan.json")] if command == "simulate" else []
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg_path, "--out", str(planned / "probe"), *extra])
        assert code == (0 if sample else 2), err.getvalue()
        assert sample or f"{key} must" in err.getvalue(), err.getvalue()


def test_write_json_refuses_non_finite_floats_before_writing(tmp_path):
    """A non-finite float is a fault, not a null: nothing of the file is
    written. A finite payload's bytes are ``json.dump``'s and a newline."""
    payload = {"b": [1.5, (2, "x")], "a": {"c": None}}
    cli._write_json(tmp_path / "ok.json", payload)
    with open(tmp_path / "dumped.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "ok.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()
    for bad in (math.inf, -math.inf, math.nan, np.float64(math.inf)):
        with pytest.raises(ValueError, match="Out of range float"):
            cli._write_json(tmp_path / "bad.json", {"a": 1.0, "z": [bad]})
        assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("section, key, value", [
    ("uncertainty", "noise_seed", 3.7), ("uncertainty", "noise_seed", True),
    ("simulate", "n_runs", 20.6), ("simulate", "n_runs", 20.0),
    ("seeds", "root", 7.9), ("seeds", "root", False)])
def test_integer_settings_refuse_other_values(tmp_path, capsys, section, key, value):
    """An integer setting given a float or a bool is bad input that names the
    key, not a value to truncate (a noise seed of 3.7 would draw as seed 3
    while the plan file recorded 3.7)."""
    cfg = base_config(tmp_path)
    cfg[section] = {**cfg.get(section, {"epsilon": 0.1}), key: value}
    assert main(["replan", "--config", dump(tmp_path, cfg)]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "replan_plan.json").exists()


@pytest.mark.parametrize("command", ["gen-data", "simulate", "replan"])
def test_negative_seeds_and_run_counts_are_refused(tmp_path, capsys, command):
    """A seed below 0 or a run count below 1 is bad input that names its
    config key or flag, whether it comes from the config or the command
    line, and nothing is written."""
    extra = ["--plan", str(tmp_path / "plan.json")] if command == "simulate" else []
    settings = [({"seeds": {"root": -1}}, "seeds.root"), ({"simulate": {"n_runs": 0}}, "simulate.n_runs")]
    for changes, key in settings:
        cfg_path = dump(tmp_path, {**base_config(tmp_path), **changes})
        assert main([command, "--config", cfg_path, *extra]) == 2
        assert f"{key} must be finite and an integer of at least" in capsys.readouterr().err
    flags = [(["--seed", "-3"], "argument --seed: must be at least 0")]
    if command == "simulate":
        flags.append((["--runs", "0"], "argument --runs: must be at least 1"))
    cfg_path = dump(tmp_path, base_config(tmp_path))
    for flag, message in flags:
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", cfg_path, *extra, *flag])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_data_refuses_non_integer_sizes(tmp_path, capsys):
    """Synthetic sizes are counts: a float or a bool exits 2 naming the
    field, where it once wrote a truncated log and its ground truth."""
    for changes, field in (({"bidders_per_hour": [2, 3.9, True]}, "bidders_per_hour[1]"),
                           ({"bidders_per_hour": [2, 3, True]}, "bidders_per_hour[2]"),
                           ({"hours": True}, "hours"),
                           ({"auctions_per_hour": 6.0}, "auctions_per_hour")):
        cfg = base_config(tmp_path)
        cfg["synthetic"].update(changes)
        assert main(["gen-data", "--config", dump(tmp_path, cfg)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_fit_section_is_refused(tmp_path, capsys):
    """The curve fit has no options: a config with a fit section exits 2
    and names it."""
    cfg = {**base_config(tmp_path), "fit": {}}
    assert main(["optimize", "--config", dump(tmp_path, cfg)]) == 2
    assert "unknown key(s) in top level: fit" in capsys.readouterr().err


def test_commands_refuse_missing_sections(tmp_path, capsys):
    no_syn = {k: v for k, v in base_config(tmp_path).items() if k != "synthetic"}
    assert main(["gen-data", "--config", dump(tmp_path, no_syn, "c1.json")]) == 2
    assert "synthetic section" in capsys.readouterr().err

    no_model = {k: v for k, v in base_config(tmp_path).items()
                if k != "bid_model"}
    assert main(["optimize", "--config", dump(tmp_path, no_model, "c2.json")]) == 2
    assert "need either --model or a bid_model" in capsys.readouterr().err
    assert main(["gen-data", "--config", dump(tmp_path, no_model, "c2.json")]) == 2
    assert "gen-data needs a bid_model section" in capsys.readouterr().err

    no_market = {k: v for k, v in base_config(tmp_path).items() if k != "market"}
    assert main(["optimize", "--config", dump(tmp_path, no_market, "c3.json")]) == 2
    assert "needs a market section" in capsys.readouterr().err


def test_fit_rejects_log_of_solo_auctions(tmp_path, capsys):
    log = BidLog(["s"] * 30, [f"a{i}" for i in range(30)], [None] * 30,
                 [0.4 + 0.001 * i for i in range(30)])
    log_path = tmp_path / "thin.csv"
    write_log_csv(log, log_path)
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["fit", "--config", cfg_path, "--log", str(log_path)]) == 2
    assert "two or more bids" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("slot_id,auction_id,timestamp,bid_cpm\n")
    assert main(["fit", "--config", cfg_path, "--log", str(empty)]) == 2
    assert "no bid rows" in capsys.readouterr().err


def test_fit_leaves_lone_bids_out(tmp_path):
    """Auctions of one bid, stamped in an hour of their own at a low bid, count
    among the auctions but not among those fitted: the curves, the value
    ceiling and so the plan are the bytes of the log without them."""
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["gen-data", "--config", cfg_path]) == 0
    log = read_log_csv(tmp_path / "out" / "auction_log.csv")
    day_before = log.timestamp[0] - timedelta(days=1)
    lone = BidLog(log.slot_id + ["slot-a"] * 12,
                  log.auction_id + [f"lone-{i}" for i in range(12)],
                  log.timestamp + [day_before] * 12, np.append(log.bid_cpm, [0.05] * 12))
    write_log_csv(lone, tmp_path / "lone.csv")
    plans, models = [], []
    for name in ("out/auction_log.csv", "lone.csv"):
        out = tmp_path / f"fit-{len(plans)}"
        assert main(["fit", "--config", cfg_path, "--log", str(tmp_path / name),
                     "--out", str(out)]) == 0
        assert main(["optimize", "--config", cfg_path, "--model",
                     str(out / "fitted_model.json"), "--out", str(out)]) == 0
        models.append(json.loads((out / "fitted_model.json").read_text()))
        plans.append((out / "plan.json").read_bytes())
    assert models[0]["n_auctions"] == models[0]["n_used"] == models[1]["n_used"] == 240
    assert models[1]["n_auctions"] == 252
    for key in ("payment_mean_curve", "payment_std_curve", "max_value"):
        assert models[0][key] == models[1][key]
    assert plans[0] == plans[1]


def test_simulate_refuses_a_model_without_a_bid_law(tmp_path, capsys):
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["optimize", "--config", cfg_path]) == 0
    model = tmp_path / "curves_only.json"
    model.write_text(json.dumps({"schema_version": 1, "max_value": 0.5}))
    assert main(["simulate", "--config", cfg_path, "--plan", str(tmp_path / "out" / "plan.json"),
                 "--model", str(model)]) == 2
    assert f"model {model} carries no bid model" in capsys.readouterr().err


@pytest.mark.parametrize("sale", [True, 1.5, 2.0, -1])
def test_simulate_refuses_a_plan_whose_sales_are_not_counts(tmp_path, capsys, sale):
    """A sale count that is a bool, a float or negative is refused, not
    truncated: sales of [true, 5, 1.5, 3] once simulated as [1, 5, 1, 3]."""
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["optimize", "--config", cfg_path]) == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    doc["plan"]["sales"][1] = sale
    plan_path = tmp_path / "edited.json"
    plan_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", "--config", cfg_path, "--plan", str(plan_path)]) == 2
    assert (f"plan {plan_path} is malformed: sales must be non-negative integers, "
            f"not {sale!r}") in capsys.readouterr().err
    assert not (tmp_path / "out" / "simulation_summary.json").exists()


def test_simulate_refuses_a_plan_whose_prices_are_not_numbers(tmp_path, capsys):
    """A string price or bound is refused, not read as its number: prices of
    "0.5" once simulated as 0.5."""
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["optimize", "--config", cfg_path]) == 0
    for key in ("prices", "bounds"):
        doc = json.loads((tmp_path / "out" / "plan.json").read_text())
        doc["plan"][key] = [str(v) for v in doc["plan"][key]]
        plan_path = tmp_path / f"{key}.json"
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["simulate", "--config", cfg_path, "--plan", str(plan_path)]) == 2
        assert f"plan {plan_path} is malformed: {key} must be a number, not '" in (
            capsys.readouterr().err)
    assert not (tmp_path / "out" / "simulation_summary.json").exists()


def test_fit_and_segment_refuse_mixed_stamp_kinds(tmp_path, capsys):
    log_path = tmp_path / "mixed.csv"
    log_path.write_text("slot_id,auction_id,timestamp,bid_cpm\n"
                        "s,a1,2024-05-01T10:00:00+02:00,0.5\n"
                        "s,a1,2024-05-01T10:30:00+02:00,0.4\n"
                        "s,a2,2024-05-01T11:00:00,0.3\n")
    cfg_path = dump(tmp_path, base_config(tmp_path))
    for command in ("fit", "segment"):
        assert main([command, "--config", cfg_path, "--log", str(log_path)]) == 2
        assert (f"{log_path}:4: timestamp '2024-05-01T11:00:00' is naive, the first "
                "stamped row's is offset-aware") in capsys.readouterr().err


def test_simulate_rejects_malformed_plan(tmp_path, capsys):
    cfg_path = dump(tmp_path, base_config(tmp_path))
    plan_path = tmp_path / "plan.json"
    for text in ("{}", "[]"):
        plan_path.write_text(text)
        assert main(["simulate", "--config", cfg_path, "--plan", str(plan_path)]) == 2
        assert f"plan {plan_path} is malformed" in capsys.readouterr().err
    plan_path.write_text('{"plan": ')
    assert main(["simulate", "--config", cfg_path, "--plan", str(plan_path)]) == 2
    assert f"plan {plan_path} is not valid JSON" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg_path,
                 "--plan", str(tmp_path / "nope.json")]) == 2
    assert "cannot read plan" in capsys.readouterr().err


def test_simulate_refuses_a_plan_of_another_length(tmp_path, capsys):
    """A plan simulated under a market of more or fewer steps than it was
    planned for exits 2 and names both lengths."""
    short = base_config(tmp_path)
    long = {**short, "market": {**MARKET, "steps_N": 10, "horizon_T": 10.0}}
    paths = {n: dump(tmp_path, cfg, f"steps-{n}.json") for n, cfg in ((5, short), (10, long))}
    for n, path in paths.items():
        assert main(["optimize", "--config", path, "--out", str(tmp_path / f"plan-{n}")]) == 0
    capsys.readouterr()
    for planned, simulated in ((10, 5), (5, 10)):
        plan = str(tmp_path / f"plan-{planned}" / "plan.json")
        assert main(["simulate", "--config", paths[simulated], "--plan", plan]) == 2
        err = capsys.readouterr().err
        assert (f"plan holds {planned + 1} prices, {planned + 1} sales and {planned + 1} "
                f"bounds; the market has {simulated + 1} steps") in err
    assert not (tmp_path / "out").exists()


def test_fit_refuses_a_log_that_bids_only_zero(tmp_path, capsys):
    """A log bidding only 0 has no value ceiling: fit exits 2 naming the log
    and writes no model file."""
    log_path = tmp_path / "zero.csv"
    write_log_csv(BidLog(["s"] * 60, [f"a{i // 2:03d}" for i in range(60)], [None] * 60,
                         [0.0] * 60), log_path)
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["fit", "--config", cfg_path, "--log", str(log_path)]) == 2
    assert f"auction log {log_path} bids only 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_model_with_a_zero_value_ceiling_is_refused_by_name(tmp_path, capsys):
    """A model file whose value ceiling is 0 is refused by optimize and
    replan as malformed, naming the file."""
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["fit", "--config", cfg_path, "--log",
                 str(tmp_path / "out" / "auction_log.csv")]) == 0
    model = tmp_path / "out" / "fitted_model.json"
    model.write_text(json.dumps({**json.loads(model.read_text()), "max_value": 0.0}))
    capsys.readouterr()
    for command in ("optimize", "replan"):
        assert main([command, "--config", cfg_path, "--model", str(model)]) == 2
        assert (f"model {model} is malformed: max_value_pi must be positive"
                in capsys.readouterr().err)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "auction_log.csv", "fitted_model.json", "ground_truth.json"]


def test_segment_names_a_group_without_a_value_ceiling(tmp_path, capsys):
    rng = np.random.default_rng(3)
    bids = np.concatenate([np.round(rng.uniform(0.5, 0.9, 120), 4), [0.0] * 120])
    log = BidLog(["s"] * 240, [f"a{i // 2:03d}" for i in range(240)], [None] * 240, bids)
    write_log_csv(log, tmp_path / "half.csv")
    cfg_path = dump(tmp_path, base_config(tmp_path))
    assert main(["segment", "--config", cfg_path, "--log", str(tmp_path / "half.csv")]) == 2
    assert "segment group2_low: max_value_pi must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_optimize_refuses_an_oversized_market(tmp_path, capsys):
    """A market past the solver's table budget exits 2 with the sizes named,
    before any output is written."""
    cfg = base_config(tmp_path)
    cfg["market"].update(supply_S=1_000_000, demand_Q=4_000_000)
    assert main(["optimize", "--config", dump(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "problem too large: 6 steps x 1000001 states" in err
    assert "budget of 4,194,304" in err
    assert not (tmp_path / "out" / "plan.json").exists()


# Golden SHA-256 digests of every CLI output on small fixed inputs (see
# test_pipeline_outputs_are_golden for what they are tied to).
# GOLDEN_ALL_BIDS' and GOLDEN_MIXED_OFFSETS' fitted model and segment report
# were re-recorded when the sigmoid candidate left the fit: four of their
# curves had been sigmoids and are now the better of lowess and polynomial,
# each with a higher rmse (by 0.3% to 7.7%). The other goldens held no sigmoid.
# Every fitted_model.json was re-recorded when the file came to hold the bid
# law as histogram edges and counts, not the bid sample (its other keys are
# the same bytes), and simulation_summary.json when markets came to be drawn
# in blocks from one stream each.
GOLDEN_PIPELINE = {
    "auction_log.csv":
        "7f9d9f7c00e0e26a0427aedcc75916360ea5bd72f0a2aed811a67de3f0e847af",
    "ground_truth.json":
        "0095ec3c5199e17ca23d41523c2ea787dc18cab064ef81400e8e371173ee0a29",
    "fitted_model.json":
        "3c062dcfc5912c6fde59dbf764b74ef9dd72d5b7bdbfc1009db5dfd6d1a7c8af",
    "plan.json":
        "f215d06ea637976287495f0a62c1f358ab8e101bec9f432bb769ab93f2b1806e",
    "plan_curves.csv":
        "cdd03c6eadeb279a9d75b3d328d8cafd1e3f185d1da3c18ae107b1b05775d408",
    "simulation_summary.json":
        "ca3d57d8f09790d47db13b23671f8ad8ba2c57953864cc462697532205a6ae14",
    "replan_plan.json":
        "aa12be1e7c36844e52e680c6f2bbcfc6e14518977e0b603d44522cbe8048ef87",
    "replan_trace.csv":
        "d694ff264318ee9f69c536e1d076cfc18525e7070c79c56d3aed1ee6fd3f105e",
    "segment_report.json":
        "6a095f7c2b4385d690dee06d468b7e8da4622921df809b26e6bbdba08592ca42",
}
GOLDEN_THIN_AUCTIONS = {
    "auction_log.csv":
        "077b74254ca2f58438cd981b16fdb899f765247719036090c4cd85e5b12cd897",
    "fitted_model.json":
        "6bb81acd86d97e397e8f8b67b75cb6ddf6e092aecd22932bd24bcc6d47ed85b7",
    "segment_report.json":
        "4a9009c7e1b835a9179ce5e84abda80e77194b0ab3f931ebe58c1b7b1ce66898",
}
GOLDEN_MIXED_OFFSETS = {
    "fitted_model.json":
        "05ffe86bc0bf76fca9e9b2c535fb87011892b27c7cf3146528d00699a94008fe",
    "segment_report.json":
        "ae4aca885fd035f4ed7c702390a268b3e9eeaa54b184f8f04d8765099245c1c7",
}
GOLDEN_SPARSE_STAMPS = {
    "fitted_model.json":
        "6b1a6aed10e3e15f53764712760705cc3fa42798155b3221aa1d43be51eb38fc",
    "segment_report.json":
        "9fa91db76fa4f20274e47e3d7524d416c3045562869d7ad52f33c92217b40407",
}
GOLDEN_NO_STAMPS = {
    "fitted_model.json":
        "6b1a6aed10e3e15f53764712760705cc3fa42798155b3221aa1d43be51eb38fc",
    "segment_report.json":
        "e3f225d6eb8497fd47f318a5272f035c68100dcef818bcb978593431ad6fed56",
}


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_pipeline_outputs_are_golden(tmp_path):
    """The six commands in README order write the same nine files, byte for byte.

    The golden digests were recorded before the summaries became columns.
    The bytes depend on the float results of numpy and the interpreter, so
    the digests are tied to that toolchain (Python 3.11, numpy 2.4); on
    another one, re-record them from a commit known to be right before
    trusting a mismatch. A change that should keep its outputs keeps them.
    """
    cfg_path = dump(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"
    log, model = str(out / "auction_log.csv"), str(out / "fitted_model.json")
    for argv in (["gen-data"], ["fit", "--log", log], ["optimize", "--model", model],
                 ["simulate", "--plan", str(out / "plan.json"), "--model", model],
                 ["replan", "--model", model], ["segment", "--log", log]):
        assert main(argv[:1] + ["--config", cfg_path] + argv[1:]) == 0
    assert _digests(out, GOLDEN_PIPELINE) == GOLDEN_PIPELINE


def test_segmentation_with_thin_auctions_is_golden(tmp_path):
    """Segmenting a log with single-bid auctions and a half-hour clock
    offset: its low group is thin enough to be sold at auction only."""
    cfg = base_config(tmp_path)
    cfg["synthetic"].update(bidders_per_hour=[1, 3, 5, 2],
                            start_time="2024-03-01T05:50:00+05:30")
    cfg_path = dump(tmp_path, cfg)
    log = str(tmp_path / "out" / "auction_log.csv")
    for command in ("gen-data", "fit", "segment"):
        argv = [command, "--config", cfg_path] + (["--log", log] if command != "gen-data" else [])
        assert main(argv) == 0
    assert read_log_csv(log).timestamp[0].utcoffset() == timedelta(hours=5, minutes=30)
    report = json.loads((tmp_path / "out" / "segment_report.json").read_text())
    assert report["feature"] == "winning_bid"
    assert [(seg["label"], seg["auction_count"], seg["rtb_only"])
            for seg in report["segments"]] == [("group1_high", 172, False),
                                               ("group2_low", 68, True)]
    assert _digests(tmp_path / "out", GOLDEN_THIN_AUCTIONS) == GOLDEN_THIN_AUCTIONS


def _hand_log(stamps):
    """A seeded log of 90 auctions with 1-6 bids each. Stamps are at three
    clock offsets, one of them half an hour, so an auction's hour depends on
    which of two equal instants it keeps. ``stamps`` is ``"all"`` (every row
    stamped), ``"some"`` (a third of the auctions unstamped, and some rows of
    others empty) or ``"none"``."""
    rng = np.random.default_rng(8)
    zones = [timezone.utc, timezone(timedelta(hours=5, minutes=30)),
             timezone(timedelta(hours=-3))]
    start = datetime(2024, 6, 1, 9, 40, tzinfo=timezone.utc)
    slots, auctions, rows_stamps, bids = [], [], [], []
    for a in range(90):
        k = int(rng.integers(1, 7))
        instant = start + timedelta(minutes=int(rng.integers(0, 600)))
        for j in range(k):
            stamp = (instant + timedelta(minutes=int(rng.integers(0, 3)))
                     ).astimezone(zones[int(rng.integers(0, 3))])
            if stamps == "none" or (stamps == "some" and not (a % 3 and (j or a % 2))):
                stamp = None
            slots.append("slot-h" if a % 4 else "slot-g")
            auctions.append(f"auc-{(a * 37) % 90:03d}")
            rows_stamps.append(stamp)
        bids.extend(np.round(rng.uniform(0.05, 1.5, k), 4).tolist())
    return BidLog(slots, auctions, rows_stamps, bids)


@pytest.mark.parametrize("stamps, golden", [("all", GOLDEN_MIXED_OFFSETS),
                                            ("some", GOLDEN_SPARSE_STAMPS),
                                            ("none", GOLDEN_NO_STAMPS)])
def test_fit_and_segment_on_a_hand_log_are_golden(tmp_path, stamps, golden):
    """Fit and segment on a hand-made log: hourly buckets across clock
    offsets, and, with stamps partly or wholly missing, competition buckets
    by bidder count and a value ceiling over the merged hours."""
    log_path = tmp_path / "hand.csv"
    write_log_csv(_hand_log(stamps), log_path)
    cfg_path = dump(tmp_path, base_config(tmp_path))
    for command in ("fit", "segment"):
        assert main([command, "--config", cfg_path, "--log", str(log_path)]) == 0
    assert _digests(tmp_path / "out", golden) == golden


# A fitted model as earlier versions wrote it, with sigmoid curves, which no
# version since has fitted.
SIGMOID_MODEL = {
    "schema_version": 1, "n_auctions": 240, "n_used": 240, "max_value": 1.5,
    "payment_mean_curve": {"method": "sigmoid", "x_range": [2.0, 5.0], "rmse": 0.11,
                           "coeffs": [0.12, 0.55, 1.3, 3.1]},
    "payment_std_curve": {"method": "sigmoid", "x_range": [2.0, 5.0], "rmse": 0.04,
                          "coeffs": [0.21, -0.08, 0.9, 3.5]},
}


def test_model_files_with_curves_that_do_not_load_are_refused(tmp_path, capsys):
    """optimize, replan and simulate refuse a model file whose curve has a
    method other than lowess or polynomial (a sigmoid of earlier versions'
    files, or an unknown one) or lacks its arrays: each exits 2 naming the
    file and writes nothing."""
    cfg_path, out = _fit(tmp_path)
    assert main(["optimize", "--config", cfg_path, "--model",
                 str(out / "fitted_model.json")]) == 0
    fitted = json.loads((out / "fitted_model.json").read_text())
    mean_curve = fitted["payment_mean_curve"]
    bad = {
        "sigmoid": ({**SIGMOID_MODEL, "bid_model": fitted["bid_model"]},
                    "unknown curve method: 'sigmoid'"),
        "spline": ({**fitted, "payment_mean_curve": {**mean_curve, "method": "spline"}},
                   "unknown curve method: 'spline'"),
        "bare": ({**fitted, "payment_std_curve": {"method": "lowess", "x_range": [2.0, 5.0],
                                                  "knot_x": [2.0, 5.0]}},
                 "a lowess curve needs knot_x/knot_y"),
    }
    fresh = tmp_path / "fresh"
    for name, (payload, reason) in bad.items():
        model = tmp_path / f"{name}_model.json"
        model.write_text(json.dumps(payload))
        for argv in (["optimize"], ["replan"], ["simulate", "--plan", str(out / "plan.json")]):
            assert main([argv[0], "--config", cfg_path, "--out", str(fresh),
                         "--model", str(model), *argv[1:]]) == 2
            assert f"model {model} is malformed: {reason}" in capsys.readouterr().err
    assert not fresh.exists()
