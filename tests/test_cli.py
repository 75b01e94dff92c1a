"""End-to-end command-line runs: the whole pipeline inside a temp directory.

Calls ``main(argv)`` in-process; every command returns its exit code, so
assertions stay cheap and stderr is captured by pytest as usual.
"""

import json

import pytest

from pgrtb.cli import main
from pgrtb.logs import BidLog, write_log_csv
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

    bad_unc = {**ok, "uncertainty": {"epsilon": -0.5}}
    assert main(["replan", "--config", dump(tmp_path, bad_unc, "k6.json")]) == 2
    assert "bad uncertainty section" in capsys.readouterr().err

    bad_feature = {**ok, "segmentation": {"feature": "volume"}}
    assert main(["optimize", "--config",
                 dump(tmp_path, bad_feature, "k7.json")]) == 2


def test_commands_refuse_missing_sections(tmp_path, capsys):
    no_syn = {k: v for k, v in base_config(tmp_path).items() if k != "synthetic"}
    assert main(["gen-data", "--config", dump(tmp_path, no_syn, "c1.json")]) == 2
    assert "synthetic section" in capsys.readouterr().err

    no_model = {k: v for k, v in base_config(tmp_path).items()
                if k != "bid_model"}
    assert main(["optimize", "--config", dump(tmp_path, no_model, "c2.json")]) == 2
    assert "need either --model or a bid_model" in capsys.readouterr().err

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


def test_simulate_rejects_malformed_plan(tmp_path, capsys):
    cfg_path = dump(tmp_path, base_config(tmp_path))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("{}")
    assert main(["simulate", "--config", cfg_path, "--plan", str(plan_path)]) == 2
    assert "malformed" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg_path,
                 "--plan", str(tmp_path / "nope.json")]) == 2


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
