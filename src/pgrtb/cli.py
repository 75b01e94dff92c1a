"""Command-line driver: generate data, fit, optimize, simulate, replan, segment.

Every command reads one JSON run config (sections: market, bid_model, seeds,
uncertainty, synthetic, simulate, output) plus a few flag overrides, writes
machine-readable outputs into the output directory, and prints a one-line
human summary. Exit codes: 0 success, 2 bad input or unusable config, 1
unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from datetime import datetime

from .auction import BidModel, RevenueCurves, estimate_max_value, fit_payment_curves
from .logs import read_log_csv, summarize_auctions, write_log_csv
from .market import MarketConfig, TimeGrid
from .replan import UncertaintySpec, replan as run_replan
from .segmentation import segment_and_optimize
from .simulate import evaluate_plan, generate_log
from .solver import PricePlan, optimal_plan

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad flags, bad config, or unusable input data (exit code 2)."""


# the keys each config section may hold
_SECTIONS = {
    "market": {f.name for f in dataclasses.fields(MarketConfig)},
    "bid_model": {"kind", "low", "high", "mu", "sigma", "bids"},
    "seeds": {"root"},
    "uncertainty": {"epsilon", "noise_seed", "noise_kind"},
    "synthetic": {"hours", "auctions_per_hour", "bidders_per_hour", "slot_id", "start_time"},
    "simulate": {"n_runs"},
    "output": {"dir"},
}


def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise UsageError(f"config section {where!r} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _int_setting(section, key, default, where, least):
    """``section[key]``, which must be an int of at least ``least``: a float
    (even a whole or an infinite one) or a bool is bad input, never truncated."""
    value = section.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise UsageError(f"{where}.{key} must be finite and an integer of at least "
                         f"{least}, not {value!r}")
    return value


def _load_json(path, what, build):
    """Read the JSON file at ``path`` and return ``build(payload)``; a file
    that cannot be read, is not JSON, has a ``schema_version`` other than
    this one's, or that ``build`` rejects (say, a list where an object
    belongs) is bad input named as ``what``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc
    if (isinstance(payload, dict)
            and (version := payload.get("schema_version", SCHEMA_VERSION)) != SCHEMA_VERSION):
        raise UsageError(f"{what} {path} has unsupported schema_version {version!r}")
    try:
        return build(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{what} {path} is malformed: {exc}") from exc


def _bid_model_from_section(section):
    try:
        return BidModel.from_dict(section)
    except KeyError as exc:
        raise UsageError(f"bid_model {section.get('kind')!r} is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad bid_model: {exc}") from exc


@dataclass
class RunConfig:
    """Parsed run configuration shared by all commands."""

    market: MarketConfig | None = None
    bid_model: BidModel | None = None
    root_seed: int = 0
    uncertainty: UncertaintySpec | None = None
    synthetic: dict | None = None
    n_runs: int = 200
    out_dir: str = "."

    @classmethod
    def _from_raw(cls, raw):
        _check_keys(raw, {"schema_version", *_SECTIONS}, "top level")
        for name, allowed in _SECTIONS.items():
            if name in raw:
                _check_keys(raw[name], allowed, name)
        rc = cls()
        if "market" in raw:
            try:
                rc.market = MarketConfig(**raw["market"])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad market section: {exc}") from exc
        if "bid_model" in raw:
            rc.bid_model = _bid_model_from_section(raw["bid_model"])
        if "uncertainty" in raw:
            try:
                rc.uncertainty = UncertaintySpec(**raw["uncertainty"])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad uncertainty section: {exc}") from exc
        rc.root_seed = _int_setting(raw.get("seeds", {}), "root", 0, "seeds", 0)
        rc.synthetic = dict(raw["synthetic"]) if "synthetic" in raw else None
        rc.n_runs = _int_setting(raw.get("simulate", {}), "n_runs", rc.n_runs, "simulate", 1)
        rc.out_dir = raw.get("output", {}).get("dir", rc.out_dir)
        if not isinstance(rc.out_dir, str):
            raise UsageError(f"output.dir must be a string, not {rc.out_dir!r}")
        return rc

    def require_market(self):
        if self.market is None:
            raise UsageError("this command needs a market section in the config")
        return self.market


def _write_json(path, payload):
    """Write ``payload`` as JSON; a non-finite float raises before the file opens."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _out_path(rc, args, name):
    out_dir = args.out if args.out is not None else rc.out_dir
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# -- commands ---------------------------------------------------------------


def cmd_gen_data(rc: RunConfig, args):
    if rc.synthetic is None:
        raise UsageError("gen-data needs a synthetic section in the config")
    if rc.bid_model is None:
        raise UsageError("gen-data needs a bid_model section in the config")
    syn = dict(rc.synthetic)
    start = syn.pop("start_time", None)
    if start is not None:
        try:
            start = datetime.fromisoformat(start)
        except ValueError as exc:
            raise UsageError(f"bad synthetic.start_time: {exc}") from exc
    seed = args.seed if args.seed is not None else rc.root_seed
    try:
        log, truth = generate_log(rc.bid_model, seed=seed, start_time=start, **syn)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad synthetic section: {exc}") from exc
    log_path = _out_path(rc, args, "auction_log.csv")
    truth_path = _out_path(rc, args, "ground_truth.json")
    write_log_csv(log, log_path)
    _write_json(truth_path, {"schema_version": SCHEMA_VERSION, **truth})
    print(f"wrote {log.count_auctions()} auctions ({len(log)} bid rows) to {log_path}")
    return 0


def _read_table(log_path):
    log = read_log_csv(log_path)
    if not len(log):
        raise UsageError(f"auction log {log_path} has no bid rows")
    return summarize_auctions(log)


def cmd_fit(rc: RunConfig, args):
    table = _read_table(args.log)
    ceiling = estimate_max_value(table)
    if ceiling == 0:  # bids are non-negative, so every bid is 0
        raise UsageError(f"auction log {args.log} bids only 0, so it has no value ceiling")
    mean_curve, std_curve = fit_payment_curves(table)
    n_used = int((table.xi_observed >= 2).sum())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_auctions": len(table),
        "n_used": n_used,
        "max_value": ceiling,
        "payment_mean_curve": mean_curve.to_dict(),
        "payment_std_curve": std_curve.to_dict(),
        "bid_model": BidModel.empirical(table.bids).to_dict(),
    }
    path = _out_path(rc, args, "fitted_model.json")
    _write_json(path, payload)
    print(f"fitted {n_used}/{len(table)} auctions: "
          f"mean curve {mean_curve.method} (rmse {mean_curve.rmse:.4f}), "
          f"spread curve {std_curve.method} (rmse {std_curve.rmse:.4f}), "
          f"value ceiling {ceiling:.4f} -> {path}")
    return 0


def _optimizer_model(rc, args):
    """The model the optimizer runs on, honoring --model; returns (cfg, model)."""
    cfg = rc.require_market()
    if getattr(args, "model", None):
        # optimize and replan read the curves and value ceiling; only
        # simulate reads the fitted bid law. The config is built with the
        # file, so a ceiling it refuses names the file.
        def build(payload):
            curves = RevenueCurves.from_dict(payload)
            return dataclasses.replace(cfg, max_value_pi=float(payload["max_value"])), curves
        return _load_json(args.model, "model", build)
    if rc.bid_model is None:
        raise UsageError("need either --model or a bid_model section")
    return cfg, rc.bid_model


def cmd_optimize(rc: RunConfig, args):
    cfg, model = _optimizer_model(rc, args)
    grid = TimeGrid.from_config(cfg)
    plan, _ = optimal_plan(cfg, grid, model)
    plan_path = _out_path(rc, args, "plan.json")
    payload = {"schema_version": SCHEMA_VERSION, "plan": plan.to_dict()}
    _write_json(plan_path, payload)
    curve_path = _out_path(rc, args, "plan_curves.csv")
    demand = cfg.demand_Q
    supply = cfg.supply_S
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "price", "bound", "sell_now",
                         "cumulative_sold", "competition_after"])
        sold = 0
        for n in range(grid.n_steps + 1):
            sold += int(plan.sales[n])
            xi = math.inf if sold == supply else (demand - sold) / (supply - sold)
            writer.writerow([n, repr(float(grid.points[n])),
                             repr(float(plan.prices[n])),
                             repr(float(plan.bounds[n])), int(plan.sales[n]),
                             sold, repr(float(xi))])
    print(f"optimal revenue {plan.revenue_total:.4f} "
          f"(guaranteed {plan.revenue_pg:.4f}, auction {plan.revenue_rtb:.4f}), "
          f"supply share sold forward {plan.gamma:.3f} -> {plan_path}")
    return 0


def _simulated_law(payload):
    """A model file's bid law, or None; the curves it holds must load too."""
    if {"payment_mean_curve", "payment_std_curve"} & set(payload):
        RevenueCurves.from_dict(payload)
    return BidModel.from_dict(payload["bid_model"]) if "bid_model" in payload else None


def cmd_simulate(rc: RunConfig, args):
    cfg = rc.require_market()
    plan = _load_json(args.plan, "plan",
                      lambda payload: PricePlan.from_dict(payload.get("plan", payload)))
    if getattr(args, "model", None):
        bid_model = _load_json(args.model, "model", _simulated_law)
        if bid_model is None:
            raise UsageError(f"model {args.model} carries no bid model")
    elif rc.bid_model is not None:
        bid_model = rc.bid_model
    else:
        raise UsageError("need either --model or a bid_model section")
    n_runs = args.runs if args.runs is not None else rc.n_runs
    seed = args.seed if args.seed is not None else rc.root_seed
    grid = TimeGrid.from_config(cfg)
    summary, _ = evaluate_plan(plan, cfg, grid, bid_model, n_runs, seed)
    path = _out_path(rc, args, "simulation_summary.json")
    _write_json(path, {"schema_version": SCHEMA_VERSION, **summary})
    print(f"simulated {n_runs} markets: revenue {summary['mean_total']:.4f} "
          f"+/- {summary['se_total']:.4f} (plan said {summary['plan_revenue']:.4f})"
          f" -> {path}")
    return 0


def cmd_replan(rc: RunConfig, args):
    cfg, model = _optimizer_model(rc, args)
    spec = rc.uncertainty
    if args.seed is not None:
        base = spec if spec is not None else UncertaintySpec(epsilon=0.1)
        spec = dataclasses.replace(base, noise_seed=args.seed)
    elif spec is None:
        spec = UncertaintySpec(epsilon=0.1, noise_seed=rc.root_seed)
    grid = TimeGrid.from_config(cfg)
    plan, trace = run_replan(cfg, grid, model, spec)
    plan_path = _out_path(rc, args, "replan_plan.json")
    _write_json(plan_path, {"schema_version": SCHEMA_VERSION,
                            "epsilon": spec.epsilon,
                            "noise_kind": spec.noise_kind,
                            "noise_seed": spec.noise_seed,
                            "plan": plan.to_dict()})
    trace_path = _out_path(rc, args, "replan_trace.csv")
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "sell_now", "price", "demand_before",
                         "demand_after", "remaining_supply", "forecast_revenue"])
        for row in trace:
            writer.writerow([row.step, row.sell_now, repr(float(row.price)),
                             row.demand_before, row.demand_after,
                             row.remaining_supply,
                             repr(float(row.forecast_revenue))])
    print(f"replanned under epsilon={spec.epsilon:g} {spec.noise_kind} noise: "
          f"revenue {plan.revenue_total:.4f}, sold forward {plan.total_sold} "
          f"-> {plan_path}")
    return 0


def cmd_segment(rc: RunConfig, args):
    cfg = rc.require_market()
    table = _read_table(args.log)
    result = segment_and_optimize(table, cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "feature": "winning_bid",  # the one split; kept so schema-1 reports keep their bytes
        "fallback_single_group": result.fallback,
        "combined_revenue": result.combined_revenue,
        "segments": [{
            "label": seg.label,
            "auction_count": seg.auction_count,
            "supply": seg.supply,
            "demand": seg.demand,
            "mean_competition": seg.mean_competition,
            "max_value": seg.max_value,
            "rtb_only": seg.rtb_only,
            "revenue": seg.plan.revenue_total,
            "curves": seg.curves.to_dict() if seg.curves is not None else None,
            "plan": seg.plan.to_dict(),
        } for seg in result.segments],
    }
    path = _out_path(rc, args, "segment_report.json")
    _write_json(path, payload)
    parts = ", ".join(f"{seg.label}: {seg.auction_count} auctions, "
                      f"revenue {seg.plan.revenue_total:.4f}"
                      for seg in result.segments)
    print(f"segmented into {len(result.segments)} group(s) ({parts}); "
          f"combined revenue {result.combined_revenue:.4f} -> {path}")
    return 0


# -- argument plumbing ------------------------------------------------------


@functools.cache  # one parser per process: each holds reference cycles
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pgrtb",
        description="Price guaranteed ad contracts jointly with auction inventory.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, seeded=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory override")
        if seeded:  # fit, optimize and segment draw nothing
            p.add_argument("--seed", type=int, default=None, help="seed override")
        return p

    p = add("gen-data", "write a synthetic auction log with known ground truth")
    p = add("fit", "estimate payment curves and value ceiling from a log", seeded=False)
    p.add_argument("--log", required=True, help="auction log CSV")
    p = add("optimize", "compute the revenue-optimal price schedule", seeded=False)
    p.add_argument("--model", default=None, help="fitted model JSON")
    p = add("simulate", "Monte Carlo a plan against the synthetic market")
    p.add_argument("--plan", required=True, help="plan JSON from optimize")
    p.add_argument("--model", default=None, help="fitted model JSON")
    p.add_argument("--runs", type=int, default=None, help="number of runs")
    p = add("replan", "roll the horizon forward under demand noise")
    p.add_argument("--model", default=None, help="fitted model JSON")
    p = add("segment", "split the bid landscape in two and optimize per group",
            seeded=False)
    p.add_argument("--log", required=True, help="auction log CSV")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "fit": cmd_fit,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "replan": cmd_replan,
    "segment": cmd_segment,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("seed", 0), ("runs", 1)):
        if (value := getattr(args, flag, None)) is not None and value < least:
            parser.error(f"argument --{flag}: must be at least {least}")
    try:
        rc = _load_json(args.config, "config", RunConfig._from_raw)
        return _COMMANDS[args.command](rc, args)
    except (UsageError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
