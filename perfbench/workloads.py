"""The three workloads: how each builds its tasks from a seed, runs one, and checks it.

A task spec is a plain dict made from the benchmark seed. ``run`` performs
the timed work and returns what ``check`` needs; ``check`` compares the
output with oracles that do not share the code path under test and returns
a list of failure messages (empty when the task is correct).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np

import pgrtb
from pgrtb import (
    BidModel,
    MarketConfig,
    PricePlan,
    RevenueCurves,
    TimeGrid,
    UncertaintySpec,
    reference_config,
    replay_revenue,
)
from pgrtb import cli

REL_REPLAY = 1e-9
REL_CLOSED_FORM = 1e-7
REL_QUAD = 1e-7


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _plan_limits(plan: PricePlan, supply, where):
    errors = []
    if not np.all(np.asarray(plan.prices) <= np.asarray(plan.bounds)):
        errors.append(f"{where}: a price exceeds its bound")
    if plan.total_sold > supply:
        errors.append(f"{where}: sold {plan.total_sold} > supply {supply}")
    return errors


def _plan_replays(plan, cfg, grid, model, where):
    pg, rtb, total = replay_revenue(plan, cfg, grid, model)
    errors = []
    for label, got, want in (("pg", pg, plan.revenue_pg), ("rtb", rtb, plan.revenue_rtb),
                             ("total", total, plan.revenue_total)):
        if not _close(got, want, REL_REPLAY):
            errors.append(f"{where}: replayed {label} {got!r} != plan {want!r}")
    return errors


def _market_dict(**changes):
    return dataclasses.asdict(dataclasses.replace(reference_config(), **changes))


# -- solve-large -----------------------------------------------------------------


class SolveLarge:
    """One dense-DP solve of a large market with uniform bids."""

    name = "solve-large"

    def __init__(self, smoke=False):
        self.supply = 200 if smoke else 1600

    def tasks(self, seed, count):
        # Q sets how many DP states are live, so task time varies with it by
        # about a third. A golden-ratio sequence from a seeded start spreads
        # every prefix of the task list evenly over [3S, 5S), which keeps the
        # median of a short run from depending on a lucky draw of Q.
        start = np.random.default_rng(seed).random()
        S = self.supply
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        demands = [3 * S + int(2 * S * ((start + i * golden) % 1.0)) for i in range(count)]
        return [{"market": _market_dict(supply_S=S, demand_Q=int(Q),
                                        arrival_rate_lambda=0.2 * int(Q) / 30.0),
                 "bid_model": {"kind": "uniform", "low": 0.0, "high": 1.0}}
                for Q in demands]

    def run(self, spec, workdir, tracer):
        cfg = MarketConfig(**spec["market"])
        grid = TimeGrid.from_config(cfg)
        model = BidModel.from_dict(spec["bid_model"])
        plan, _ = pgrtb.solver.optimal_plan(cfg, grid, model)
        return cfg, grid, plan

    def check(self, spec, output):
        cfg, grid, plan = output
        S = cfg.supply_S
        errors = _plan_limits(plan, S, self.name)
        errors += _plan_replays(plan, cfg, grid, BidModel.from_dict(spec["bid_model"]),
                                self.name)
        y = plan.total_sold
        if y < S:
            xi = plan.xi_terminal
            want = (S - y) * (xi - 1.0) / (xi + 1.0)  # E[2nd of xi U(0,1)] = (xi-1)/(xi+1)
            if not _close(plan.revenue_rtb, want, REL_CLOSED_FORM):
                errors.append(f"{self.name}: revenue_rtb {plan.revenue_rtb!r} != "
                              f"closed form {want!r}")
        elif plan.revenue_rtb != 0.0:
            errors.append(f"{self.name}: sold out but revenue_rtb is {plan.revenue_rtb!r}")
        return errors


# -- replan-lognormal ------------------------------------------------------------


def _lognormal_payment_mean(xi, mu, sigma):
    """E[second highest of xi lognormal draws] by scipy quad in bid space."""
    from scipy import integrate, stats  # check-only; kept out of the timed set-up

    law = stats.lognorm(s=sigma, scale=math.exp(mu))
    c = xi * (xi - 1.0)

    def integrand(x):
        F = law.cdf(x)
        return x * c * law.pdf(x) * (1.0 - F) * F ** (xi - 2.0)

    hi = math.exp(mu + 12.0 * sigma)
    value, _ = integrate.quad(integrand, 0.0, hi, epsabs=1e-13, epsrel=1e-12,
                              limit=400, points=[math.exp(mu)])
    return value


class ReplanLognormal:
    """One rolling-horizon replan walk on the reference market, lognormal bids."""

    name = "replan-lognormal"
    bid_model = {"kind": "lognormal", "mu": -0.5, "sigma": 0.5}

    def __init__(self, smoke=False):
        pass  # already small: smoke mode runs it unchanged

    def tasks(self, seed, count):
        rng = np.random.default_rng(seed)
        noise_seeds = rng.integers(0, 2**31 - 1, size=count)
        return [{"market": _market_dict(),
                 "bid_model": dict(self.bid_model),
                 "uncertainty": {"epsilon": 0.1, "noise_seed": int(s),
                                 "noise_kind": "gaussian"}}
                for s in noise_seeds]

    def run(self, spec, workdir, tracer):
        cfg = MarketConfig(**spec["market"])
        grid = TimeGrid.from_config(cfg)
        model = BidModel.from_dict(spec["bid_model"])
        plan, steps = pgrtb.replan(cfg, grid, model, UncertaintySpec(**spec["uncertainty"]))
        return cfg, plan, steps

    def check(self, spec, output):
        cfg, plan, steps = output
        S = cfg.supply_S
        errors = _plan_limits(plan, S, self.name)
        coef = 1.0 - cfg.miss_prob_omega * cfg.penalty_size_varpi
        pg = 0.0
        for price, z in zip(plan.prices, plan.sales):
            if z:
                pg = pg + (coef * float(price)) * int(z)
        if pg != plan.revenue_pg:
            errors.append(f"{self.name}: committed revenue {plan.revenue_pg!r} does not "
                          f"replay from prices x sales ({pg!r})")
        if len(steps) != cfg.steps_N + 1:
            errors.append(f"{self.name}: {len(steps)} rounds, expected {cfg.steps_N + 1}")
        xi = plan.xi_terminal
        y = plan.total_sold
        if 2.0 <= xi < math.inf and y < S:
            got = plan.revenue_rtb / (S - y)
            want = _lognormal_payment_mean(xi, spec["bid_model"]["mu"],
                                           spec["bid_model"]["sigma"])
            if not _close(got, want, REL_QUAD):
                errors.append(f"{self.name}: terminal payment mean {got!r} at xi={xi!r} "
                              f"!= quad {want!r}")
        return errors


# -- cli-pipeline ----------------------------------------------------------------

_README_CONFIG = {
    "schema_version": 1,
    "market": _market_dict(),
    "bid_model": {"kind": "uniform", "low": 0.0, "high": 1.0},
    "synthetic": {"hours": 96, "auctions_per_hour": 60,
                  "bidders_per_hour": [2, 3, 4, 5, 6, 7, 8]},
    "seeds": {"root": 7},
    "simulate": {"n_runs": 250},
    "output": {"dir": "out"},
}

_RESULT_FILES = ("fitted_model.json", "plan.json", "simulation_summary.json",
                 "replan_plan.json", "segment_report.json")


class CliPipeline:
    """The six CLI commands in README order, called in-process through ``cli.main``."""

    name = "cli-pipeline"

    def __init__(self, smoke=False):
        self.smoke = smoke

    def tasks(self, seed, count):
        rng = np.random.default_rng(seed)
        roots = rng.integers(0, 2**31 - 1, size=count)
        specs = []
        for root in roots:
            cfg = json.loads(json.dumps(_README_CONFIG))
            cfg["seeds"]["root"] = int(root)
            if self.smoke:
                cfg["synthetic"].update(hours=14, auctions_per_hour=10)
                cfg["simulate"]["n_runs"] = 50
            specs.append(cfg)
        return specs

    def run(self, spec, workdir, tracer):
        out = os.path.join(workdir, "out")
        config = dict(spec, output={"dir": out})
        config_path = os.path.join(workdir, "run.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        log = os.path.join(out, "auction_log.csv")
        model = os.path.join(out, "fitted_model.json")
        argvs = [
            ["gen-data"],
            ["fit", "--log", log],
            ["optimize", "--model", model],
            ["simulate", "--plan", os.path.join(out, "plan.json"), "--model", model],
            ["replan", "--model", model],
            ["segment", "--log", log],
        ]
        codes = []
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for argv in argvs:
                full = argv[:1] + ["--config", config_path] + argv[1:]
                if tracer is None:
                    codes.append(cli.main(full))
                else:
                    codes.append(tracer.call(f"cli.{argv[0]}", cli.main, full))
        return out, [a[0] for a in argvs], codes, captured.getvalue()

    def check(self, spec, output):
        out, commands, codes, text = output
        errors = [f"{self.name}: `{cmd}` exited {code}: {text[-500:]!r}"
                  for cmd, code in zip(commands, codes) if code != 0]
        if errors:
            return errors
        docs = {}
        for fname in _RESULT_FILES:
            try:
                with open(os.path.join(out, fname)) as fh:
                    docs[fname] = json.load(fh)
            except (OSError, ValueError) as exc:
                errors.append(f"{self.name}: {fname} unreadable: {exc}")
                continue
            if docs[fname].get("schema_version") != 1:
                errors.append(f"{self.name}: {fname} schema_version "
                              f"{docs[fname].get('schema_version')!r}")
        try:  # parses; it carries no schema_version at this commit, so none is required
            with open(os.path.join(out, "ground_truth.json")) as fh:
                json.load(fh)
        except (OSError, ValueError) as exc:
            errors.append(f"{self.name}: ground_truth.json unreadable: {exc}")
        if errors:
            return errors
        fitted = docs["fitted_model.json"]
        cfg = MarketConfig(**dict(spec["market"], max_value_pi=float(fitted["max_value"])))
        grid = TimeGrid.from_config(cfg)
        plan = PricePlan.from_dict(docs["plan.json"]["plan"])
        errors += _plan_limits(plan, cfg.supply_S, "plan.json")
        errors += _plan_replays(plan, cfg, grid, RevenueCurves.from_dict(fitted), "plan.json")
        replanned = PricePlan.from_dict(docs["replan_plan.json"]["plan"])
        errors += _plan_limits(replanned, cfg.supply_S, "replan_plan.json")
        n_runs = docs["simulation_summary.json"].get("n_runs")
        if n_runs != spec["simulate"]["n_runs"]:
            errors.append(f"{self.name}: simulated {n_runs} runs, asked for "
                          f"{spec['simulate']['n_runs']}")
        report = docs["segment_report.json"]
        parts = sum(seg["revenue"] for seg in report["segments"])
        if not _close(report["combined_revenue"], parts, 1e-12):
            errors.append(f"{self.name}: combined_revenue {report['combined_revenue']!r} "
                          f"!= sum of segments {parts!r}")
        return errors


WORKLOADS = {w.name: w for w in (SolveLarge, ReplanLognormal, CliPipeline)}
