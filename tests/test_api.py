"""The public surface: what the CLI, the demos, the benchmark harness and the
README's library section use, and no name that only the tests call.

``pgrtb.__all__`` is pinned to the audited set, every module's ``__all__``
must resolve, and so must every name the benchmark harness in ``perfbench/``
traces or imports; each of its counters must read a real call's arguments
and result. The harness files are only read here, so a change that would
break the benchmark fails the default test run instead.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import pgrtb
from pgrtb import cli
from pgrtb.solver import DPTables

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = {
    "AuctionTable", "BidLog", "BidModel", "FittedCurve", "MarketConfig",
    "PricePlan", "ReplanStep", "RevenueCurves", "SegmentPlan", "SegmentedMarket",
    "StepTerms", "TimeGrid", "UncertaintySpec",
    "competition_level", "estimate_max_value", "evaluate_plan", "fit_payment_curves",
    "generate_log", "kmeans_1d", "lowess", "optimal_plan",
    "read_log_csv", "reference_bid_model", "reference_config", "replan",
    "replay_revenue", "segment_and_optimize", "summarize_auctions", "write_log_csv",
}


def _dotted(node):
    """``a.b.c`` as ``["a", "b", "c"]``, or None when the chain does not
    start at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def test_package_surface_is_the_audited_set():
    assert len(pgrtb.__all__) == len(set(pgrtb.__all__)) == 29
    assert set(pgrtb.__all__) == PUBLIC


def test_dp_tables_fields_are_pinned():
    """A solve's tables are its states, int32 backpointers and final values;
    each step's values, the chosen prices and their bounds are not stored."""
    assert [f.name for f in dataclasses.fields(DPTables)] == [
        "start_step", "presold", "sale_sets", "back_prev", "h_final"]


def test_auction_table_fields_are_pinned():
    """An auction table keeps each auction's hour, its ranked bids and their
    offsets; its bid count and winning bid are read off those."""
    assert [f.name for f in dataclasses.fields(pgrtb.AuctionTable)] == [
        "hour", "bids", "offsets"]


def test_payment_moments_signature_is_pinned():
    """Both payment models answer one contract, mean and spread at each
    level, with no knob past the reserve."""
    for model in (pgrtb.BidModel, pgrtb.RevenueCurves):
        assert str(inspect.signature(model.payment_moments)) == "(self, xis, reserve=0.0)"


def test_option_surface_is_pinned():
    """The summary, the curve fit, its smoother and the segmentation take no
    fitting options, and the run config holds exactly these sections: a new
    knob changes a pin."""
    assert str(inspect.signature(pgrtb.summarize_auctions)) == "(log)"
    assert str(inspect.signature(pgrtb.fit_payment_curves)) == "(table)"
    assert str(inspect.signature(pgrtb.lowess)) == "(points)"
    assert str(inspect.signature(pgrtb.segment_and_optimize)) == "(table, cfg: 'MarketConfig')"
    assert str(inspect.signature(pgrtb.kmeans_1d)) == "(values)"
    assert set(cli._SECTIONS) == {
        "market", "bid_model", "seeds", "uncertainty", "synthetic", "simulate", "output"}


def test_import_leaves_scipy_out():
    """Each CLI command is a fresh process, and importing the package and
    its CLI loads no scipy module: scipy serves only the tests' oracles."""
    src = str(Path(pgrtb.__file__).resolve().parents[1])
    code = ("import sys, pgrtb, pgrtb.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_every_module_all_resolves():
    names = [f"pgrtb.{m.name}" for m in pkgutil.iter_modules(pgrtb.__path__)]
    for module in [pgrtb] + [importlib.import_module(name) for name in names]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced(module_name, owner, attr):
    holder = importlib.import_module(module_name)
    return getattr(holder if owner is None else getattr(holder, owner), attr, None)


def test_benchmark_traced_names_resolve():
    spans = _spans()
    assert spans._TARGETS
    for module_name, owner, attr, *_ in spans._TARGETS:
        assert callable(_traced(module_name, owner, attr)), (module_name, owner, attr)
    # the plan counter sums the sizes of the DP's per-step state sets
    assert "sale_sets" in {f.name for f in dataclasses.fields(DPTables)}


def test_benchmark_counters_read_real_calls(tmp_path):
    """Each counter the harness records beside a span runs on a small real
    call's arguments and result, passed the way the CLI passes them, and
    the simulation counts one market per run."""
    cfg = pgrtb.MarketConfig(supply_S=20, demand_Q=80, horizon_T=6.0, steps_N=6,
                             arrival_rate_lambda=4.0, max_value_pi=0.6)
    grid = pgrtb.TimeGrid.from_config(cfg)
    model = pgrtb.BidModel.uniform(0.0, 1.0)
    plan, _ = pgrtb.optimal_plan(cfg, grid, model)
    log, _ = pgrtb.generate_log(model, hours=6, auctions_per_hour=4,
                                bidders_per_hour=[2, 3, 4], seed=1)
    curves = pgrtb.RevenueCurves(*pgrtb.fit_payment_curves(pgrtb.summarize_auctions(log)))
    levels = np.array([1.5, 2.0, 3.5])
    calls = {  # a small real call's positional arguments per traced function
        ("pgrtb.solver", None, "optimal_plan"): (cfg, grid, model),
        ("pgrtb.auction", "BidModel", "payment_moments"): (model, levels),
        ("pgrtb.auction", "RevenueCurves", "payment_moments"): (curves, levels),
        ("pgrtb.auction", None, "lowess"): (np.column_stack([levels, levels / 4]),),
        ("pgrtb.logs", None, "write_log_csv"): (log, tmp_path / "log.csv"),
        ("pgrtb.simulate", None, "evaluate_plan"): (plan, cfg, grid, model, 5, 3),
        ("pgrtb.replan", None, "replan"): (cfg, grid, model, pgrtb.UncertaintySpec(0.1, 7)),
    }
    counted = [target for target in _spans()._TARGETS if target[4] is not None]
    assert {tuple(target[:3]) for target in counted} == set(calls)
    counts = defaultdict(float)
    for module_name, owner, attr, _, count in counted:
        args = calls[module_name, owner, attr]
        count(counts, args, {}, _traced(module_name, owner, attr)(*args))
    assert counts["simulate.markets"] == 5
    assert counts["replan.rounds"] == cfg.steps_N + 1
    assert counts["auction.payment_moments.levels"] == 2 * levels.size
    assert counts["logs.rows"] == len(log)


def test_benchmark_imported_names_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pgrtb":
            module = importlib.import_module(node.module)
            for alias in node.names:
                found = hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}") is not None
                assert found, f"{node.module}.{alias.name}"
                checked += 1
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] == "pgrtb":
            obj = pgrtb
            for part in chain[1:]:
                obj = getattr(obj, part)
            checked += 1
    assert checked
