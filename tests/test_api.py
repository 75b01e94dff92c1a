"""The public surface: what the CLI, the demos, the benchmark harness and the
README's library section use, and no name that only the tests call.

``pgrtb.__all__`` is pinned to the audited set, every module's ``__all__``
must resolve, and so must every name the benchmark harness in ``perfbench/``
traces or imports. The harness files are only read here, so a rename that
would break the benchmark fails the default test run instead.
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
from pathlib import Path

import pgrtb
from pgrtb import cli
from pgrtb.solver import DPTables

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = {
    "AuctionTable", "BidLog", "BidModel", "DPTables", "FittedCurve", "MarketConfig",
    "PricePlan", "ReplanStep", "RevenueCurves", "SegmentPlan", "SegmentedMarket",
    "SimOutcome", "StepTerms", "TimeGrid", "UncertaintySpec",
    "competition_level", "estimate_max_value", "evaluate_plan", "fit_payment_curves",
    "generate_log", "kmeans_1d", "lowess", "mc_second_price", "optimal_plan",
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
    assert len(pgrtb.__all__) == len(set(pgrtb.__all__)) == 32
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
    assert str(inspect.signature(pgrtb.segment_and_optimize)) == \
        "(table, cfg: 'MarketConfig', *, feature='winning_bid')"
    assert str(inspect.signature(pgrtb.kmeans_1d)) == "(values)"
    assert set(cli._SECTIONS) == {
        "market", "bid_model", "seeds", "uncertainty", "segmentation", "synthetic",
        "simulate", "output"}


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


def test_benchmark_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._TARGETS
    for module_name, owner, attr, *_ in spans._TARGETS:
        holder = importlib.import_module(module_name)
        if owner is not None:
            holder = getattr(holder, owner)
        assert callable(getattr(holder, attr, None)), (module_name, owner, attr)
    # the plan counter sums the sizes of the DP's per-step state sets
    assert "sale_sets" in {f.name for f in dataclasses.fields(DPTables)}


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
