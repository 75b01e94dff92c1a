"""Spans around the public functions of pgrtb, recorded from outside the package.

The tracer swaps each traced function for a wrapper in every ``pgrtb``
module that binds it by name (``optimal_plan`` is imported by name into
``replan``, ``segmentation`` and ``cli``, so patching ``solver`` alone would
miss most calls), and restores the originals on ``uninstall``. Spans are
kept in memory as ``[name, start, end, parent]`` and folded into per-layer
numbers when the run ends. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder with optional per-span traced-memory peaks."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)  # name -> largest peak above the span's start, bytes
        self.memory = False
        self._mem_stack = []  # per open span: [start current, largest absolute peak seen]
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                top = self._mem_stack[-1]
                top[1] = max(top[1], peak)
            self._mem_stack.append([cur, cur])
            tracemalloc.reset_peak()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if self.memory:
            start_cur, seen = self._mem_stack.pop()
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            name = self.spans[idx][0]
            self.peaks[name] = max(self.peaks[name], peak - start_cur)
            if self._mem_stack:
                top = self._mem_stack[-1]
                top[1] = max(top[1], peak)

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- patching -------------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every binding of every traced function inside ``pgrtb``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "pgrtb" or n.startswith("pgrtb.")) and m is not None]
        for module_name, owner, attr, name, count in _TARGETS:
            holder = sys.modules[module_name]
            if owner is not None:
                holder = getattr(holder, owner)
            original = getattr(holder, attr)
            wrapper = self._wrap(name, original, count)
            if owner is not None:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []


# -- counters recorded beside the spans ----------------------------------------


def _count_plan(counts, args, kwargs, result):
    sale_sets = result[1].sale_sets
    cells = 0
    prev = 1  # the first step's predecessor is the single start state
    for ys in sale_sets:
        cells += len(ys) * prev
        prev = len(ys)
    counts["solver.optimal_plan.cells"] += cells


def _count_levels(counts, args, kwargs, result):
    counts["auction.payment_moments.levels"] += result[0].size


def _count_points(counts, args, kwargs, result):
    counts["auction.lowess.points"] += len(args[0] if args else kwargs["points"])


def _count_log_rows(counts, args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["logs.rows"] += len(records)
    counts["logs.csv_bytes"] += os.path.getsize(path)


def _count_markets(counts, args, kwargs, result):
    counts["simulate.markets"] += len(result[1])


def _count_rounds(counts, args, kwargs, result):
    counts["replan.rounds"] += len(result[1])


# (module, class or None, attribute, span name, counter) per traced function.
_TARGETS = [
    ("pgrtb.solver", None, "optimal_plan", "solver.optimal_plan", _count_plan),
    ("pgrtb.auction", "BidModel", "payment_moments", "auction.payment_moments",
     _count_levels),
    ("pgrtb.auction", "RevenueCurves", "payment_moments",
     "auction.payment_moments", _count_levels),
    ("pgrtb.auction", None, "fit_payment_curves", "auction.fit_payment_curves", None),
    ("pgrtb.auction", None, "lowess", "auction.lowess", _count_points),
    ("pgrtb.auction", None, "estimate_max_value", "auction.estimate_max_value", None),
    ("pgrtb.logs", None, "write_log_csv", "logs.write_log_csv", _count_log_rows),
    ("pgrtb.logs", None, "read_log_csv", "logs.read_log_csv", None),
    ("pgrtb.logs", None, "summarize_auctions", "logs.summarize_auctions", None),
    ("pgrtb.simulate", None, "generate_log", "simulate.generate_log", None),
    ("pgrtb.simulate", None, "evaluate_plan", "simulate.evaluate_plan", _count_markets),
    # ``pgrtb.replan`` is the function (the package re-exports it over the
    # module name), so the module is reached through sys.modules.
    ("pgrtb.replan", None, "replan", "replan.replan", _count_rounds),
    ("pgrtb.segmentation", None, "segment_and_optimize",
     "segmentation.segment_and_optimize", None),
    ("pgrtb.segmentation", None, "kmeans_1d", "segmentation.kmeans_1d", None),
]


CLI_COMMANDS = ("gen-data", "fit", "optimize", "simulate", "replan", "segment")

# Self-time layers; each gives a ``<name>.s`` metric.
TIMED_LAYERS = [
    "solver.optimal_plan",
    "auction.payment_moments",
    "auction.fit_payment_curves",
    "auction.lowess",
    "auction.estimate_max_value",
    "logs.write_log_csv",
    "logs.read_log_csv",
    "logs.summarize_auctions",
    "simulate.generate_log",
    "simulate.evaluate_plan",
    "replan.replan",
    "segmentation.segment_and_optimize",
    "segmentation.kmeans_1d",
] + [f"cli.{c}" for c in CLI_COMMANDS]

TASK_SPAN = "task"


def self_times(spans):
    """Self seconds per span name: duration minus the durations of direct children."""
    own = [s[2] - s[1] for s in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = defaultdict(float)
    calls = defaultdict(int)
    for (name, _, _, _), t in zip(spans, own):
        totals[name] += t
        calls[name] += 1
    return totals, calls


def src_lines(src_dir):
    total = 0
    for dirpath, _, files in os.walk(src_dir):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def layer_metrics(tracer, n_tasks, overhead_ratio, repo_lines):
    """Per-task per-layer numbers from the recorded spans, counters and peaks."""
    totals, calls = self_times(tracer.spans)
    c = tracer.counts
    per = 1.0 / n_tasks
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for layer in TIMED_LAYERS:
        put(f"{layer}.s", totals[layer] * per, "s")
    put("cli.self.s", sum(totals[f"cli.{cmd}"] for cmd in CLI_COMMANDS) * per, "s")

    plan_s = totals["solver.optimal_plan"]
    cells = c["solver.optimal_plan.cells"]
    put("solver.optimal_plan.calls", calls["solver.optimal_plan"] * per, "count")
    put("solver.optimal_plan.cells", cells * per, "count")
    put("solver.optimal_plan.ns_per_cell", plan_s / cells * 1e9 if cells else 0.0, "ns")
    put("solver.optimal_plan.peak_mib", tracer.peaks["solver.optimal_plan"] / MIB, "MiB")

    pm_s = totals["auction.payment_moments"]
    levels = c["auction.payment_moments.levels"]
    put("auction.payment_moments.calls", calls["auction.payment_moments"] * per, "count")
    put("auction.payment_moments.levels", levels * per, "count")
    put("auction.payment_moments.us_per_level",
        pm_s / levels * 1e6 if levels else 0.0, "us")
    put("auction.lowess.points", c["auction.lowess.points"] * per, "count")
    put("auction.lowess.peak_mib", tracer.peaks["auction.lowess"] / MIB, "MiB")

    put("logs.rows", c["logs.rows"] * per, "count")
    put("logs.csv_mib", c["logs.csv_bytes"] * per / MIB, "MiB")
    put("logs.read_log_csv.peak_mib", tracer.peaks["logs.read_log_csv"] / MIB, "MiB")

    sim_s = totals["simulate.evaluate_plan"]
    put("simulate.markets_per_s", c["simulate.markets"] / sim_s if sim_s else 0.0, "1/s")
    put("replan.rounds", c["replan.rounds"] * per, "count")

    put("repo.src_lines", repo_lines, "lines")
    put("trace.overhead_pct", (overhead_ratio - 1.0) * 100.0, "%")
    task_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == TASK_SPAN)
    put("trace.unattributed_pct",
        totals[TASK_SPAN] / task_total * 100.0 if task_total else 0.0, "%")
    return m
