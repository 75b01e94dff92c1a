"""pgrtb benchmark: end-to-end and per-layer timings of the planner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --smoke    # reduced sizes, quick

With ``--trace 0`` a run reports the end-to-end metrics (``setup_s``,
``task_s``, ``peak_mib``); with ``--trace 1`` it reports the per-layer
metrics from spans recorded around pgrtb's public functions. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import TASK_SPAN, Tracer, layer_metrics, src_lines  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-spans"  # raw spans of the last traced run per workload and seed
WORKLOAD_NAMES = ("solve-large", "replan-lognormal", "cli-pipeline")
TASK_CAP = 1000  # task specs built up front; far more than a run can use
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIB = 1024.0 * 1024.0


def import_program():
    """Put the checkout's ``src`` first on the path and import pgrtb from it."""
    if not (SRC / "pgrtb" / "__init__.py").is_file():
        print(f"perfbench: no pgrtb sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import pgrtb

    if Path(pgrtb.__file__).resolve().parent != SRC / "pgrtb":
        print(f"perfbench: imported pgrtb from {pgrtb.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def measure_setup(args, probes):
    """Seconds from starting a fresh interpreter to its task list being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


class Runner:
    """Runs single tasks in scratch directories and keeps the tallies."""

    def __init__(self, workload, workroot):
        self.workload = workload
        self.workroot = workroot
        self.attempted = 0
        self.failed = 0

    def run(self, spec, tracer=None, memory=False):
        """One task: returns (wall seconds, traced peak bytes or None)."""
        workdir = tempfile.mkdtemp(dir=self.workroot)
        self.attempted += 1
        peak = None
        gc.collect()
        if tracer is not None:
            tracer.install()
        if memory:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        try:
            t0 = time.perf_counter()
            if tracer is None:
                output = self.workload.run(spec, workdir, None)
            else:
                output = tracer.call(TASK_SPAN, self.workload.run, spec, workdir, tracer)
            elapsed = time.perf_counter() - t0
        except Exception:
            elapsed = time.perf_counter() - t0
            errors = [traceback.format_exc()]
        else:
            errors = None
        finally:
            if memory:
                peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
            if tracer is not None:
                tracer.uninstall()
        if errors is None:
            try:
                errors = self.workload.check(spec, output)
            except Exception:
                errors = [traceback.format_exc()]
            del output
        shutil.rmtree(workdir)
        if errors:
            self.failed += 1
            for err in errors:
                print(f"perfbench: {self.workload.name}: FAILED: {err}", file=sys.stderr)
        return elapsed, peak


def plain_run(runner, specs, seconds):
    """End-to-end metrics: an untimed peak-memory pass, then timed tasks."""
    _, peak = runner.run(specs[0], memory=True)
    times = []
    start = time.perf_counter()
    for spec in specs:
        if times and time.perf_counter() - start >= seconds:
            break
        times.append(runner.run(spec)[0])
    return times, peak


def traced_run(runner, specs, seconds):
    """Per-layer spans: a peak pass, then each task once traced and once not."""
    tracer = Tracer()
    tracer.memory = True
    runner.run(specs[0], tracer=tracer, memory=True)
    tracer.memory = False
    tracer.spans.clear()
    tracer.counts.clear()
    traced, plain = [], []
    start = time.perf_counter()
    for i, spec in enumerate(specs):
        if traced and time.perf_counter() - start >= seconds:
            break
        # Alternate which side goes first so drift does not favour either.
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                traced.append(runner.run(spec, tracer=tracer)[0])
            else:
                plain.append(runner.run(spec)[0])
    return tracer, traced, plain


def report(name, value, unit, note):
    print(f"{name:<36} {value:>12.6g} {unit:<5} {note}".rstrip())


def run_workload(args):
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    if args.probe:
        workload.tasks(args.seed, TASK_CAP)
        print("ready", flush=True)
        return 0
    specs = workload.tasks(args.seed, TASK_CAP)
    workroot = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runner = Runner(workload, workroot)
    try:
        if args.trace:
            tracer, traced, plain = traced_run(runner, specs, args.seconds)
            # Each task ran back to back with and without spans, so the median
            # of the per-task ratios cancels drift in machine speed.
            overhead = statistics.median(t / p for t, p in zip(traced, plain))
            metrics = layer_metrics(tracer, len(traced), overhead, src_lines(SRC / "pgrtb"))
            spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
            SPANS_DIR.mkdir(exist_ok=True)
            with open(spans_path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
            print(f"[{args.workload}] per-layer, per task, over {len(traced)} traced "
                  f"tasks (self times; peaks from one traced-memory pass); "
                  f"spans in {spans_path.relative_to(ROOT)}")
            for key, m in metrics.items():
                report(key, m["value"], m["unit"], "")
        else:
            setup = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
            times, peak = plain_run(runner, specs, args.seconds)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "task_s": {"value": statistics.median(times), "unit": "s"},
                "peak_mib": {"value": peak / MIB, "unit": "MiB"},
            }
            print(f"[{args.workload}] seed {args.seed}, {args.seconds} s measured")
            report("setup_s", metrics["setup_s"]["value"], "s",
                   f"median of n={len(setup)} fresh interpreters")
            report("task_s", metrics["task_s"]["value"], "s",
                   f"median of n={len(times)} tasks "
                   f"(min {min(times):.4g}, max {max(times):.4g})")
            report("peak_mib", metrics["peak_mib"]["value"], "MiB",
                   "tracemalloc peak of n=1 task, untimed pass")
        report("error_rate", runner.failed / runner.attempted, "ratio",
               f"{runner.failed} failed of n={runner.attempted} tasks")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own interpreter; prints each one's report."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        print("\n".join(lines if result is None else lines[:-1]))
        if proc.returncode != 0 or result is None or not result["correct"]:
            ok = False
            print(f"[{name}] FAILED (exit {proc.returncode})")
        print()
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and one set-up probe, for a quick check")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
