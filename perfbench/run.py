"""Run one benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-d2 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory.  A run is
one process on one thread.  It sets the workload up several times (each
time re-importing modlab and building the first pass's inputs) and reports
the median as ``setup_s``.  Then it makes as many passes as fit the
requested seconds at the workload's nominal pass time, at least one.
Every verdict is checked against ``perfbench/reference``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run makes one untraced pass,
installs the span wrappers, builds the same inputs again and makes one
traced pass.  It asserts that both passes give the same verdicts, prints
the per-layer metrics, and writes the spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time

import tracer as tr
import workloads as wl

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def fresh_import():
    """Import modlab from ``src/`` into a clean module table."""
    for name in [n for n in sys.modules if n == "modlab" or n.startswith("modlab.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("modlab")
        importlib.import_module("modlab.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import modlab from {SRC}: {exc}") from exc
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"modlab imported from {package.__file__}, not from src/")
    return wl.Modlab()


def quantiles_ms(seconds):
    values = sorted(s * 1000 for s in seconds)
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


class Tally:
    """Per-verdict outcomes of a run, judged against the reference."""

    def __init__(self):
        self.counts = {"decided": 0, "refused": 0, "failed": 0}
        self.unreferenced = []
        self.failures = []

    def add(self, work, unit, outcome):
        for key, ref, got in work.verdicts(unit, outcome):
            status, detail = wl.judge(ref, got)
            self.counts[status] += 1
            if status == "failed":
                self.failures.append(f"{key}: {detail}")
            elif detail == "unreferenced":
                self.unreferenced.append(key)

    @property
    def attempted(self):
        return sum(self.counts.values())


def set_up(work, seed):
    """Set up ``setup_reps`` times; returns the last modlab import, the
    first pass's inputs built with it, and the set-up times."""
    setup_times = []
    for _ in range(work.setup_reps):
        # The previous repetition's modules are garbage held in reference
        # cycles; collect them outside the timed interval, so that neither
        # set-up nor the first pass pays for the benchmark's own re-imports.
        gc.collect()
        t0 = time.perf_counter()
        ml = fresh_import()
        units = work.build(ml, seed, 0)
        setup_times.append(time.perf_counter() - t0)
    gc.collect()
    return ml, units, setup_times


def run_pass(work, ml, units, tally, tracer=None):
    """Run and judge every unit; returns (unit seconds, outcomes).  The
    timed region is the units themselves."""
    unit_seconds = []
    outcomes = []
    for i, unit in enumerate(units):
        t0 = time.perf_counter()
        if tracer is None:
            outcome = work.run_unit(ml, unit)
        else:
            tracer.item_id = i + 1
            outcome = tracer.span(tr.ITEM_SPAN, work.run_unit, ml, unit)
        unit_seconds.append(time.perf_counter() - t0)
        outcomes.append((unit["key"], outcome))
    for unit, (_, outcome) in zip(units, outcomes):
        tally.add(work, unit, outcome)
    return unit_seconds, outcomes


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, work, env):
    ml, units, setup_times = set_up(work, args.seed)
    tally = Tally()
    passes = work.passes(args.seconds)
    latencies = []
    for p in range(passes):
        if p:
            units = work.build(ml, args.seed, p)
        unit_seconds, _ = run_pass(work, ml, units, tally)
        latencies.extend(unit_seconds)
        del units
    p50, p90 = quantiles_ms(latencies)
    env.update(passes=passes, units=len(latencies))
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(sum(latencies), "s"),
        "decided_share": metric(tally.counts["decided"] / tally.attempted, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "job_p50_ms": metric(p50, "ms"),
        "job_p90_ms": metric(p90, "ms"),
    }
    return tally, metrics


def traced_run(args, work, env):
    ml, units, _ = set_up(work, args.seed)
    tally = Tally()
    plain_seconds, plain = run_pass(work, ml, units, tally)
    del units
    tracer = tr.Tracer()
    tracer.install()
    units = work.build(ml, args.seed, 0)
    traced_seconds, traced = run_pass(work, ml, units, tally, tracer)
    differ = [key for (key, a), (_, b) in zip(plain, traced)
              if wl.normalize(a) != wl.normalize(b)]
    if differ:
        tally.failures.append("traced verdicts differ from untraced: "
                              + ", ".join(differ))
    metrics = {name: metric(value, unit)
               for name, (value, unit) in tracer.layer_metrics().items()}
    metrics["trace.overhead_s"] = metric(
        sum(traced_seconds) - sum(plain_seconds), "s")
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    env.update(passes=2, spans_file=os.path.relpath(path, ROOT))
    tracer.write_spans(path, env)
    return tally, metrics


def run(args):
    if not os.path.isdir(os.path.join(SRC, "modlab")):
        raise BenchError(f"no modlab sources under {SRC}")
    sys.path.insert(0, SRC)
    work = wl.WORKLOADS[args.workload](wl.load_reference(args.workload))
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg": [round(x, 2) for x in os.getloadavg()]}
    tally, metrics = (traced_run if args.trace else untraced_run)(args, work, env)
    if threading.active_count() != 1:
        raise BenchError("the run started threads; runs must be single-threaded")
    env.update(tally.counts)
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in sorted(metrics.items()):
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for key in tally.unreferenced:
        print(f"unreferenced (refused by the reference, decided now): {key}")
    for line in tally.failures:
        print(f"FAILED {line}")
    return {"correct": not tally.failures,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "run.lock"), "w") as lock:
            # one run at a time: a second run waits here for the first
            fcntl.flock(lock, fcntl.LOCK_EX)
            result = run(args)
    except (BenchError, tr.CoverageError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
