"""One benchmark process: build a workload's config and run its sweeps.

Started by run.py (and, in setup mode, by itself), never by hand.  Prints
one JSON object on stdout.

  --mode setup    import mimoce, build and validate the config, report the
                  set-up time since --t0 (a CLOCK_MONOTONIC reading taken by
                  the parent just before it started this process)
  --mode measure  set up, then run untraced sweeps for --seconds (at least
                  MIN_SWEEPS) and check each sweep's output; after each sweep,
                  start SETUPS_PER_SWEEP setup-only processes, so that set-up
                  samples are spread over the whole run
  --mode trace    run the tracer self-test, then alternate untraced and traced
                  sweeps for --seconds (at least one pair) and derive the
                  per-layer metrics from the traced ones

mimoce is imported from src/ of the checkout this file sits in, and from
nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

MIN_SWEEPS = 3
SETUPS_PER_SWEEP = 2

# mmse_random may exceed a random-allocation data-driven estimator by this
# factor at most: 1.02 is the acceptance criterion 5(b) bound.  gevd_impr
# knows each block's intra-cell pilot choices, which mmse_random does not.
# At one Monte-Carlo run it beats mmse_random at T=1200 of desk_scale by
# more than 2% on 17 of seeds 1-60, by up to 1.25x (seed 43); on full_point
# it stays above 1.8x mmse_random on seeds 1-24.  Its bound allows for that
# spread and still catches a broken improved filter.
MMSE_RANDOM_SLACK = {"subt": 1.02, "gevd": 1.02, "gevd_impr": 1.5}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build_config(workload_name: str, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    import mimoce
    from mimoce.cli import parse_config

    if Path(mimoce.__file__).resolve().parent != ROOT / "src" / "mimoce":
        raise SystemExit(f"mimoce imported from {mimoce.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[workload_name]
    # parse_config validates the config before returning it.
    return parse_config(ROOT / workload.config, [*workload.overrides, f"master_seed={seed}"])


def check_results(results, config) -> list[str]:
    """Orderings and sanity conditions every sweep's output must satisfy."""
    problems = []
    rows = {(r.sweep_value, r.estimator): r for r in results}
    expected = {(int(v), spec.label) for v in config.sweep.values for spec in config.estimators}
    if len(results) != len(expected) or set(rows) != expected:
        problems.append("not exactly one row per (sweep point, estimator)")
    for r in results:
        if not (math.isfinite(r.nmse) and r.nmse > 0):
            problems.append(f"nmse of {r.estimator} at {r.sweep_value} is {r.nmse}")
    for value in config.sweep.values:
        mmse = rows.get((value, "mmse_random"))
        for spec in config.estimators:
            other = rows.get((value, spec.label))
            slack = MMSE_RANDOM_SLACK.get(spec.kind)
            if mmse and other and slack and not mmse.nmse <= slack * other.nmse:
                problems.append(f"mmse_random > {slack} x {spec.label} at {value}")
        fixed, ls = rows.get((value, "mmse_fixed")), rows.get((value, "ls_fixed"))
        if fixed and ls and not fixed.nmse <= ls.nmse:
            problems.append(f"mmse_fixed > ls_fixed at {value}")
    return problems


def fingerprint(results) -> list:
    return [(r.estimator, r.sweep_value, r.nmse.hex(), r.fallback_count) for r in results]


def nmse_table(results) -> list:
    return [
        [r.estimator, r.sweep_variable, r.sweep_value, r.nmse_db, r.fallback_count]
        for r in results
    ]


def nominal_blocks(config) -> int:
    """Training plus evaluation blocks over all (sweep point, run) pairs, from the config."""
    per_run = sum(config.system_for(v).blocks + config.eval_blocks for v in config.sweep.values)
    return per_run * config.monte_carlo_runs


def blas_threads() -> dict[str, int]:
    """Thread counts of the OpenBLAS builds numpy and scipy load, read via ctypes."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "libscipy_openblas" in line})
    threads = {}
    for path in paths:
        if "openblas64_" in Path(path).name:  # numpy's ILP64 build
            owner, symbol = "numpy", "scipy_openblas_get_num_threads64_"
        else:
            owner, symbol = "scipy", "scipy_openblas_get_num_threads"
        getter = getattr(ctypes.CDLL(path), symbol)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        threads[f"{owner}:{Path(path).name}"] = getter()
    return threads


def environment(workers: int, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "workers": workers,
        "seed": seed,
    }


class Sweeper:
    """Runs and checks sweeps of one config; every sweep must match the first bitwise."""

    def __init__(self, config, workers: int):
        from mimoce.harness import run_sweep

        self._run_sweep = run_sweep
        self.config = config
        self.workers = workers
        self.first = None
        self.table = None
        self.fallbacks = None
        self.problems: list[list[str]] = []

    def sweep(self) -> float:
        start = now()
        results = self._run_sweep(self.config, workers=self.workers)
        elapsed = now() - start
        problems = check_results(results, self.config)
        if self.first is None:
            self.first = fingerprint(results)
            self.table = nmse_table(results)
            self.fallbacks = sum(r.fallback_count for r in results)
        elif fingerprint(results) != self.first:
            problems.append("output differs bitwise from the first sweep at this seed")
        self.problems.append(problems)
        return elapsed


def setup_only(args) -> float:
    """Set-up time of a fresh process that only builds this run's config."""
    command = [
        sys.executable, __file__, "--mode", "setup", "--workload", args.workload,
        "--seed", str(args.seed), "--t0", repr(now()),
    ]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)["setup_s"]


def measure(args, config, workload, out: dict) -> None:
    sweeper = Sweeper(config, workload.workers)
    times: list[float] = []
    setups: list[float] = []
    start = now()
    while True:
        times.append(sweeper.sweep())
        setups += [setup_only(args) for _ in range(SETUPS_PER_SWEEP)]
        spent = now() - start
        if len(times) >= MIN_SWEEPS and spent + statistics.median(times) > args.seconds:
            break
    out.update(
        sweep_s=times,
        setup_only_s=setups,
        problems=sweeper.problems,
        nominal_blocks=nominal_blocks(config),
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        nmse_db=sweeper.table,
        fallbacks=sweeper.fallbacks,
    )


def trace(args, config, workload, out: dict) -> None:
    import layers
    import selftest
    from tracer import Tracer

    selftest.run()
    sweeper = Sweeper(config, workload.workers)
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    start = now()
    while True:
        untraced.append(sweeper.sweep())
        tracer.install(layers.TARGETS)
        try:
            traced.append(sweeper.sweep())
        finally:
            tracer.uninstall()
        pair = statistics.median(untraced) + statistics.median(traced)
        if now() - start + pair > args.seconds:
            break
    spans = tracer.take()
    metrics = layers.layer_metrics(spans, len(traced), sum(traced), workload.workers)
    metrics["harness.fallbacks"] = (sweeper.fallbacks, "count")
    reached = {span.name for span in spans}
    expected = layers.SPAN_NAMES - workload.unreached
    span_problems = [f"span {name} recorded zero calls" for name in sorted(expected - reached)]
    span_problems += [
        f"span {name} was reached but the workload has no estimator that needs it"
        for name in sorted(reached & workload.unreached)
    ]
    out.update(
        untraced_s=untraced,
        traced_s=traced,
        problems=sweeper.problems,
        span_problems=span_problems,
        metrics=metrics,
        largest_child=layers.largest_child(spans),
        nmse_db=sweeper.table,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    config = build_config(args.workload, args.seed)
    out = {"setup_s": now() - args.t0}
    if args.mode != "setup":
        workload = WORKLOADS[args.workload]
        out["environment"] = environment(workload.workers, args.seed)
        (measure if args.mode == "measure" else trace)(args, config, workload, out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
