"""Benchmark of mimoce's Monte-Carlo NMSE sweeps.

    python3 perfbench/run.py --workload desk_t_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; mimoce is taken from src/ and the shipped configs from
configs/ of the checkout this file sits in.  The workload seed becomes the
config's master_seed.  ``--workload all`` runs every workload in turn.

--trace 0 (end-to-end metrics, tracing off):
  sweep_s       median wall time of one run_sweep call, over the sweeps that
                fit in --seconds (at least three)
  blocks_per_s  nominal coherence blocks of the config / sweep_s
  setup_s       median, over the measuring process and fresh set-up-only
                processes started between its sweeps, of the time from process
                start to a built and validated config (the first run_sweep call)
  peak_rss_mb   peak resident memory of the process that ran the sweeps

--trace 1 (per-layer metrics): a separate process alternates untraced and
traced sweeps, wrapping mimoce's public functions from outside (layers.py),
and reports per-sweep time and counts per layer, the tracing overhead, and
the single-BLAS-thread reference time of desk_t_sweep.

Every sweep's output is checked (sweep.check_results, and bitwise equality
across sweeps at one seed); a sweep that fails counts as a failed operation
and makes the command exit 1.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A record of each run,
with the environment and the NMSE table, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# The layer-separation self-check: improved-filter share of run time on
# full_point over its share on desk_t_sweep.
IMPROVED_SHARE_FACTOR = 4.0
LARGEST_CHILD = {
    "desk_t_sweep": "airlink.simulate_blocks",
    "desk_tau_p_w2": "airlink.simulate_blocks",
}
# Leaves headroom under the 180 s a run may take.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A benchmark process failed; no result can be reported."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Children:
    """Starts sweep.py processes against one overall deadline."""

    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline

    def run(self, mode: str, workload: str, *extra: str, env: dict | None = None) -> dict:
        t0 = now()
        command = [
            sys.executable, str(HERE / "sweep.py"), "--mode", mode, "--workload", workload,
            "--seed", str(self.seed), "--t0", repr(t0), *extra,
        ]
        try:
            proc = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                timeout=max(self.deadline - t0, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process for {workload} ran past the time budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def failed_sweeps(problems: list[list[str]]) -> int:
    return sum(1 for p in problems if p)


def distinct(problems: list[list[str]]) -> list[str]:
    return sorted({p for per_sweep in problems for p in per_sweep})


def improved_share(metrics: dict) -> float:
    """Share of run_single time spent building improved filters."""
    return metrics["estimators.improved_mmse_filter.s"][0] / metrics["harness.run_single.s"][0]


def run_untraced(children: Children, workload: str, seconds: float) -> dict:
    child = children.run("measure", workload, "--seconds", str(seconds))
    setup = [child["setup_s"], *child["setup_only_s"]]
    sweep_s = statistics.median(child["sweep_s"])
    return {
        "metrics": {
            "sweep_s": (sweep_s, "s"),
            "blocks_per_s": (child["nominal_blocks"] / sweep_s, "blocks/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (child["peak_rss_kib"] / 1024.0, "MiB"),
        },
        "attempted": len(child["sweep_s"]),
        "failed": failed_sweeps(child["problems"]),
        "problems": distinct(child["problems"]),
        "record": {**child, "setup_samples_s": setup},
    }


def run_traced(children: Children, workload: str, seconds: float) -> dict:
    child = children.run("trace", workload, "--seconds", str(seconds))
    metrics = dict(child["metrics"])
    traced_s = statistics.median(child["traced_s"])
    metrics["trace.sweep_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(child["untraced_s"]), "s")
    problems = child["span_problems"] + distinct(child["problems"])
    attempted = len(child["untraced_s"]) + len(child["traced_s"])
    failed = failed_sweeps(child["problems"])
    record = {"trace": child}

    expected_child = LARGEST_CHILD.get(workload)
    if expected_child and child["largest_child"] != expected_child:
        problems.append(
            f"largest child span of run_single is {child['largest_child']}, not {expected_child}"
        )
    if workload == "full_point":
        baseline = children.run("trace", REFERENCE)
        record["share_baseline"] = baseline
        attempted += len(baseline["untraced_s"]) + len(baseline["traced_s"])
        failed += failed_sweeps(baseline["problems"])
        problems += baseline["span_problems"] + distinct(baseline["problems"])
        base_share = improved_share(baseline["metrics"])
        ratio = improved_share(child["metrics"]) / base_share if base_share else 0.0
        record["improved_share_ratio"] = ratio
        if ratio < IMPROVED_SHARE_FACTOR:
            problems.append(
                f"improved_mmse_filter share on full_point is {ratio:.2f} x its share on "
                f"{REFERENCE}, below {IMPROVED_SHARE_FACTOR}"
            )

    # The reference is the one process that pins BLAS to a single thread.
    reference = children.run(
        "measure", REFERENCE, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    )
    threads = reference["environment"]["blas_threads"]
    if len(threads) != 2 or set(threads.values()) != {1}:
        raise BenchError(f"single-thread reference ran with BLAS threads {threads}")
    record["blas1_reference"] = reference
    metrics["ref.blas1_sweep_s"] = (statistics.median(reference["sweep_s"]), "s")
    attempted += len(reference["sweep_s"])
    failed += failed_sweeps(reference["problems"])
    problems += distinct(reference["problems"])
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "record": record,
    }


def declared_metrics(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(children: Children, workload: str, args) -> dict:
    run = (run_traced if args.trace else run_untraced)(children, workload, args.seconds)
    mismatch = set(declared_metrics(args.trace)) ^ set(run["metrics"])
    if mismatch:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    run["correct"] = run["failed"] == 0 and not run["problems"]
    environment = run["record"].get("environment") or run["record"]["trace"]["environment"]
    environment["git_commit"] = git_commit()

    record_path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as handle:
        json.dump({"workload": workload, "argv": sys.argv[1:], **run}, handle, indent=1)

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(f"  failed {run['failed']} of {run['attempted']} operations")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  environment {json.dumps(environment)}")
    print(f"  record {record_path.relative_to(ROOT)}")
    return run


def result_line(runs: dict[str, dict]) -> str:
    prefix = len(runs) > 1
    metrics = {
        (f"{workload}.{name}" if prefix else name): {"value": value, "unit": unit}
        for workload, run in runs.items()
        for name, (value, unit) in run["metrics"].items()
    }
    return json.dumps(
        {
            "correct": all(run["correct"] for run in runs.values()),
            "attempted": sum(run["attempted"] for run in runs.values()),
            "failed": sum(run["failed"] for run in runs.values()),
            "metrics": metrics,
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/mimoce", "configs") if not (ROOT / p).is_dir()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    runs = {}
    try:
        for name in names:
            children = Children(args.seed, now() + RUN_BUDGET_S)
            runs[name] = run_workload(children, name, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(runs))
    return 0 if all(run["correct"] for run in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
