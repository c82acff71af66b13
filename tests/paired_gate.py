"""Paired gate for a change that moves result rows on purpose.

    python tests/paired_gate.py --parent PATH [--change PATH]

PATH is a checkout of the code before the change (`--parent`) or after it
(`--change`, by default the checkout this file sits in).  Each side runs
`run_single` of the desk T sweep (configs/desk_scale.yaml) for run indices
0 .. RUNS-1 at MASTER_SEED, in a process of its own that imports mimoce from
the side's src/.  A change that leaves the geometry stream (id 0) alone
pairs the two sides' runs on geometry, the dominant variance, so the
per-run difference change - parent of one (estimator, T) row is a paired
sample.

For each row the gate prints the mean paired difference, its standard
error (SE) over the runs and their ratio z.  A stochastic row passes when
|z| <= Z, with Z the Bonferroni bound of a two-sided test at level ALPHA
over all stochastic rows.  The exact rows (ls_fixed and mmse_fixed) depend
on the geometry alone, so their SE is 0 and they must be bitwise equal.
RUNS, ALPHA and so Z are fixed here, before any outcome is seen; no
acceptance criterion, tolerance, seed or size is changed because of them.
The table is markdown, for the change's CHANGES.md entry.  Exit status 1
when a row fails.  Not collected by pytest: it needs the parent checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
CONFIG = "configs/desk_scale.yaml"
MASTER_SEED = 1
RUNS = 40
ALPHA = 0.01
EXACT = ("ls_fixed", "mmse_fixed")


def side_rows(checkout: Path) -> dict:
    """{label: {T: [per-run NMSE]}} of one side, run in its own process."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run(
        [sys.executable, str(HERE), "--side", str(checkout)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def run_side(checkout: Path) -> None:
    """Print the per-run rows of the mimoce found on sys.path as JSON."""
    import mimoce
    from mimoce.cli import parse_config
    from mimoce.harness import run_single

    if Path(mimoce.__file__).resolve().parent != (checkout / "src" / "mimoce").resolve():
        raise SystemExit(f"mimoce imported from {mimoce.__file__}, not from {checkout}")
    config = parse_config(
        checkout / CONFIG, [f"master_seed={MASTER_SEED}", f"monte_carlo_runs={RUNS}"]
    )
    values = config.sweep.values
    rows: dict = {}
    for run in range(RUNS):
        for value, contributions in zip(values, run_single(config, values, (MASTER_SEED, run))):
            for c in contributions:
                rows.setdefault(c.estimator, {}).setdefault(str(value), []).append(c.nmse)
    print(json.dumps(rows))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=HERE.parent.parent)
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side:
        run_side(args.side)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    parent, change = side_rows(args.parent), side_rows(args.change)
    stochastic = [
        (label, value) for label in change if label not in EXACT for value in change[label]
    ]
    z_bound = statistics.NormalDist().inv_cdf(1 - ALPHA / (2 * len(stochastic)))
    print(
        f"{CONFIG}, master_seed {MASTER_SEED}, {RUNS} runs per side; difference = change -"
        f" parent; Bonferroni |z| <= {z_bound:.2f} (alpha {ALPHA}, {len(stochastic)} rows)\n"
    )
    print("| row | T | parent | change | difference ± SE | z | |")
    print("|---|---|---|---|---|---|---|")
    failed = 0
    for label, per_value in change.items():
        for value, after in per_value.items():
            before = parent[label][value]
            diffs = [a - b for a, b in zip(after, before)]
            mean = statistics.fmean(diffs)
            se = statistics.stdev(diffs) / math.sqrt(len(diffs))
            if label in EXACT:
                ok, z_text = after == before, "exact"
            else:
                z = mean / se if se else (0.0 if after == before else math.inf)
                ok, z_text = abs(z) <= z_bound, f"{z:+.2f}"
            failed += not ok
            print(
                f"| `{label}` | {value} | {statistics.fmean(before):.5f} |"
                f" {statistics.fmean(after):.5f} | {mean:+.5f} ± {se:.5f} | {z_text} |"
                f" {'ok' if ok else 'FAIL'} |"
            )
    print(f"\n{failed} row(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
