"""Golden rows: every row of three small sweeps, pinned in tests/data.

Each case is a shipped config with overrides, run at every worker count
it lists.  The check compares every fallback count exactly and every
NMSE to RTOL relative.  A rounding-level move (about 1e-15 relative) of a
row passes; a statistical one (1e-4 and more) fails.  Exact bits may
differ across BLAS builds, CPUs and numpy versions, so the check is not
bitwise.

A change that moves rows on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and reports the move.  The generator runs every case at every worker
count and refuses to write rows that differ between them.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_rows.json"
RTOL = 1e-10

CRITERION_6 = (
    "sweep.variable=tau_p",
    "sweep.values=[5, 10, 15, 20]",
    "system.blocks=1500",
    "estimators=[{kind: subt}, {kind: gevd, rank: 8}, {kind: gevd, rank: 16}, {kind: ls_fixed}]",
)

# name: (config, overrides, worker counts)
# At three workers a one-run sweep spreads its batches over three threads,
# each receiving into a buffer set of its own.
CASES = {
    "desk_t_sweep": ("configs/desk_scale.yaml", ("monte_carlo_runs=1",), (1, 2, 3)),
    "desk_tau_p_sweep": (
        "configs/desk_scale.yaml", ("monte_carlo_runs=1", *CRITERION_6), (1, 2, 3)
    ),
    "full_scale_point": (
        "configs/full_scale.yaml",
        ("monte_carlo_runs=1", "sweep.values=[300]", "eval_blocks=50"),
        (1, 3),
    ),
}


def sweep_rows(name: str, workers: int) -> list:
    from mimoce.cli import parse_config
    from mimoce.harness import run_sweep

    config_path, overrides, _ = CASES[name]
    config = parse_config(ROOT / config_path, list(overrides))
    return [
        [r.estimator, r.sweep_value, r.nmse, r.fallback_count]
        for r in run_sweep(config, workers=workers)
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize(
    "name, workers",
    [(name, workers) for name, (_, _, counts) in CASES.items() for workers in counts],
)
def test_rows_match_golden(golden, name, workers):
    rows = sweep_rows(name, workers)
    expected = golden[name]
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    assert [row[3] for row in rows] == [row[3] for row in expected]
    moved = [
        (label, value, nmse, pinned)
        for (label, value, nmse, _), (_, _, pinned, _) in zip(rows, expected)
        if abs(nmse - pinned) > RTOL * abs(pinned)
    ]
    assert not moved, moved


def main() -> None:
    golden = {}
    for name, (_, _, counts) in CASES.items():
        runs = [sweep_rows(name, workers) for workers in counts]
        if any(rows != runs[0] for rows in runs):
            raise SystemExit(f"{name}: rows differ between worker counts {counts}")
        golden[name] = runs[0]
    cases = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in golden.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
