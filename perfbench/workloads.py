"""Benchmark workloads: shipped configs plus overrides, and their worker counts.

Sizes are the problem definition; only ``monte_carlo_runs`` is chosen for
run length.  Each workload separates a different layer:

- desk_t_sweep: the paper's headline T-sweep at desk scale, all seven
  estimators.  Bound by training-block synthesis; the only workload where
  nested T windows could save work.
- desk_tau_p_w2: the tau_p sweep at fixed T=1500 with two sweep workers on
  a two-core box, so the thread pool and BLAS oversubscription show.  It
  has no gevd_impr and no mmse_fixed, so a nested-window or improved-filter
  change must leave it unchanged.
- full_point: one full-scale sweep point (N=100, K=10).  The cubic
  kernels (improved filter, GEVD, solves) dominate; nested windows cannot
  help at a single point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the repository root
    overrides: tuple[str, ...]
    workers: int
    # Spans the workload does not reach: their estimators are not configured.
    unreached: frozenset[str] = frozenset()


WORKLOADS = {
    "desk_t_sweep": Workload(
        config="configs/desk_scale.yaml",
        overrides=("monte_carlo_runs=1",),
        workers=1,
    ),
    "desk_tau_p_w2": Workload(
        config="configs/desk_scale.yaml",
        overrides=(
            "monte_carlo_runs=1",
            "sweep.variable=tau_p",
            "sweep.values=[5, 10, 15, 20]",
            "system.blocks=1500",
            "estimators=[{kind: subt}, {kind: gevd, rank: 8},"
            " {kind: gevd, rank: 16}, {kind: ls_fixed}]",
        ),
        workers=2,
        unreached=frozenset({"estimators.improved_mmse_filter", "estimators.mmse_fixed_filter"}),
    ),
    "full_point": Workload(
        config="configs/full_scale.yaml",
        overrides=("monte_carlo_runs=1", "sweep.values=[300]"),
        workers=1,
    ),
}

# The single-thread reference and the improved-filter share baseline.
REFERENCE = "desk_t_sweep"
