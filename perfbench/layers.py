"""Which mimoce functions the traced pass wraps, and the per-layer metrics.

Spans are named ``<module>.<qualname>``.  Counts are computed from each
call's arguments and result; flop counts are computed from array shapes,
not measured.
"""

from __future__ import annotations

import math

from tracer import Span, SpanStats, Target, child_totals, summarize


def _simulate_blocks_counts(args, kwargs, result):
    channels = args[0] if args else kwargs["channels"]
    blocks, cells, ues, n = channels.shape
    pilot_rx, data_rx = result
    tau_c = pilot_rx.shape[2] + data_rx.shape[2]  # samples synthesized per block
    # 8 real flops per complex multiply-add: the UE superposition over L*K
    # links plus the N x N noise colouring, for every sample.
    flop = 8 * blocks * cells * ues * n * tau_c + 8 * blocks * n * n * tau_c
    return {"blocks": blocks, "flop": flop}


def _sample_channels_counts(args, kwargs, result):
    return {"vectors": math.prod(result.shape[:-1])}


def _accumulator_add_counts(args, kwargs, result):
    signals = args[1] if len(args) > 1 else kwargs["signals"]
    return {"samples": signals.size // signals.shape[-2]}


def _lowrank_counts(args, kwargs, result):
    return {"rank_effective": result.rank_effective, "rank_requested": result.rank_requested}


def _improved_counts(args, kwargs, result):
    return {"clamped": int(result.clamped)}


TARGETS = [
    Target("mimoce.airlink", "simulate_blocks", "airlink.simulate_blocks", _simulate_blocks_counts),
    Target("mimoce.airlink", "despread_batch", "airlink.despread_batch"),
    Target("mimoce.channel", "bs_covariances", "channel.bs_covariances"),
    Target("mimoce.channel", "covariance_factors", "channel.covariance_factors"),
    Target("mimoce.channel", "sample_channels", "channel.sample_channels", _sample_channels_counts),
    Target(
        "mimoce.covest",
        "AllCovAccumulator.add",
        "covest.AllCovAccumulator.add",
        _accumulator_add_counts,
    ),
    Target("mimoce.covest", "estimate_pilot_cov", "covest.estimate_pilot_cov"),
    Target(
        "mimoce.covest", "gevd_lowrank_estimator", "covest.gevd_lowrank_estimator", _lowrank_counts
    ),
    Target("mimoce.linalg", "gevd", "linalg.gevd"),
    Target("mimoce.linalg", "solve_hermitian", "linalg.solve_hermitian"),
    Target("mimoce.linalg", "psd_factor", "linalg.psd_factor"),
    Target("mimoce.linalg", "cholesky", "linalg.cholesky"),
    Target(
        "mimoce.estimators",
        "improved_mmse_filter",
        "estimators.improved_mmse_filter",
        _improved_counts,
    ),
    Target("mimoce.estimators", "mmse_optimal_filter", "estimators.mmse_optimal_filter"),
    Target("mimoce.estimators", "mmse_fixed_filter", "estimators.mmse_fixed_filter"),
    Target("mimoce.harness", "run_single", "harness.run_single"),
]

SPAN_NAMES = frozenset(target.name for target in TARGETS)
RUN = "harness.run_single"
IMPROVED = "estimators.improved_mmse_filter"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], sweeps: int, sweep_s: float, workers: int) -> dict:
    """Per-layer metrics averaged per sweep over ``sweeps`` traced sweeps.

    ``sweep_s`` is the summed wall time of those sweeps.  Returns
    {metric name: (value, unit)}; a span with no calls reads 0.
    """
    stats = summarize(spans)

    def stat(name):
        return stats.get(name, SpanStats())

    def seconds(name):
        return stat(name).total_s / sweeps

    def per_sweep(name, key):
        return stat(name).counts.get(key, 0) / sweeps

    simulate = stat("airlink.simulate_blocks")
    lowrank = stat("covest.gevd_lowrank_estimator")
    gevd = stat("linalg.gevd")
    improved = stat(IMPROVED)
    run = stat(RUN)
    return {
        "airlink.simulate_blocks.s": (seconds("airlink.simulate_blocks"), "s"),
        "airlink.simulate_blocks.blocks": (per_sweep("airlink.simulate_blocks", "blocks"), "count"),
        "airlink.simulate_blocks.gflop_per_s": (
            _ratio(simulate.counts.get("flop", 0), simulate.total_s) / 1e9,
            "Gflop/s",
        ),
        "airlink.despread_batch.s": (seconds("airlink.despread_batch"), "s"),
        "channel.bs_covariances.s": (seconds("channel.bs_covariances"), "s"),
        "channel.covariance_factors.s": (seconds("channel.covariance_factors"), "s"),
        "channel.sample_channels.s": (seconds("channel.sample_channels"), "s"),
        "channel.sample_channels.vectors": (per_sweep("channel.sample_channels", "vectors"), "count"),
        "covest.AllCovAccumulator.add.s": (seconds("covest.AllCovAccumulator.add"), "s"),
        "covest.AllCovAccumulator.add.samples": (
            per_sweep("covest.AllCovAccumulator.add", "samples"),
            "count",
        ),
        "covest.estimate_pilot_cov.s": (seconds("covest.estimate_pilot_cov"), "s"),
        "covest.gevd_lowrank_estimator.s": (seconds("covest.gevd_lowrank_estimator"), "s"),
        "covest.gevd_lowrank_estimator.calls": (lowrank.calls / sweeps, "count"),
        "covest.rank_effective_ratio": (
            _ratio(lowrank.counts.get("rank_effective", 0), lowrank.counts.get("rank_requested", 0)),
            "ratio",
        ),
        "linalg.gevd.s": (seconds("linalg.gevd"), "s"),
        "linalg.gevd.ms_per_call": (1e3 * _ratio(gevd.total_s, gevd.calls), "ms"),
        "linalg.solve_hermitian.s": (seconds("linalg.solve_hermitian"), "s"),
        "linalg.psd_factor.s": (seconds("linalg.psd_factor"), "s"),
        "linalg.cholesky.not_pd": (
            stat("linalg.cholesky").errors.get("NotPositiveDefinite", 0) / sweeps,
            "count",
        ),
        "estimators.improved_mmse_filter.s": (seconds(IMPROVED), "s"),
        "estimators.improved_mmse_filter.calls": (improved.calls / sweeps, "count"),
        "estimators.improved_mmse_filter.clamped_ratio": (
            _ratio(improved.counts.get("clamped", 0), improved.calls),
            "ratio",
        ),
        "estimators.mmse_optimal_filter.s": (seconds("estimators.mmse_optimal_filter"), "s"),
        "estimators.mmse_fixed_filter.s": (seconds("estimators.mmse_fixed_filter"), "s"),
        "harness.run_single.s": (seconds(RUN), "s"),
        "harness.run_single.max_s": (run.max_s, "s"),
        "harness.self_s": (run.self_s / sweeps, "s"),
        "harness.worker_idle_share": (1.0 - _ratio(run.total_s, workers * sweep_s), "ratio"),
    }


def largest_child(spans: list[Span]) -> str | None:
    """The direct child of ``harness.run_single`` with the most inclusive time."""
    totals = child_totals(spans, RUN)
    return max(totals, key=totals.get) if totals else None

