"""Tests for the BLAS thread pin around sweeps."""

import pytest

from mimoce import blas, harness
from mimoce.config import EstimatorSpec, ExperimentConfig, SweepSpec, SystemConfig


def thread_counts(libraries):
    return {lib.name: lib.get_num_threads() for lib in libraries}


@pytest.fixture
def libraries():
    """The loaded OpenBLAS builds, set to two threads so a pin to one shows."""
    found = blas.openblas_libraries()
    if not found:
        pytest.skip("no OpenBLAS build is loaded")
    saved = [lib.get_num_threads() for lib in found]
    for lib in found:
        lib.set_num_threads(2)
    try:
        if any(lib.get_num_threads() != 2 for lib in found):
            pytest.skip("OpenBLAS cannot run two threads here")
        yield found
    finally:
        for lib, count in zip(found, saved):
            lib.set_num_threads(count)


def tiny_config():
    system = SystemConfig(
        cells=1, ues_per_cell=2, antennas=4, tau_p=2, tau_u=2, blocks=8, noise_power=0.2
    )
    return ExperimentConfig(
        system=system,
        estimators=[EstimatorSpec("ls_fixed")],
        sweep=SweepSpec(variable="T", values=[8, 16]),
        monte_carlo_runs=2,
        eval_blocks=4,
        master_seed=3,
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_runs_blas_single_threaded(monkeypatch, libraries, workers):
    seen = []
    real_run_single = harness.run_single

    def recording(config, sweep_value, run_seed):
        seen.append(thread_counts(libraries))
        return real_run_single(config, sweep_value, run_seed)

    monkeypatch.setattr(harness, "run_single", recording)
    before = thread_counts(libraries)
    harness.run_sweep(tiny_config(), workers=workers)
    assert len(seen) == 4
    assert all(set(counts.values()) == {1} for counts in seen)
    assert thread_counts(libraries) == before


@pytest.mark.parametrize("workers", [1, 2])
def test_thread_counts_restored_when_a_run_raises(monkeypatch, libraries, workers):
    def failing(config, sweep_value, run_seed):
        raise RuntimeError("run failed")

    monkeypatch.setattr(harness, "run_single", failing)
    before = thread_counts(libraries)
    with pytest.raises(RuntimeError, match="run failed"):
        harness.run_sweep(tiny_config(), workers=workers)
    assert thread_counts(libraries) == before


def test_no_op_without_openblas(monkeypatch):
    loaded = blas.openblas_libraries()
    before = thread_counts(loaded)
    monkeypatch.setattr(blas, "openblas_libraries", lambda: [])
    with blas.single_threaded_blas():
        assert thread_counts(loaded) == before
    assert thread_counts(loaded) == before
