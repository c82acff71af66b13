"""Tests for the BLAS thread pin around sweeps and runs."""

import threading

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

    def recording(*args, **kwargs):
        seen.append(thread_counts(libraries))
        return real_run_single(*args, **kwargs)

    monkeypatch.setattr(harness, "run_single", recording)
    before = thread_counts(libraries)
    harness.run_sweep(tiny_config(), workers=workers)
    assert len(seen) == 2  # one job per run
    assert all(set(counts.values()) == {1} for counts in seen)
    assert thread_counts(libraries) == before


@pytest.mark.parametrize("workers", [1, 2])
def test_thread_counts_restored_when_a_run_raises(monkeypatch, libraries, workers):
    def failing(*args, **kwargs):
        raise RuntimeError("run failed")

    monkeypatch.setattr(harness, "run_single", failing)
    before = thread_counts(libraries)
    with pytest.raises(RuntimeError, match="run failed"):
        harness.run_sweep(tiny_config(), workers=workers)
    assert thread_counts(libraries) == before


def test_run_single_runs_blas_single_threaded(monkeypatch, libraries):
    seen = []
    real_evaluate = harness._RunState.evaluate

    def recording(self):
        seen.append(thread_counts(libraries))
        return real_evaluate(self)

    monkeypatch.setattr(harness._RunState, "evaluate", recording)
    before = thread_counts(libraries)
    harness.run_single(tiny_config(), [8], (3, 0))
    assert len(seen) == 1
    assert set(seen[0].values()) == {1}
    assert thread_counts(libraries) == before


def test_nested_entry_restores_on_the_outer_exit(libraries):
    before = thread_counts(libraries)
    with blas.single_threaded_blas():
        with blas.single_threaded_blas():
            assert set(thread_counts(libraries).values()) == {1}
        assert set(thread_counts(libraries).values()) == {1}
    assert thread_counts(libraries) == before


def test_overlapping_threads_restore_on_the_last_exit(libraries):
    before = thread_counts(libraries)
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def first():
        with blas.single_threaded_blas():
            first_in.set()
            second_in.wait(timeout=10)
        first_out.set()

    def second():
        first_in.wait(timeout=10)
        with blas.single_threaded_blas():
            second_in.set()
            first_out.wait(timeout=10)
            seen.append(thread_counts(libraries))

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert not any(thread.is_alive() for thread in threads)
    assert first_out.is_set() and len(seen) == 1
    # The first thread left while the second was still inside.
    assert set(seen[0].values()) == {1}
    assert thread_counts(libraries) == before


def test_no_op_without_openblas(monkeypatch):
    loaded = blas.openblas_libraries()
    before = thread_counts(loaded)
    monkeypatch.setattr(blas, "openblas_libraries", lambda: [])
    with blas.single_threaded_blas():
        assert thread_counts(loaded) == before
    assert thread_counts(loaded) == before
