"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion N] name: PASS/FAIL` line so the
whole gate can be read off `pytest tests/test_acceptance.py -s`.  The
experiment-level criteria run the desk-scale profile (N=32, L=7, K=5);
tolerances and runtime budgets are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from mimoce.airlink import (
    allocate_pilots,
    despread_batch,
    make_noise_covariance,
    make_pilot_book,
    simulate_blocks,
)
from mimoce.channel import (
    covariance_factors,
    dominant_eigenvalue_count,
    local_scattering_covariance,
    sample_channels,
)
from mimoce.cli import main
from mimoce.config import EstimatorSpec, ExperimentConfig, SweepSpec, SystemConfig
from mimoce.covest import (
    AllCovAccumulator,
    estimate_pilot_cov,
    gevd_lowrank_estimator,
    subtraction_estimator,
)
from mimoce.estimators import approx_mmse_filter
from mimoce.harness import run_sweep
from mimoce.linalg import cholesky, gevd, hermitize, psd_factor
from mimoce.seeding import ensure_rng
from support import make_synthetic


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {number}] {name}: {status}{suffix}")


def rel_err(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(g)


def random_hpd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(g @ g.conj().T / n + np.eye(n))


def well_conditioned_transform(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q1, _ = np.linalg.qr(g)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q2, _ = np.linalg.qr(g)
    singulars = rng.uniform(0.5, 2.0, size=n)
    return (q1 * singulars) @ q2


def test_criterion_1_gevd_correctness():
    start = time.time()
    rng = np.random.default_rng(1001)
    dims = [8, 32, 64]
    failures = []
    for pencil in range(50):
        n = dims[pencil % 3]
        a = random_hermitian(rng, n)
        b = random_hpd(rng, n)
        res = gevd(a, b)
        sigma = np.diag(res.eigenvalues)
        checks = [
            rel_err(res.Q @ sigma @ res.Q.conj().T, a) <= 1e-9,
            rel_err(res.Q @ res.Q.conj().T, b) <= 1e-9,
            np.linalg.norm(res.X.conj().T @ b @ res.X - np.eye(n)) <= 1e-9 * n,
            np.linalg.norm(res.X.conj().T @ a @ res.X - sigma)
            <= 1e-9 * max(np.linalg.norm(sigma), 1.0),
        ]
        t = well_conditioned_transform(rng, n)
        mapped = gevd(hermitize(t @ a @ t.conj().T), hermitize(t @ b @ t.conj().T))
        checks.append(rel_err(mapped.eigenvalues, res.eigenvalues) <= 1e-8)
        if not all(checks):
            failures.append((pencil, n, checks))
    elapsed = time.time() - start
    ok = not failures and elapsed < 10.0
    report(1, "GEVD correctness suite", ok, f"50 pencils in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_2_algebraic_recovery():
    start = time.time()
    rng = np.random.default_rng(1002)
    failures = []
    for trial in range(20):
        n = int(rng.integers(16, 33))
        true_rank = int(rng.integers(2, 7))
        net = make_synthetic(
            rng, n=n, desired_rank=true_rank, n_interferers=3, tau_p=6
        )
        target = net.power_desired * net.r_desired

        subt = subtraction_estimator(net.r_pilot, net.r_all, net.tau_p, net.power_desired)
        if rel_err(net.power_desired * subt, target) > 1e-9:
            failures.append((trial, "subtraction"))
        low = gevd_lowrank_estimator(
            net.r_pilot, net.r_all, net.tau_p, net.power_desired, rank=true_rank
        )
        if rel_err(low.scaled_matrix, target) > 1e-9:
            failures.append((trial, "gevd recovery"))
        if low.rank_effective != true_rank:
            failures.append((trial, "rank_effective"))

        # rank-deficit case: keeping the top modes is optimal in the
        # pencil-whitened metric; swapping any kept mode for a discarded
        # one strictly increases the whitened reconstruction error
        if true_rank >= 2:
            reduced = true_rank - 1
            res = gevd(net.r_pilot, net.r_all)
            lam_all = (res.eigenvalues - 1.0) / (net.tau_p - 1.0)
            lower = cholesky(net.r_all)

            def whitened_error(keep):
                approx = (res.Q[:, keep] * lam_all[keep]) @ res.Q[:, keep].conj().T
                diff = np.linalg.solve(lower, approx - target)
                diff = np.linalg.solve(lower, diff.conj().T).conj().T
                return np.linalg.norm(diff)

            top = list(range(reduced))
            base_err = whitened_error(top)
            low_r = gevd_lowrank_estimator(
                net.r_pilot, net.r_all, net.tau_p, net.power_desired, rank=reduced
            )
            if rel_err(
                low_r.scaled_matrix,
                (res.Q[:, top] * lam_all[top]) @ res.Q[:, top].conj().T,
            ) > 1e-9:
                failures.append((trial, "rank-limited output"))
            for kept in range(reduced):
                for discarded in range(reduced, true_rank):
                    swapped = top.copy()
                    swapped[kept] = discarded
                    if whitened_error(swapped) <= base_err:
                        failures.append((trial, f"swap {kept}<->{discarded}"))
    elapsed = time.time() - start
    ok = not failures and elapsed < 30.0
    report(2, "algebraic recovery oracle", ok, f"20 networks in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_3_expectation_consistency():
    start = time.time()
    n, cells, ues = 16, 2, 3
    tau_p, tau_u = 5, 10
    rng_cov = np.random.default_rng(1003)
    # two-cell network assembled directly from per-link covariances
    covs = np.empty((cells, ues, n, n), dtype=complex)
    for l in range(cells):
        for k in range(ues):
            gain = 1.0 if l == 0 else 0.25
            covs[l, k] = local_scattering_covariance(
                n, rng_cov.uniform(-1.2, 1.2), np.deg2rad(10), gain=gain
            )
    powers = np.ones((cells, ues))
    r_nn = make_noise_covariance(n, 0.3)
    total = np.einsum("lk,lkij->ij", powers, covs)
    r_pilot_true = total + (tau_p - 1) * covs[0, 0] + r_nn
    r_all_true = total + r_nn

    book = make_pilot_book(tau_p)
    factors = covariance_factors(covs)
    noise_factor = psd_factor(r_nn)
    rng = ensure_rng(1004)
    blocks = 10_000
    alloc = allocate_pilots(blocks, cells, ues, tau_p, "random", rng)

    pilot_by_t = {}
    acc_by_t = {}
    acc = AllCovAccumulator(n)
    despread = AllCovAccumulator(n)
    checkpoints = (100, 1000, 10_000)
    done = 0
    for stop in checkpoints:
        h = sample_channels(factors, rng, blocks=stop - done)
        pilot_rx, data_rx = simulate_blocks(
            h, alloc[done:stop], book, powers, noise_factor, rng, tau_u, rng, rng
        )
        acc.add(np.concatenate([pilot_rx, data_rx], axis=2))
        # One despread vector per block.
        despread.add(despread_batch(pilot_rx, book, alloc[done:stop, 0, 0])[..., None])
        pilot_by_t[stop] = estimate_pilot_cov(despread, tau_p)
        acc_by_t[stop] = acc.estimate()
        done = stop

    pilot_err = []
    all_err = []
    for stop in checkpoints:
        pilot_err.append(rel_err(pilot_by_t[stop], r_pilot_true))
        all_err.append(rel_err(acc_by_t[stop], r_all_true))

    def monotone_with_one_slip(errors):
        slips = [i for i in range(len(errors) - 1) if errors[i + 1] > errors[i]]
        return len(slips) == 0 or (
            len(slips) == 1 and errors[slips[0] + 1] <= 1.10 * errors[slips[0]]
        )

    elapsed = time.time() - start
    ok = (
        pilot_err[-1] <= 0.05
        and all_err[-1] <= 0.05
        and monotone_with_one_slip(pilot_err)
        and monotone_with_one_slip(all_err)
        and elapsed < 120.0
    )
    report(
        3,
        "expectation consistency",
        ok,
        f"pilot errs {['%.3f' % e for e in pilot_err]}, "
        f"all errs {['%.3f' % e for e in all_err]}, {elapsed:.1f}s",
    )
    assert pilot_err[-1] <= 0.05 and all_err[-1] <= 0.05
    assert monotone_with_one_slip(pilot_err) and monotone_with_one_slip(all_err)
    assert elapsed < 120.0


def test_criterion_4_noise_despreading():
    n, tau_p, blocks = 8, 5, 100_000
    book = make_pilot_book(tau_p)
    rng = ensure_rng(1005)
    jam_vec = np.exp(1j * np.pi * np.arange(n) * np.sin(0.6))
    cases = {
        "white": make_noise_covariance(n, 0.7),
        "jammer": make_noise_covariance(n, 0.7, jammer=(jam_vec, 0.9)),
    }
    errors = {}
    for name, r_nn in cases.items():
        factor = psd_factor(r_nn)
        h = np.zeros((blocks, 1, 1, n), dtype=complex)
        pilot_rx, _ = simulate_blocks(
            h, np.zeros((blocks, 1, 1), dtype=int), book, np.ones((1, 1)),
            factor, rng, 0,
        )
        d = despread_batch(pilot_rx, book, np.zeros(blocks, dtype=int))
        emp = np.einsum("bn,bm->nm", d, d.conj()) / blocks
        errors[name] = rel_err(emp, tau_p * r_nn)
    ok = all(err <= 0.05 for err in errors.values())
    report(
        4,
        "noise despreading identity",
        ok,
        ", ".join(f"{k}: {v:.3f}" for k, v in errors.items()),
    )
    assert ok, errors


def desk_profile(sweep, estimators):
    return ExperimentConfig(
        system=SystemConfig(cells=7, ues_per_cell=5, antennas=32, tau_p=10, tau_u=40),
        estimators=estimators,
        sweep=sweep,
        monte_carlo_runs=10,
        eval_blocks=200,
        master_seed=1,
    )


def curve(results, label):
    points = sorted(
        ((r.sweep_value, r.nmse) for r in results if r.estimator == label)
    )
    return [v for _, v in points]


def non_increasing_one_slip(values, slip=0.10):
    slips = [
        i for i in range(len(values) - 1) if values[i + 1] > values[i]
    ]
    return len(slips) == 0 or (
        len(slips) == 1
        and values[slips[0] + 1] <= (1.0 + slip) * values[slips[0]]
    )


def test_criterion_5_t_sweep_orderings():
    start = time.time()
    # the dominant rank at desk scale follows from the 1%-threshold
    # eigenvalue count of a broadside ring covariance
    rank = dominant_eigenvalue_count(
        local_scattering_covariance(32, 0.0, np.deg2rad(10)), 0.01
    )
    config = desk_profile(
        SweepSpec(variable="T", values=[75, 150, 300, 600, 1200]),
        [
            EstimatorSpec("mmse_random"),
            EstimatorSpec("subt"),
            EstimatorSpec("gevd", rank=rank),
            EstimatorSpec("gevd", rank=2 * rank),
            EstimatorSpec("gevd_impr", rank=rank),
            EstimatorSpec("ls_fixed"),
            EstimatorSpec("mmse_fixed"),
        ],
    )
    results = run_sweep(config)
    t_values = config.sweep.values
    gevd_label = f"gevd_{rank}"
    gevd2_label = f"gevd_{2 * rank}"
    impr_label = f"gevd_impr_{rank}"
    curves = {
        label: curve(results, label)
        for label in (
            "mmse_random", "subt", gevd_label, gevd2_label, impr_label,
            "ls_fixed", "mmse_fixed",
        )
    }
    failures = []
    # (a) low-rank estimator beats plain subtraction while samples are scarce
    for i, t in enumerate(t_values):
        if t <= 300 and not curves[gevd_label][i] < curves["subt"][i]:
            failures.append(f"(a) gevd !< subt at T={t}")
    # (b) true-covariance MMSE lower-bounds every data-driven estimator
    for label in (gevd_label, gevd2_label, impr_label, "subt"):
        for i, t in enumerate(t_values):
            if not curves["mmse_random"][i] <= 1.02 * curves[label][i]:
                failures.append(f"(b) mmse_random > {label} at T={t}")
    # (c) the improved filter pays off once enough blocks are available
    if not curves[impr_label][-1] <= curves[gevd_label][-1]:
        failures.append("(c) improved > approximate at T=1200")
    # (d) every GEVD curve is non-increasing in T up to one small inversion
    for label in (gevd_label, gevd2_label, impr_label):
        if not non_increasing_one_slip(curves[label]):
            failures.append(f"(d) {label} not non-increasing")
    elapsed = time.time() - start
    ok = not failures and elapsed < 900.0
    detail = "; ".join(
        f"{label}: " + "/".join(f"{v:.4f}" for v in values)
        for label, values in curves.items()
    )
    report(5, f"T-sweep orderings (dominant rank {rank})", ok, f"{elapsed:.0f}s; {detail}")
    assert not failures, failures
    assert elapsed < 900.0


def test_criterion_6_tau_p_sweep_orderings():
    start = time.time()
    rank = dominant_eigenvalue_count(
        local_scattering_covariance(32, 0.0, np.deg2rad(10)), 0.01
    )
    config = desk_profile(
        SweepSpec(variable="tau_p", values=[5, 10, 15, 20]),
        [
            EstimatorSpec("subt"),
            EstimatorSpec("gevd", rank=rank),
            EstimatorSpec("gevd", rank=2 * rank),
            EstimatorSpec("ls_fixed"),
        ],
    )
    config.system.blocks = 1500
    results = run_sweep(config)
    labels = (f"gevd_{rank}", f"gevd_{2 * rank}")
    curves = {
        label: curve(results, label)
        for label in labels + ("subt", "ls_fixed")
    }
    failures = []
    for label in labels:
        if not non_increasing_one_slip(curves[label]):
            failures.append(f"{label} not non-increasing in tau_p")
        for i, tau_p in enumerate(config.sweep.values):
            if not curves[label][i] < curves["subt"][i]:
                failures.append(f"{label} !< subt at tau_p={tau_p}")
            if not curves[label][i] < curves["ls_fixed"][i]:
                failures.append(f"{label} !< ls at tau_p={tau_p}")
    elapsed = time.time() - start
    ok = not failures and elapsed < 1200.0
    detail = "; ".join(
        f"{label}: " + "/".join(f"{v:.4f}" for v in values)
        for label, values in curves.items()
    )
    report(6, "tau_p-sweep orderings", ok, f"{elapsed:.0f}s; {detail}")
    assert not failures, failures
    assert elapsed < 1200.0


def test_criterion_7_dominant_eigenvalue_count():
    start = time.time()
    r = local_scattering_covariance(100, 0.0, np.deg2rad(10))
    count = dominant_eigenvalue_count(r, rel_threshold=0.01)
    repeat = dominant_eigenvalue_count(
        local_scattering_covariance(100, 0.0, np.deg2rad(10)), rel_threshold=0.01
    )
    off_broadside = [
        dominant_eigenvalue_count(
            local_scattering_covariance(100, angle, np.deg2rad(10)), 0.01
        )
        for angle in (0.05, 0.05)
    ]
    elapsed = time.time() - start
    ok = 20 <= count <= 35 and count == repeat and off_broadside[0] == off_broadside[1]
    report(
        7,
        "dominant eigenvalue count",
        ok,
        f"count={count} at broadside, {elapsed:.1f}s",
    )
    assert 20 <= count <= 35
    assert count == repeat
    assert off_broadside[0] == off_broadside[1]
    assert elapsed < 5.0


def test_criterion_8_end_to_end_equivariance():
    n, ues, tau_p, tau_u = 16, 4, 5, 10
    blocks, eval_blocks, rank = 500, 20, 3
    rng_cov = np.random.default_rng(1008)
    covs = np.stack(
        [
            local_scattering_covariance(
                n, rng_cov.uniform(-1.0, 1.0), np.deg2rad(10),
                gain=1.0 if k == 0 else 0.4,
            )
            for k in range(ues)
        ]
    )[None]  # single-cell layout (1, K, N, N)
    powers = np.ones((1, ues))
    r_nn = make_noise_covariance(n, 0.2)
    book = make_pilot_book(tau_p)
    factors = covariance_factors(covs)
    noise_factor = psd_factor(r_nn)

    rng = ensure_rng(1009)
    alloc = allocate_pilots(blocks + eval_blocks, 1, ues, tau_p, "random", rng)
    h = sample_channels(factors, rng, blocks=blocks + eval_blocks)
    pilot_rx, data_rx = simulate_blocks(
        h, alloc, book, powers, noise_factor, rng, tau_u, rng, rng
    )
    transform = well_conditioned_transform(np.random.default_rng(1010), n)

    def pipeline(pilot_phase, data_phase):
        d = despread_batch(pilot_phase[:blocks], book, alloc[:blocks, 0, 0])
        despread = AllCovAccumulator(n)
        despread.add(d[..., None])  # one despread vector per block
        pilot_cov = estimate_pilot_cov(despread, tau_p)
        acc = AllCovAccumulator(n)
        acc.add(np.concatenate([pilot_phase[:blocks], data_phase[:blocks]], axis=2))
        all_cov = acc.estimate()
        low = gevd_lowrank_estimator(pilot_cov, all_cov, tau_p, 1.0, rank=rank)
        d_eval = despread_batch(
            pilot_phase[blocks:], book, alloc[blocks:, 0, 0]
        )
        return d_eval @ approx_mmse_filter(low, 1.0).conj()

    base = pipeline(pilot_rx, data_rx)
    mapped = pipeline(
        np.einsum("nm,bmp->bnp", transform, pilot_rx),
        np.einsum("nm,bmp->bnp", transform, data_rx),
    )
    expected = np.einsum("nm,bm->bn", transform, base)
    err = np.linalg.norm(mapped - expected) / np.linalg.norm(expected)
    ok = err <= 1e-6
    report(8, "end-to-end equivariance", ok, f"relative error {err:.2e}")
    assert err <= 1e-6


def test_criterion_9_bitwise_determinism(tmp_path):
    config_text = """
system:
  cells: 7
  ues_per_cell: 2
  antennas: 8
  tau_p: 4
  tau_u: 6
  noise_power: 0.2
estimators:
  - kind: mmse_random
  - kind: subt
  - kind: gevd
    rank: 3
  - kind: gevd_impr
    rank: 3
  - kind: ls_fixed
  - kind: mmse_fixed
sweep:
  variable: T
  values: [20, 40]
monte_carlo_runs: 3
eval_blocks: 25
master_seed: 17
"""
    config_path = tmp_path / "determinism.yaml"
    config_path.write_text(config_text)
    outputs = []
    for name, workers in (("a", "1"), ("b", "4"), ("c", "2")):
        out = tmp_path / name
        code = main(
            ["run", "--config", str(config_path), "--output", str(out),
             "--workers", workers]
        )
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, "bitwise determinism across workers", ok)
    assert ok
