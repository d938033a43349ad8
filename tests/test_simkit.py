"""Ensemble machinery: aggregation, scans, and scaling fits.

Aggregation is checked for exact linearity against hand-stacked single
runs, abort reporting against a stubbed run, and the fit harness
against synthetic power laws with known exponents.
"""

import concurrent.futures
import dataclasses
import math
import os

import numpy as np
import pytest

from qsense import simkit
from qsense.protocol import run_adaptive
from qsense.simkit import (
    STEP_COLUMNS,
    fit_loglog_slope,
    fringe_scan,
    gsq_scan,
    reference_config,
    run_repetitions,
)
from qsense.information import g_sq_mean


def pool_size(monkeypatch, n_reps, n_workers, cpu_count=8):
    """Worker count run_repetitions asks the pool for; 1 when it runs serially."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # run_repetitions imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(simkit, "_usable_cpus", lambda: cpu_count)
    run_repetitions(reference_config(nbar=1000.0, max_steps=3, seed=1), n_reps,
                    n_workers=n_workers)
    return sizes[0] if sizes else 1


class TestWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch):
        assert pool_size(monkeypatch, 8, 2) == 2

    def test_cpu_count_fallback(self, monkeypatch):
        # QSENSE_THREADS is no longer read
        monkeypatch.setenv("QSENSE_THREADS", "1")
        assert pool_size(monkeypatch, 8, None, cpu_count=3) == 3

    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        # the affinity mask, not the host's CPU count, where os has no
        # process_cpu_count (before Python 3.13)
        monkeypatch.delattr(simkit.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(simkit.os, "cpu_count", lambda: 64)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: {0, 3})
            assert simkit._usable_cpus() == 2
            monkeypatch.delattr(simkit.os, "sched_getaffinity")
        assert simkit._usable_cpus() == 64
        monkeypatch.setattr(simkit.os, "process_cpu_count", lambda: 3, raising=False)
        assert simkit._usable_cpus() == 3

    def test_clamped_to_job_count(self, monkeypatch):
        assert pool_size(monkeypatch, 4, 99) == 4
        assert pool_size(monkeypatch, 2, None) == 2
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"n_workers must be >= 1, got {bad}"):
                pool_size(monkeypatch, 4, bad)


class TestRunRepetitions:
    def test_single_repetition_equals_trajectory(self):
        # every column of the step table, in STEP_COLUMNS order, bit for bit
        cfg = reference_config(nbar=1000.0, max_steps=12, seed=777)
        agg = run_repetitions(cfg, 1, n_workers=1)
        recs = run_adaptive(cfg).records
        expected = {
            "stage": [r.plan.stage for r in recs],
            "n_units": [r.plan.n_units for r in recs],
            "tau": [r.plan.tau for r in recs],
            "nu": [r.plan.repetitions for r in recs],
            "mean_time": [r.cumulative_time for r in recs],
            "mean_delta_omega": [r.delta_omega_k for r in recs],
            "mean_zeta": [r.zeta_k for r in recs],
            "mean_scaled_alpha": [r.scaled_alpha_k for r in recs],
        }
        assert tuple(agg.steps) == STEP_COLUMNS == tuple(expected)
        for name, column in expected.items():
            assert np.array_equal(agg.steps[name], column), name
        assert agg.aborted == ()
        traj = run_adaptive(cfg)
        last = traj.records[-1].plan
        assert agg.final_error.tolist() == [traj.final_estimate.omega_hat - cfg.omega_true]
        assert agg.final_width.tolist() == [traj.final_estimate.delta_omega]
        assert agg.final_evolution_time.tolist() == [last.n_units * last.tau]

    def test_aggregation_linearity(self):
        cfg = reference_config(nbar=1000.0, max_steps=10, seed=4242)
        agg = run_repetitions(cfg, 3, n_workers=1)
        singles = []
        for r in range(3):
            traj = run_adaptive(dataclasses.replace(cfg, seed=4242 + r))
            singles.append([rec.delta_omega_k for rec in traj.records])
        hand = np.array(singles).mean(axis=0)
        assert np.array_equal(agg.steps["mean_delta_omega"], hand)

    def test_deterministic_given_config(self):
        cfg = reference_config(nbar=1000.0, max_steps=10, seed=99)
        a = run_repetitions(cfg, 4, n_workers=1)
        b = run_repetitions(cfg, 4, n_workers=1)
        assert np.array_equal(a.steps["mean_delta_omega"], b.steps["mean_delta_omega"])
        assert np.array_equal(a.steps["mean_time"], b.steps["mean_time"])
        assert a.fit_slope == b.fit_slope

    def test_pool_matches_serial(self):
        cfg = reference_config(nbar=1000.0, max_steps=8, seed=5)
        serial = run_repetitions(cfg, 3, n_workers=1)
        pooled = run_repetitions(cfg, 3, n_workers=2)
        assert np.array_equal(serial.steps["mean_delta_omega"], pooled.steps["mean_delta_omega"])
        assert serial.fit_slope == pooled.fit_slope

    def test_stage_column_requires_unanimity(self):
        cfg = reference_config(nbar=10.0, max_steps=15)
        agg = run_repetitions(cfg, 4, n_workers=1)
        assert agg.steps["stage"][0] == 1
        assert agg.steps["stage"][-1] == 2
        assert np.all(np.diff(agg.steps["stage"]) >= 0)

    def test_fit_window_covers_stage_two_tail(self):
        cfg = reference_config(nbar=1000.0, max_steps=20, seed=7)
        agg = run_repetitions(cfg, 2, n_workers=1)
        lo, hi = agg.fit_window
        assert len(agg.steps["mean_delta_omega"]) == 20
        assert hi == 19
        # hot-start runs enter stage (ii) immediately, so the window is
        # the plain trailing fraction of all recorded steps
        assert np.all(agg.steps["stage"] == 2)
        assert lo == math.ceil(0.4 * 20)

    def test_first_abort_is_reported(self, monkeypatch):
        real = simkit.run_adaptive

        def aborting(cfg, rng=None):
            traj = real(cfg, rng)
            if cfg.seed >= 31:
                return dataclasses.replace(traj, aborted=True,
                                           diagnostic=f"stub abort, seed {cfg.seed}")
            return traj

        monkeypatch.setattr(simkit, "run_adaptive", aborting)
        cfg = reference_config(nbar=1000.0, max_steps=5, seed=30)
        agg = run_repetitions(cfg, 3, n_workers=1)
        assert agg.aborted == ((1, "stub abort, seed 31"), (2, "stub abort, seed 32"))

    def test_aborted_reps_are_left_out_of_the_means(self, monkeypatch):
        real = simkit.run_adaptive
        diag = "non-finite estimate at step 0: stub"

        def aborting(cfg, rng=None):
            traj = real(cfg, rng)
            if cfg.seed == 41:
                # an abort at step 0 leaves no records at all
                return dataclasses.replace(traj, records=(), aborted=True, diagnostic=diag)
            return traj

        monkeypatch.setattr(simkit, "run_adaptive", aborting)
        cfg = reference_config(nbar=1000.0, max_steps=8, seed=40)
        agg = run_repetitions(cfg, 3, n_workers=1)
        assert agg.aborted == ((1, diag),)
        singles = [[rec.delta_omega_k for rec in
                    run_adaptive(dataclasses.replace(cfg, seed=seed)).records]
                   for seed in (40, 42)]
        hand = np.array(singles).mean(axis=0)
        assert np.array_equal(agg.steps["mean_delta_omega"], hand)
        # the per-rep final values hold the kept reps, in order
        finals = [run_adaptive(dataclasses.replace(cfg, seed=seed)).final_estimate
                  for seed in (40, 42)]
        assert agg.final_width.tolist() == [e.delta_omega for e in finals]

    def test_all_reps_aborted_raises_with_rep0_diagnostic(self, monkeypatch):
        real = simkit.run_adaptive

        def aborting(cfg, rng=None):
            return dataclasses.replace(real(cfg, rng), records=(), aborted=True,
                                       diagnostic=f"stub abort, seed {cfg.seed}")

        monkeypatch.setattr(simkit, "run_adaptive", aborting)
        cfg = reference_config(nbar=1000.0, max_steps=3, seed=50)
        with pytest.raises(ValueError, match="rep 0: stub abort, seed 50"):
            run_repetitions(cfg, 2, n_workers=1)

    def test_validation(self):
        cfg = reference_config(nbar=1000.0, max_steps=5)
        with pytest.raises(ValueError):
            run_repetitions(cfg, 0)


class TestFringeScan:
    def test_peak_and_nodes(self):
        z, y, _, _ = fringe_scan(50, (-10.0, 10.0), 2001)
        assert y[np.argmin(np.abs(z))] == pytest.approx(1.0, abs=1e-12)
        for node in (-2.0, -1.0, 1.0, 2.0):
            assert y[np.argmin(np.abs(z - node))] <= 1e-10

    def test_symmetry_under_zeta_reflection(self):
        _, k, _, _ = fringe_scan(50, (-3.0, 3.0), 601)
        assert np.max(np.abs(k - k[::-1])) <= 1e-10

    def test_overlay_tracks_universal_envelope(self):
        _, _, gf, gu = fringe_scan(50, (-3.0, 3.0), 1201)
        assert np.max(np.abs(gf - gu)) < 5e-3

    def test_grid_contract(self):
        z, k, gf, gu = fringe_scan(50, (-10.0, 10.0), 2001)
        assert len(z) == 2001
        assert np.all(np.diff(z) > 0)
        assert len(k) == len(gf) == len(gu) == len(z)

    def test_validation(self):
        with pytest.raises(ValueError):
            fringe_scan(50, (3.0, -3.0), 100)
        with pytest.raises(ValueError):
            fringe_scan(50, (-3.0, 3.0), 1)


class TestGsqScan:
    def test_matches_pointwise_evaluation(self):
        dz = np.array([0.5, 1.0, 2.0, 8.0])
        for x, y in zip(dz, gsq_scan(dz)):
            assert y == pytest.approx(g_sq_mean(float(x)), rel=1e-12)

    def test_first_window_value(self):
        assert gsq_scan(np.array([1.0]))[0] == pytest.approx(0.6980, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            gsq_scan(np.array([]))
        with pytest.raises(ValueError):
            gsq_scan(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            gsq_scan(np.array([-1.0, 2.0]))


class TestLogLogFit:
    def test_exact_square_law(self):
        x = np.logspace(0, 2, 30)
        slope = fit_loglog_slope(x, x**2, (0, 29))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_exact_inverse_law(self):
        x = np.logspace(0, 2, 30)
        slope = fit_loglog_slope(x, 7.0 / x, (0, 29))
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_inverse_square(self):
        rng = np.random.default_rng(5)
        x = np.logspace(0, 2, 40)
        y = x**-2 * (1.0 + 0.01 * rng.standard_normal(40))
        slope = fit_loglog_slope(x, y, (0, 39))
        assert slope == pytest.approx(-2.0, abs=0.02)

    def test_window_is_inclusive_and_selective(self):
        x = np.logspace(0, 2, 30)
        y = x**2
        y[:5] = 1e6
        slope = fit_loglog_slope(x, y, (5, 29))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_window_too_small(self):
        x = np.logspace(0, 1, 10)
        with pytest.raises(ValueError):
            fit_loglog_slope(x, x, (4, 5))

    def test_window_bounds_checked(self):
        x = np.logspace(0, 1, 10)
        with pytest.raises(ValueError):
            fit_loglog_slope(x, x, (0, 10))

    def test_positive_values_required(self):
        x = np.logspace(0, 1, 10)
        y = x.copy()
        y[3] = -1.0
        with pytest.raises(ValueError):
            fit_loglog_slope(x, y, (0, 9))

