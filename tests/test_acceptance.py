"""Acceptance gate: the eleven headline checks, one test each.

Every test asserts its stated tolerance and prints a single [PASS] line
with the measured numbers, so `pytest -s tests/test_acceptance.py`
reads as a checklist. Timing budgets apply to the cheap checks; the
ensemble-backed checks (04, 05, 06, 11) share the session fixtures and are
budgeted in minutes, not seconds.
"""

import math
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

from qsense.estimation import Posterior, bayes_update, mle, uncertainty
from qsense.information import (
    cfi_binary,
    compare_control,
    g_finite,
    g_sq_mean,
    g_universal,
    lambda_tilde_cpmg,
    qfi_real,
)
from qsense.model import Coupling, alpha_cpmg, cpmg_displacement_abs, interference_factor
from qsense.simkit import fit_loglog_slope, fringe_scan, gsq_scan, matched_time_ratio
from oracles import periods, quad_oracle, segment_displacement
from test_cli import write_adapt_config

FROZEN_SUP_BOUND_N50 = 5e-3
# Final-step calibration bands (check 11). Over six disjoint 500-rep
# ensembles (seeds 100000, 200000, 300000 + r, nbar 10 and 1000) and the
# two fixtures, RMS z spans 0.934-1.046 and the fraction within 2 widths
# 0.938-0.970, both before and after the loop's likelihood kernel moved
# to angle addition; one ensemble's sampling spread is about 0.035 and 0.010.
RMS_Z_BAND = (0.85, 1.15)
MIN_WITHIN_2_WIDTHS = 0.91


def test_01_fringe_structure():
    t0 = perf_counter()
    z, y, _, _ = fringe_scan(50, (-10.0, 10.0), 2001)
    assert y[np.argmin(np.abs(z))] == pytest.approx(1.0, abs=1e-12)
    worst_node = max(y[np.argmin(np.abs(z - node))]
                     for node in (-2.0, -1.0, 1.0, 2.0))
    assert worst_node <= 1e-10

    dense = np.linspace(-3.0, 3.0, 24001)
    sup = float(np.max(np.abs(np.asarray(g_finite(50, dense)) - g_universal(dense))))
    assert sup < FROZEN_SUP_BOUND_N50
    dt = perf_counter() - t0
    assert dt < 1.0
    print(f"\n[PASS] 01 fringe structure: peak 1, nodes <= {worst_node:.1e}, "
          f"sup|g_finite-g_universal| = {sup:.2e} < {FROZEN_SUP_BOUND_N50}, {dt:.2f} s")


def test_02_rms_envelope_constant():
    t0 = perf_counter()
    value = math.sqrt(g_sq_mean(1.0))
    assert value == pytest.approx(0.83544, abs=5e-4)
    dt = perf_counter() - t0
    assert dt < 1.0
    print(f"\n[PASS] 02 rms envelope constant: sqrt(g_sq_mean(1)) = {value:.5f} "
          f"= 0.83544 +- 0.0005, {dt:.2f} s")


def test_03_mean_square_envelope_scaling():
    t0 = perf_counter()
    dz = np.logspace(1.0, 3.0, 25)
    slope = fit_loglog_slope(dz, gsq_scan(dz), (0, len(dz) - 1))
    assert slope == pytest.approx(-1.0, abs=0.05)
    dt = perf_counter() - t0
    assert dt < 5.0
    print(f"\n[PASS] 03 mean-square envelope scaling: slope {slope:.4f} "
          f"= -1 +- 0.05 over [10, 1000], {dt:.2f} s")


def test_04_precision_scaling(ensemble_nbar10):
    agg = ensemble_nbar10
    assert agg.aborted == ()
    assert -2.2 <= agg.fit_slope <= -1.8
    print(f"\n[PASS] 04 precision scaling: log-log slope {agg.fit_slope:.3f} "
          f"in [-2.2, -1.8] over fit window {agg.fit_window}")


def test_05_controller_convergence(ensemble_nbar10):
    agg = ensemble_nbar10
    tail_zeta = agg.steps["mean_zeta"][40:]
    tail_alpha = agg.steps["mean_scaled_alpha"][40:]
    assert np.all((tail_zeta >= 0.9) & (tail_zeta <= 1.1))
    assert np.all(tail_alpha < 0.5)
    print(f"\n[PASS] 05 controller convergence: from step 40 on, mean zeta in "
          f"[{tail_zeta.min():.3f}, {tail_zeta.max():.3f}] (band [0.9, 1.1]) and "
          f"mean scaled |alpha| <= {tail_alpha.max():.3f} < 0.5")


def test_06_thermal_enhancement(ensemble_nbar10, ensemble_nbar1000):
    t_star, ratio = matched_time_ratio(ensemble_nbar10, ensemble_nbar1000)
    assert 5.0 <= ratio <= 20.0
    print(f"\n[PASS] 06 thermal enhancement: matched-time precision ratio "
          f"{ratio:.2f} in [5, 20] at T = {t_star:.3g}")


def test_07_algebraic_identity_suite():
    t0 = perf_counter()
    rng = np.random.default_rng(7)

    # binary-readout information equals the quantum bound for real coherence
    worst_fisher = 0.0
    for _ in range(2000):
        big_l = rng.uniform(-0.999, 0.999)
        dl = rng.uniform(-5.0, 5.0)
        f_c = cfi_binary(0.5 * (1.0 + big_l), 0.5 * dl)
        f_q = qfi_real(big_l, dl)
        worst_fisher = max(worst_fisher,
                           abs(f_c - f_q) / max(1.0, abs(f_q)))
    assert worst_fisher <= 1e-12

    # closed-form displacement against direct quadrature, and the segment
    # sum on an asymmetric four-pulse unit, which no closed form covers
    asymmetric = periods(2.0, 2, fractions=(0.15, 0.4, 0.55, 0.9))
    cases = [
        (0.1, 50.0, periods(0.13, 4),
         alpha_cpmg(Coupling(0.1), 50.0, 0.13) * interference_factor(4, 50.0, 0.13)),
        (2.0, 3.0, periods(1.7, 2),
         alpha_cpmg(Coupling(2.0), 3.0, 1.7) * interference_factor(2, 3.0, 1.7)),
        (0.5, 2.3, asymmetric, segment_displacement(0.5, 2.3, *asymmetric)),
    ]
    worst_quad = 0.0
    for lam, omega, bounds, closed in cases:
        oracle = quad_oracle(lam, omega, *bounds)
        worst_quad = max(worst_quad, abs(closed - oracle) / abs(oracle))
    assert worst_quad <= 1e-9

    # specialized one-period displacement against the general evaluator;
    # relative comparison needs well-conditioned points, so draws near
    # displacement zeros (pure cancellation in the segment sum) or with
    # large trig arguments (argument-reduction noise) are redrawn
    worst_unit = 0.0
    kept = 0
    while kept < 500:
        lam = rng.uniform(1e-3, 10.0)
        omega = rng.uniform(0.1, 100.0)
        tau = rng.uniform(0.1, 20.0)
        if omega * tau > 100.0:
            continue
        a = alpha_cpmg(Coupling(lam), omega, tau)
        b = segment_displacement(lam, omega, *periods(tau, 1))
        if abs(b) > 0.05 * (8.0 * lam / omega):
            kept += 1
            worst_unit = max(worst_unit, abs(a - b) / abs(b))
    assert worst_unit <= 1e-12

    # the 1/T^2 bound on the loop's own kernel: at the first fringe node
    # |alpha| has a V-shaped zero, and the single-shot Cramer-Rao width
    # 1/sqrt(4(2 nbar + 1) s^2) from its slope s is pi/(lambda_tilde T^2);
    # s averages the two sides of the V, so the kink never enters. N = 5
    # is too short for the asymptotic law (ratio 0.90)
    lam, nbar, omega = 0.1, 10.0, 50.0
    coupling, h = Coupling(lam), 1e-6 * omega
    worst_bound = 0.0
    for n_units in (20, 50, 200, 1000):
        tau = (2 * np.pi / omega) * (1.0 + 1.0 / n_units)
        sides = cpmg_displacement_abs(coupling, n_units, np.array([omega + h, omega - h]), tau)
        slope = (sides[0] + sides[1]) / (2.0 * h)
        width = 1.0 / np.sqrt(4.0 * (2 * nbar + 1) * slope**2)
        bound = np.pi / (lambda_tilde_cpmg(lam, nbar) * (n_units * tau) ** 2)
        worst_bound = max(worst_bound, abs(width / bound - 1.0))
    assert worst_bound <= 0.05

    dt = perf_counter() - t0
    assert dt < 30.0
    print(f"\n[PASS] 07 identity suite: fisher {worst_fisher:.1e} (<= 1e-12), "
          f"quadrature {worst_quad:.1e} (<= 1e-9), one-period {worst_unit:.1e} "
          f"(<= 1e-12), 1/T^2 slope bound {worst_bound:.1e} (<= 0.05), {dt:.1f} s")


def test_08_estimation_suite():
    t0 = perf_counter()

    # batch associativity: two updates equal one merged update
    base = Posterior(np.linspace(-1.0, 1.0, 512), np.ones(512))
    l_profile = 0.8 * np.sin(base.grid)
    split = bayes_update(bayes_update(base, l_profile, 3, 2), l_profile, 1, 4)
    merged = bayes_update(base, l_profile, 4, 6)
    assoc = float(np.max(np.abs(split.weights - merged.weights)))
    assert assoc <= 1e-12

    # width contraction follows 1/sqrt(nu) under expected counts
    grid_post = Posterior(np.linspace(-1.0, 1.0, 4096), np.ones(4096))
    profile = 0.8 * np.sin(grid_post.grid)
    nus = np.array([100, 1000, 10_000, 100_000])
    widths = []
    for nu in nus:
        n_plus = int(round(nu * 0.5))
        out = bayes_update(grid_post, profile, n_plus, int(nu) - n_plus)
        widths.append(uncertainty(out, mle(out)))
    slope = fit_loglog_slope(nus, np.array(widths), (0, 3))
    assert slope == pytest.approx(-0.5, abs=0.05)

    # estimator consistency over seeded binomial trials
    omega_true = 0.35
    flat = Posterior(np.linspace(-1.0, 1.0, 1024), np.ones(1024))
    trial_profile = 0.8 * np.sin(flat.grid - omega_true)
    nu = 400
    rng = np.random.default_rng(20260822)
    hits = 0
    for _ in range(1000):
        n_plus = int(rng.binomial(nu, 0.5))
        out = bayes_update(flat, trial_profile, n_plus, nu - n_plus)
        est = mle(out)
        if abs(est - omega_true) <= 3.0 * uncertainty(out, est):
            hits += 1
    assert hits >= 990

    dt = perf_counter() - t0
    assert dt < 60.0
    print(f"\n[PASS] 08 estimation suite: associativity {assoc:.1e} (<= 1e-12), "
          f"contraction slope {slope:.3f} (-0.5 +- 0.05), coverage {hits}/1000 "
          f"(>= 990), {dt:.1f} s")


def test_09_byte_identical_outputs(tmp_path):
    cfg_path = write_adapt_config(tmp_path / "cfg.json")

    outputs = []
    for run in ("a", "b"):
        argv_sets = [
            ["adapt", "--config", str(cfg_path),
             "--out-prefix", str(tmp_path / f"{run}")],
            ["fringes", "--points", "101", "--out", str(tmp_path / f"{run}_fr.csv")],
            ["gsq", "--min", "0.1", "--max", "10", "--points", "5",
             "--fit-min", "0.1", "--fit-max", "10",
             "--out", str(tmp_path / f"{run}_gsq.csv")],
        ]
        for argv in argv_sets:
            proc = subprocess.run([sys.executable, "-m", "qsense.cli"] + argv,
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
        outputs.append([
            (tmp_path / f"{run}_steps.csv").read_bytes(),
            (tmp_path / f"{run}_summary.json").read_bytes(),
            (tmp_path / f"{run}_fr.csv").read_bytes(),
            (tmp_path / f"{run}_gsq.csv").read_bytes(),
            (tmp_path / f"{run}_gsq_summary.json").read_bytes(),
        ])
    assert outputs[0] == outputs[1]
    print(f"\n[PASS] 09 determinism: {len(outputs[0])} output files "
          f"byte-identical across two command-line invocations")


def test_10_sensitivity_estimate():
    report = compare_control(omega=2 * np.pi * 1e8, lam=2 * np.pi * 1e3,
                             nbar=0.0, t2=1e-3)
    gain = report.sensitivity_gain
    assert 1e5 <= gain <= 4e5
    print(f"\n[PASS] 10 sensitivity estimate: controlled-vs-free gain "
          f"{gain:.3g} within a factor 2 of 2e5")


def test_11_final_calibration(ensemble_nbar10, ensemble_nbar1000):
    # judged against the true frequency: z = (omega_hat - omega)/delta_omega
    # at the final step, and an alias is an error beyond half a fringe, pi/T
    lines = []
    for nbar, agg in ((10, ensemble_nbar10), (1000, ensemble_nbar1000)):
        z = agg.final_error / agg.final_width
        rms_z = float(np.sqrt(np.mean(z**2)))
        within_2 = float(np.mean(np.abs(z) <= 2.0))
        aliases = int(np.count_nonzero(np.abs(agg.final_error) > np.pi / agg.final_evolution_time))
        assert len(z) == 500
        assert RMS_Z_BAND[0] <= rms_z <= RMS_Z_BAND[1]
        assert within_2 >= MIN_WITHIN_2_WIDTHS
        assert aliases == 0
        lines.append(f"nbar {nbar}: RMS z {rms_z:.3f} in {RMS_Z_BAND}, "
                     f"{within_2:.3f} within 2 widths (>= {MIN_WITHIN_2_WIDTHS}), {aliases} aliases")
    print("\n[PASS] 11 final calibration: " + "; ".join(lines))
