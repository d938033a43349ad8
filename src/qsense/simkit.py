"""Monte Carlo harnesses: ensemble averaging, scans, fits.

Repetitions of the adaptive run are independent given their seeds, so
they execute in a process pool and are merged in repetition order
(deterministic reduction). Trajectories are aligned by step index, not
by time, because step durations are estimate dependent; the mean
cumulative time per step is reported alongside the mean precision.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .estimation import Posterior
from .information import g_finite, g_sq_mean, g_universal
from .model import interference_factor
from .protocol import STAGE_II, STEP_COLUMNS, TRAJECTORY_COLUMNS, AdaptiveConfig, run_adaptive

# The slope is fitted over this trailing fraction of the all-stage-(ii) steps.
FIT_TAIL_FRACTION = 0.6

__all__ = [
    "AggregateResult",
    "reference_config",
    "run_repetitions",
    "matched_time_ratio",
    "fringe_scan",
    "gsq_scan",
    "fit_loglog_slope",
]


# the fields hold arrays, which have no single truth value: == is identity
@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Step-aligned ensemble means over repeated adaptive runs.

    rep_columns maps each name in TRAJECTORY_COLUMNS to a (reps x
    max_steps) array: row i is the Trajectory column of the i-th
    repetition that did not abort, each of which records max_steps
    steps. The integer columns stay int64, since N reaches PERIODS_BOUND
    = 2**55 and nu MAX_SHOTS, beyond float64's exact integers. steps
    maps each name in STEP_COLUMNS to its column of the float64 step
    table, whose entry k is over step k: "stage" is 2 there only when
    every one of those repetitions has entered stage (ii), and the other
    columns are the means of rep_columns over the repetitions.
    final_error, final_width and final_evolution_time hold, for each of
    those repetitions in order, the final omega_hat - omega_true, the
    final delta_omega and the last step's N*tau. aborted lists
    (repetition, diagnostic) for each aborted repetition, in repetition
    order, and rep0_posterior is the final posterior of repetition 0.
    fit_slope and fit_window are None when there are fewer than 3 steps.
    """

    steps: dict[str, np.ndarray]
    rep_columns: dict[str, np.ndarray]
    final_error: np.ndarray
    final_width: np.ndarray
    final_evolution_time: np.ndarray
    fit_slope: float | None
    fit_window: tuple[int, int] | None
    aborted: tuple[tuple[int, str], ...]
    rep0_posterior: Posterior


def reference_config(nbar: float, max_steps: int = 250, seed: int = 12345) -> AdaptiveConfig:
    """The reference scenario: omega 50, prior 50.5 +- 0.5, coupling 0.1."""
    return AdaptiveConfig(omega_true=50.0, omega0=50.5, delta_omega0=0.5, lam=0.1,
                          nbar=nbar, max_steps=max_steps, seed=seed)


def _run_one(args) -> tuple:
    cfg, r = args
    traj = run_adaptive(replace(cfg, seed=cfg.seed + r))
    columns, est = traj.columns, traj.final_estimate
    # an aborted repetition sends back no final values
    final = None
    if not traj.aborted:
        final = (est.omega_hat - cfg.omega_true, est.delta_omega,
                 columns["n_units"][-1] * columns["tau"][-1])
    # only repetition 0's posterior is sent back across the pool
    return columns, final, traj.diagnostic, traj.final_posterior if r == 0 else None


def _usable_cpus() -> int:
    """The CPUs this process may run on, which under an affinity mask
    (taskset, a cpuset-limited container) are fewer than the host's:
    os.process_cpu_count() where it exists (Python 3.13 on), else the
    size of the affinity mask, else os.cpu_count(). A CPU quota (cgroup
    cpu.max, as docker --cpus sets) leaves the mask as it is and is not
    counted."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_repetitions(cfg: AdaptiveConfig, n_reps: int,
                    n_workers: int | None = None) -> AggregateResult:
    """Average n_reps independent adaptive runs and fit the late-time scaling.

    Repetition r runs with seed cfg.seed + r, so repetition 0 is
    run_adaptive(cfg) and the result is a pure function of cfg and
    n_reps; it does not depend on the worker count. Nearby seeds share
    repetitions: seeds 1 and 2 have all but one in common. Aborted
    repetitions are counted but left out of the means; if every
    repetition aborts, ValueError names the diagnostic of repetition 0.
    The log-log precision-vs-time slope is fitted over the trailing
    FIT_TAIL_FRACTION of the steps where every averaged repetition has
    reached stage (ii), and over at least 3 steps; with max_steps below
    3 no slope is fitted. The repetitions run on min(n_workers, n_reps)
    processes, n_workers defaulting to the number of CPUs this process
    may run on (_usable_cpus); with one, they run in this process.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if n_workers is None:
        n_workers = _usable_cpus()
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    workers = min(n_workers, n_reps)
    jobs = [(cfg, r) for r in range(n_reps)]
    if workers == 1:
        results = [_run_one(j) for j in jobs]
    else:
        # imported here, so that importing qsense starts no pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_one, jobs, chunksize=max(1, n_reps // (4 * workers))))

    runs, finals, diagnostics, posteriors = zip(*results)
    aborted = tuple((r, diagnostics[r]) for r, final in enumerate(finals) if final is None)
    kept = [run for run, final in zip(runs, finals) if final is not None]
    if not kept:
        raise ValueError(f"all {n_reps} repetitions aborted; rep 0: {diagnostics[0]}")
    # a run that does not abort records max_steps steps
    per_rep = {name: np.stack([run[name] for run in kept]) for name in TRAJECTORY_COLUMNS}
    n_steps = per_rep["stage"].shape[1]
    columns = {name: per_rep[name].mean(axis=0) for name in STEP_COLUMNS}
    columns["stage"] = np.where((per_rep["stage"] == STAGE_II).all(axis=0), float(STAGE_II), 1.0)

    # the slope needs 3 points; a shorter ensemble reports none
    window = slope = None
    if n_steps >= 3:
        all2 = np.flatnonzero(columns["stage"] == STAGE_II)
        s = int(all2[0]) if len(all2) else n_steps - 1
        lo = s + int(math.ceil((1.0 - FIT_TAIL_FRACTION) * (n_steps - s)))
        window = (min(lo, n_steps - 3), n_steps - 1)
        slope = fit_loglog_slope(columns["mean_time"], columns["mean_delta_omega"], window)

    error, width, evolution_time = np.array([f for f in finals if f is not None]).T
    return AggregateResult(steps=columns, rep_columns=per_rep, final_error=error,
                           final_width=width, final_evolution_time=evolution_time,
                           fit_slope=slope, fit_window=window, aborted=aborted,
                           rep0_posterior=posteriors[0])


def matched_time_ratio(cold: AggregateResult, hot: AggregateResult) -> tuple[float, float]:
    """Mean precision ratio cold/hot at the smaller of the two final mean times.

    Each mean precision curve is interpolated linearly in log-log
    against its mean cumulative time. Returns (matched time, ratio).
    """
    t_star = min(cold.steps["mean_time"][-1], hot.steps["mean_time"][-1])
    dw = [np.exp(np.interp(np.log(t_star), np.log(agg.steps["mean_time"]),
                           np.log(agg.steps["mean_delta_omega"])))
          for agg in (cold, hot)]
    return float(t_star), float(dw[0] / dw[1])


def fringe_scan(n_units: int, zeta_range: tuple[float, float], n_points: int) -> tuple:
    """Tabulate the normalized fringe pattern and its derivative envelopes.

    The frequency axis is parameterized by the fringe label through
    omega*tau = 2*pi*(1 + zeta/N). Returns the arrays (zeta, |K|/N,
    finite-N derivative, universal envelope).
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    z0, z1 = zeta_range
    if not z0 < z1:
        raise ValueError(f"need zeta_min < zeta_max, got ({z0}, {z1})")
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    z = np.linspace(z0, z1, n_points)
    tau = 2 * np.pi
    omega = 1.0 + z / n_units
    k_over_n = np.abs(interference_factor(n_units, omega, tau)) / n_units
    return z, k_over_n, np.asarray(g_finite(n_units, z)), np.asarray(g_universal(z))


def gsq_scan(delta_zeta_values) -> np.ndarray:
    """Mean squared fringe derivative over windows of increasing half-width."""
    dz = np.asarray(delta_zeta_values, dtype=float)
    if len(dz) == 0:
        raise ValueError("delta_zeta_values must be nonempty")
    if np.any(dz <= 0):
        raise ValueError("delta_zeta_values must be positive")
    if len(dz) > 1 and np.any(np.diff(dz) <= 0):
        raise ValueError("delta_zeta_values must be strictly increasing")
    return np.array([g_sq_mean(d) for d in dz])


def fit_loglog_slope(x, y, window: tuple[int, int]) -> float:
    """Least-squares slope of log y against log x over an inclusive index window."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = window
    if not (0 <= lo <= hi < len(x)) or len(x) != len(y):
        raise ValueError(f"window {window} outside data of length {len(x)}")
    if hi - lo + 1 < 3:
        raise ValueError("fit window must contain at least 3 points")
    xs = x[lo:hi + 1]
    ys = y[lo:hi + 1]
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive values")
    lx = np.log(xs)
    ly = np.log(ys)
    design = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(design, ly, rcond=None)[0]
    return float(slope)
