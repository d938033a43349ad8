"""Reproduce the precision-versus-time scaling of the adaptive protocol.

Runs ensembles of the two-stage adaptive estimator at two oscillator
temperatures (nbar = 10 and nbar = 1000), averages the per-step
uncertainty and cumulative interrogation time over repetitions, fits
the late-time log-log slope (expected near -2), and reports the
precision ratio between the two temperatures at the matched total time.
With the default 500 repetitions this takes a couple of minutes on one
core; pass --reps 50 for a quick look.
"""

import argparse
import time

from qsense.simkit import matched_time_ratio, reference_config, run_repetitions


def run_ensemble(nbar, reps, steps, seed, workers):
    cfg = reference_config(nbar, max_steps=steps, seed=seed)
    t0 = time.perf_counter()
    agg = run_repetitions(cfg, reps, n_workers=workers)
    wall = time.perf_counter() - t0
    slope = "none" if agg.fit_slope is None else f"{agg.fit_slope:.3f}"
    print(f"nbar = {nbar:g}: {reps} reps x {len(agg.steps['stage'])} steps "
          f"in {wall:.1f} s, slope {slope} "
          f"over window {agg.fit_window}, aborted {len(agg.aborted)}")
    return agg


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--steps", type=int, default=250)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--threads", type=int, default=None)
    args = ap.parse_args()

    cold = run_ensemble(10.0, args.reps, args.steps, args.seed, args.threads)
    hot = run_ensemble(1000.0, args.reps, args.steps, args.seed, args.threads)

    t_star, ratio = matched_time_ratio(cold, hot)
    print(f"matched total time {t_star:.3e}: "
          f"precision ratio (nbar 10 over nbar 1000) = {ratio:.2f}")
    print(f"final mean uncertainty, nbar=10:   {cold.steps['mean_delta_omega'][-1]:.3e}")
    print(f"final mean uncertainty, nbar=1000: {hot.steps['mean_delta_omega'][-1]:.3e}")


if __name__ == "__main__":
    main()
