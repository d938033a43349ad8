"""Command-line surface: stable CSV/JSON outputs for each experiment.

Four subcommands: `fringes` tabulates the interference pattern and its
derivative envelopes, `gsq` scans the windowed mean squared derivative
and fits its large-window slope, `adapt` runs the adaptive-estimation
ensemble, and `compare` reports the controlled-vs-free sensitivity
comparison. Every output embeds the fully resolved configuration that
`runconfig` returns, so a run can be reproduced byte for byte from its
own metadata; wall-clock timing goes to stderr only.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import simkit
from .runconfig import ConfigError, load_adaptive_config, load_compare_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_text(meta: dict, header: str, rows) -> str:
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_finite(args, *names) -> None:
    """Raise ConfigError naming each of these float flags that is not finite."""
    problems = [f"--{name.replace('_', '-')}: expected a finite number, got {getattr(args, name)!r}"
                for name in names if not np.isfinite(getattr(args, name))]
    if problems:
        raise ConfigError(problems)


def cmd_fringes(args) -> int:
    _check_finite(args, "zeta_min", "zeta_max")
    meta = {
        "command": "fringes",
        "n_units": args.n_units,
        "zeta_min": _fmt(args.zeta_min),
        "zeta_max": _fmt(args.zeta_max),
        "points": args.points,
    }
    try:
        cols = simkit.fringe_scan(args.n_units, (args.zeta_min, args.zeta_max), args.points)
    except ValueError as exc:
        # fringe_scan raises ValueError only for arguments it rejects
        raise ConfigError([str(exc)]) from exc
    rows = [",".join(map(_fmt, row)) for row in zip(*cols)]
    _write_text(args.out, _csv_text(meta, "zeta,k_over_n,g_finite,g_universal", rows))
    return EXIT_OK


def cmd_gsq(args) -> int:
    _check_finite(args, "min", "max", "fit_min", "fit_max")
    if not (args.min > 0 and args.max > args.min):
        raise ConfigError(["gsq range: need 0 < min < max"])
    if args.points < 2:
        raise ConfigError(["points: need at least 2"])
    dz = np.logspace(np.log10(args.min), np.log10(args.max), args.points)
    in_fit = np.flatnonzero((dz >= args.fit_min) & (dz <= args.fit_max))
    if len(in_fit) < 3:
        raise ConfigError(["fit range: fewer than 3 scan points inside [fit_min, fit_max]"])
    meta = {
        "command": "gsq",
        "min": _fmt(args.min),
        "max": _fmt(args.max),
        "points": args.points,
        "fit_min": _fmt(args.fit_min),
        "fit_max": _fmt(args.fit_max),
    }
    try:
        y = simkit.gsq_scan(dz)
    except ValueError as exc:
        # gsq_scan raises ValueError only for windows it rejects
        raise ConfigError([str(exc)]) from exc
    rows = [",".join((_fmt(x), _fmt(g))) for x, g in zip(dz, y)]
    _write_text(args.out, _csv_text(meta, "delta_zeta,g_sq_mean", rows))

    window = (int(in_fit[0]), int(in_fit[-1]))
    slope = simkit.fit_loglog_slope(dz, y, window)
    summary = {
        "command": "gsq",
        "config": {"min": args.min, "max": args.max, "points": args.points,
                   "fit_min": args.fit_min, "fit_max": args.fit_max},
        "slope": slope,
        "fit_window": list(window),
        "n_points_in_fit": int(len(in_fit)),
    }
    summary_path = args.summary or (os.path.splitext(args.out)[0] + "_summary.json")
    _write_text(summary_path, _json_text(summary))
    return EXIT_OK


def cmd_adapt(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigError([f"threads: expected a worker count >= 1, got {args.threads}"])
    overrides = {"n_reps": args.reps, "seed": args.seed}
    cfg, resolved = load_adaptive_config(args.config, overrides)
    t0 = time.perf_counter()
    agg = simkit.run_repetitions(cfg, resolved["n_reps"], n_workers=args.threads)
    wall = time.perf_counter() - t0
    n_steps = len(agg.mean_delta_omega)
    print(f"adapt: {resolved['n_reps']} repetitions, {n_steps} steps, "
          f"wall clock {wall:.2f} s", file=sys.stderr)
    if agg.n_aborted:
        rep, diagnostic = agg.first_abort
        print(f"adapt: {agg.n_aborted} repetitions aborted; first, rep {rep}: {diagnostic}",
              file=sys.stderr)
        return EXIT_NUMERICAL

    meta = {"command": "adapt"}
    meta.update({k: resolved[k] for k in sorted(resolved)})
    cols = (agg.mean_n_units, agg.mean_tau, agg.mean_nu, agg.mean_cumulative_time,
            agg.mean_delta_omega, agg.mean_zeta, agg.mean_scaled_alpha)
    rows = [",".join((str(step), str(int(stage)), *map(_fmt, values)))
            for step, (stage, *values) in enumerate(zip(agg.stage_column, *cols))]
    prefix = args.out_prefix
    header = "step,stage,n_units,tau,nu,mean_time,mean_delta_omega,mean_zeta,mean_scaled_alpha"
    _write_text(prefix + "_steps.csv", _csv_text(meta, header, rows))

    summary = {
        "command": "adapt",
        "config": resolved,
        "fit_slope": agg.fit_slope,
        "fit_window": list(agg.fit_window) if agg.fit_window else None,
        "final_mean_delta_omega": float(agg.mean_delta_omega[-1]),
        "final_mean_time": float(agg.mean_cumulative_time[-1]),
        "n_common_steps": n_steps,
    }
    _write_text(prefix + "_summary.json", _json_text(summary))

    if args.snapshot_posterior:
        post = agg.rep0_posterior
        snap_meta = {"command": "adapt snapshot", "seed": cfg.seed}
        snap_rows = [",".join((_fmt(om), _fmt(w)))
                     for om, w in zip(post.grid, post.weights)]
        _write_text(args.snapshot_posterior,
                    _csv_text(snap_meta, "omega,weight", snap_rows))
    return EXIT_OK


def cmd_compare(args) -> int:
    report, resolved = load_compare_config(args.config)
    doc = {"command": "compare", "config": resolved, "report": asdict(report)}
    text = _json_text(doc)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsense",
        description="Oscillator-frequency sensing with a pulsed qubit probe",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    f = sub.add_parser("fringes", help="tabulate the fringe pattern and derivative envelopes")
    f.add_argument("--n-units", type=int, default=50)
    f.add_argument("--zeta-min", type=float, default=-10.0)
    f.add_argument("--zeta-max", type=float, default=10.0)
    f.add_argument("--points", type=int, default=2001)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fringes)

    g = sub.add_parser("gsq", help="scan the windowed mean squared fringe derivative")
    g.add_argument("--min", type=float, default=0.1)
    g.add_argument("--max", type=float, default=1000.0)
    g.add_argument("--points", type=int, default=61)
    g.add_argument("--fit-min", type=float, default=10.0)
    g.add_argument("--fit-max", type=float, default=1000.0)
    g.add_argument("--out", required=True)
    g.add_argument("--summary", default=None,
                   help="summary JSON path (default: derived from --out)")
    g.set_defaults(func=cmd_gsq)

    a = sub.add_parser("adapt", help="run the adaptive-estimation ensemble")
    a.add_argument("--config", required=True)
    a.add_argument("--reps", type=int, default=None)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--out-prefix", default="adapt")
    a.add_argument("--threads", type=int, default=None,
                   help="worker cap (default: the CPU count)")
    a.add_argument("--snapshot-posterior", default=None,
                   help="also write the final posterior CSV of repetition 0 here")
    a.set_defaults(func=cmd_adapt)

    c = sub.add_parser("compare", help="controlled vs free-evolution sensitivity report")
    c.add_argument("--config", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
