"""qsense benchmark: three adaptive-estimation workloads.

Run one workload from the repository root:

    python3 bench/run.py --workload hot_stage2 --seed 1 --seconds 30 --trace 0

The library is imported from `src/` of the same checkout; nothing is
installed. Every workload is closed loop with one client: the next
repetition (or `qsense adapt` invocation) starts when the previous one
has returned. All inputs derive from --seed; rep r of seed s runs with
AdaptiveConfig.seed = s * SEED_STRIDE + r.

--trace 0 prints the end-to-end metrics, --trace 1 a separate traced
run that prints the per-layer metrics and writes its spans to
.bench_out/. The last line of stdout is the result object; the line
before it carries the run details (machine, seed, trajectory
fingerprint, sample counts). `bench/README.md` lists the metrics and
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import CountingRng, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SEED_STRIDE = 1_000_000
SETUP_SAMPLES = 11
WORKERS = min(2, len(os.sched_getaffinity(0)))

REFERENCE = dict(omega_true=50.0, omega0=50.5, delta_omega0=0.5, lam=0.1, max_steps=250)

# batch: the stated rep count over which one reps_per_s sample is taken
# (one `qsense adapt --reps batch` invocation on cli_cold_pool).
# ref_reps: the first reps of a run, always completed, over which the
# exact counts and the trajectory fingerprint are taken.
# ref_passes: passes of the speed reference (below) per sample.
WORKLOADS = {
    "hot_stage2": dict(params={**REFERENCE, "nbar": 1000.0}, batch=8, ref_reps=16,
                       ref_passes=1),
    "wide_probe": dict(params=dict(omega_true=50.0, omega0=53.0, delta_omega0=4.0, lam=0.1,
                                   nbar=0.0, max_steps=250), batch=4, ref_reps=8, ref_passes=1),
    "cli_cold_pool": dict(params={**REFERENCE, "nbar": 10.0}, batch=8, ref_reps=8,
                          ref_passes=5, cli=True),
}

# Timings are scaled to a fixed machine speed. On a shared 2-core host
# the speed of the same code drifts by up to 1.7x within minutes, which
# no run of at most 60 s averages out. Right before each rep (each
# invocation on cli_cold_pool), and once after the last, a run times a
# fixed numpy workload shaped like the grid likelihood, which does not
# call qsense. Each sample is scaled by REF_NOMINAL_S over the geometric
# mean of the reference times right before and right after it, so a
# slowdown that starts during a rep is caught too. Scaling by a
# run-level median instead does not help: the drift is faster than a
# run. A pass takes about 8 ms. A `cli_cold_pool` invocation, 1.2 s
# long, is scaled by five passes, since the time of one pass right after
# a subprocess has exited varies more than the invocation itself. Raw
# values go to the details.
REF_NOMINAL_S = 0.008
REF_GRID = np.linspace(45.0, 55.0, 4096)

KERNELS = (("alpha_cpmg", "model.alpha_cpmg"), ("_k_abs", "protocol.k_abs"),
           ("stage1_plan", "protocol.stage1_plan"), ("stage2_plan", "protocol.stage2_plan"))

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qsense
if sys.argv[2] == "cli":
    import qsense.cli
    from qsense.runconfig import load_adaptive_config
    cfg, harness = load_adaptive_config(sys.argv[3])
else:
    from qsense.protocol import AdaptiveConfig
    cfg = AdaptiveConfig(**json.loads(sys.argv[3]))
print(time.perf_counter() - t0)
"""

# The set-up time drifts with the machine speed as well, but the numpy
# reference above does not follow it (correlation 0.14 over 300
# samples): set-up is interpreter work, loading numpy's extension
# modules and compiling qsense's sources. It also steps by up to 30%
# between runs, while an import of pure-Python standard-library modules
# does not move. So each set-up sample is paired with a fresh
# interpreter, started right before it, that imports the third-party
# modules qsense imports (numpy, yaml) and compiles a fixed source text.
# The sample is scaled by SETUP_REF_NOMINAL_S over that time.
SETUP_REF_CODE = """
import time
t0 = time.perf_counter()
import numpy, yaml
src = "".join(f"def f{i}(x, y=2):\\n    return [x * {i} + k for k in range(x) if k % y]\\n"
              for i in range(400))
compile(src, "reference", "exec")
print(time.perf_counter() - t0)
"""
SETUP_REF_NOMINAL_S = 0.2


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version, "platform": platform.platform()}


def tail(values) -> tuple[float, float, int]:
    """Value with max(10, n // 10) of the n samples beyond it.

    That is the 90th percentile once a run has 100 samples, and the
    highest percentile with ten samples beyond it below that. Returns
    (value, percentile, samples beyond). When that percentile would lie
    below the median (fewer than 21 samples) the maximum is returned
    instead, with nothing beyond it.
    """
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0, 0
    beyond = max(10, n // 10)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def reference_s(passes: int) -> float:
    """Seconds per pass of the reference workload, over `passes` passes."""
    x = REF_GRID
    t0 = time.perf_counter()
    for _ in range(20 * passes):
        a = np.exp(1j * 0.13 * x) * np.cos(0.016 * x) * np.sin(0.016 * x) ** 3 / x
        k = np.abs(np.sin(1.3 * x) / np.sin(0.065 * x))
        w = np.log(np.clip((1 + np.exp(-2 * (np.abs(a) * k) ** 2)) / 2, 1e-12, 1.0))
        np.exp(w - w.max()).sum()
    return (time.perf_counter() - t0) / passes


def batch_rates(latencies, batch: int) -> list[float]:
    """reps per second of each complete run of `batch` consecutive reps."""
    return [batch / sum(latencies[k:k + batch])
            for k in range(0, len(latencies) - batch + 1, batch)]


def child_seconds(code: str, *args: str) -> float:
    """The time a fresh interpreter running `code` prints as its last line."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_times(kind: str, arg: str) -> tuple[list[float], list[float]]:
    """Raw set-up seconds and the paired reference seconds, SETUP_SAMPLES each."""
    raw, ref = [], []
    for _ in range(SETUP_SAMPLES):
        ref.append(child_seconds(SETUP_REF_CODE))
        raw.append(child_seconds(SETUP_CODE, str(SRC), kind, arg))
    return raw, ref


# ---------------------------------------------------------------- outputs


def record_rows(traj):
    """Per-step records as fingerprint rows."""
    return [(r.plan.stage, r.plan.n_units, r.plan.tau, r.plan.repetitions, r.n_plus,
             r.omega_k, r.delta_omega_k, r.cumulative_time) for r in traj.records]


def fingerprint(rows_per_rep) -> str:
    h = hashlib.sha256()
    for rows in rows_per_rep:
        for stage, n, tau, nu, n_plus, om, dw, t in rows:
            h.update(f"{stage},{n},{tau.hex()},{nu},{n_plus},{om.hex()},{dw.hex()},{t.hex()}\n"
                     .encode())
        h.update(b"--\n")
    return h.hexdigest()


def check_rep(cfg, traj) -> tuple[bool, bool, float, float]:
    """(well formed, failed, error, reported width) of one repetition.

    A rep fails if it aborts, ends with a non-finite estimate, or lands
    on an alias: |omega_hat - omega_true| > pi / T_last.
    """
    recs = traj.records
    ok = len(recs) <= cfg.max_steps and (traj.aborted or len(recs) == cfg.max_steps)
    t_prev, stage_prev = 0.0, 1
    for r in recs:
        ok &= r.plan.stage in (1, 2) and r.plan.stage >= stage_prev
        ok &= r.n_plus >= 0 and r.n_minus >= 0 and r.n_plus + r.n_minus == r.plan.repetitions
        ok &= math.isfinite(r.omega_k) and r.delta_omega_k > 0
        ok &= r.cumulative_time > t_prev
        t_prev, stage_prev = r.cumulative_time, r.plan.stage
    est = traj.final_estimate
    err = est.omega_hat - cfg.omega_true
    if traj.aborted or not recs or not math.isfinite(err):
        return bool(ok), True, err, est.delta_omega
    last = recs[-1].plan
    return bool(ok), bool(abs(err) > math.pi / (last.n_units * last.tau)), err, est.delta_omega


STEPS_HEADER = "step,stage,n_units,tau,nu,mean_time,mean_delta_omega,mean_zeta,mean_scaled_alpha"


def check_cli_outputs(paths, reps: int, seed: int, cfg):
    """Validate one `qsense adapt` invocation's files.

    Returns (well formed, fit slope, output bytes, sha256 of the files).
    """
    try:
        return _check_cli_outputs([p.read_bytes() for p in paths], reps, seed,
                                  cfg.max_steps, cfg.n_points)
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return False, math.nan, 0, ""


def _check_cli_outputs(blobs, reps, seed, steps, n_points):
    digest = hashlib.sha256(b"".join(blobs)).hexdigest()
    summary = json.loads(blobs[1])
    ok = (summary["config"]["n_reps"] == reps and summary["config"]["seed"] == seed
          and summary["n_common_steps"] == steps and math.isfinite(summary["fit_slope"]))
    lines = [ln for ln in blobs[0].decode().splitlines() if not ln.startswith("#")]
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    ok &= lines[0] == STEPS_HEADER and table.shape == (steps, 9) and bool(np.isfinite(table).all())
    if ok:
        ok &= bool((table[:, 0] == np.arange(steps)).all() and np.isin(table[:, 1], (1, 2)).all())
        ok &= bool((np.diff(table[:, 5]) > 0).all() and (table[:, 6] > 0).all())
        ok &= table[-1, 6] == summary["final_mean_delta_omega"]
    snap = [ln for ln in blobs[2].decode().splitlines() if not ln.startswith("#")]
    post = np.array([[float(x) for x in ln.split(",")] for ln in snap[1:]])
    ok &= snap[0] == "omega,weight" and post.shape == (n_points, 2)
    if ok:
        ok &= bool((np.diff(post[:, 0]) > 0).all() and (post[:, 1] >= 0).all())
        ok &= abs(post[:, 1].sum() - 1.0) < 1e-6
    return bool(ok), summary["fit_slope"], sum(len(b) for b in blobs), digest


# ---------------------------------------------------------------- workloads


class Run:
    """Accumulates one run's samples, checks and details."""

    def __init__(self, name: str, seed: int, spec: dict):
        self.name, self.seed, self.spec = name, seed, spec
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.details: dict = {}

    def rep_cfg(self, r: int, **extra):
        from qsense.protocol import AdaptiveConfig

        return AdaptiveConfig(**{**self.spec["params"], **extra},
                              seed=self.seed * SEED_STRIDE + r)

    def scale(self) -> None:
        """Time the reference workload and record the sample's scale factor."""
        self.scales.append(REF_NOMINAL_S / reference_s(self.spec["ref_passes"]))

    def timings(self, latencies) -> tuple[float, float, float, float, int]:
        """(reps_per_s, p50 ms, tail ms, tail percentile, samples beyond)."""
        value, pct, beyond = tail(latencies)
        if self.spec.get("cli"):
            # one sample is one invocation of `batch` reps
            rates = [self.spec["batch"] / lat for lat in latencies]
        else:
            rates = batch_rates(latencies, self.spec["batch"])
        return (statistics.median(rates), statistics.median(latencies) * 1e3, value * 1e3,
                pct, beyond)

    def end_to_end(self, setup: tuple[list[float], list[float]], peak_kb: int) -> dict:
        scaled = [lat * math.sqrt(before * after)
                  for lat, before, after in zip(self.latencies, self.scales, self.scales[1:])]
        rate, p50, tail_ms, pct, beyond = self.timings(scaled)
        raw = self.timings(self.latencies)
        setup_raw, setup_ref = setup
        self.details.update(samples=len(self.latencies), tail_percentile=pct,
                            tail_samples_beyond=beyond, setup_samples=len(setup_raw),
                            reference_ms=REF_NOMINAL_S / statistics.median(self.scales) * 1e3,
                            setup_reference_ms=statistics.median(setup_ref) * 1e3,
                            raw={"reps_per_s": raw[0], "run_p50_ms": raw[1],
                                 "run_tail_ms": raw[2], "setup_s": statistics.median(setup_raw)})
        return {
            "reps_per_s": rate,
            "run_p50_ms": p50,
            "run_tail_ms": tail_ms,
            "setup_s": statistics.median(s * SETUP_REF_NOMINAL_S / r
                                         for s, r in zip(setup_raw, setup_ref)),
            "peak_rss_mb": peak_kb / 1024.0,
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }


def serial_reps(run: Run, seconds: float, tracer: Tracer | None = None):
    """Run reps back to back for `seconds` (and at least the reference reps).

    With a tracer, each rep runs twice: untraced (timed into
    run.latencies) and traced through the kernel wrappers with a
    counting generator. Returns the per-rep (rows, counts, error,
    width, failed) tuples, rows kept for the reference reps only, and
    the traced latencies.
    """
    from qsense import protocol

    ref = run.spec["ref_reps"]
    targets = [(protocol, attr, name) for attr, name in KERNELS]
    per_rep = []
    traced_lat = []
    t_start = time.perf_counter()
    r = 0
    while r < ref or time.perf_counter() - t_start < seconds:
        cfg = run.rep_cfg(r)
        run.scale()
        t0 = time.perf_counter()
        traj = protocol.run_adaptive(cfg)
        run.latencies.append(time.perf_counter() - t0)
        rows = record_rows(traj)
        counts = None
        if tracer is not None:
            rng = CountingRng(np.random.default_rng(cfg.seed))
            tracer.rep = r
            with tracer.wrapped(targets):
                t0 = time.perf_counter()
                with tracer.span("protocol.run_adaptive"):
                    traj = protocol.run_adaptive(cfg, rng=rng)
                traced_lat.append(time.perf_counter() - t0)
            # tracing must not change what the loop does
            run.correct &= record_rows(traj) == rows
            stage2 = next((k for k, row in enumerate(rows) if row[0] == 2), len(rows))
            counts = (rng.calls, rng.shots, len(rows), stage2)
        ok, failed, err, width = check_rep(cfg, traj)
        run.correct &= ok
        run.attempted += 1
        run.failed += failed
        # rows are kept for the fingerprint only, so the run's own memory
        # does not grow with its rep count
        per_rep.append((rows if r < ref else None, counts, err, width, failed))
        r += 1
    run.scale()
    run.details["fingerprint"] = fingerprint(p[0] for p in per_rep[:ref])
    run.details["fingerprint_reps"] = ref
    return per_rep, traced_lat


def cli_argv(run: Run, cfg_path: Path, i: int) -> tuple[list[str], tuple[Path, Path, Path], int]:
    master = run.seed * SEED_STRIDE + i * run.spec["batch"]
    prefix = OUT / f"{run.name}-{run.seed}-{i % 2}"
    paths = (Path(f"{prefix}_steps.csv"), Path(f"{prefix}_summary.json"),
             Path(f"{prefix}_snapshot.csv"))
    argv = ["adapt", "--config", str(cfg_path), "--reps", str(run.spec["batch"]),
            "--seed", str(master), "--out-prefix", str(prefix), "--threads", str(WORKERS),
            "--snapshot-posterior", str(paths[2])]
    return argv, paths, master


def cli_config(run: Run) -> Path:
    params = {("lambda" if k == "lam" else k): v for k, v in run.spec["params"].items()}
    path = OUT / f"{run.name}-{run.seed}.json"
    path.write_text(json.dumps(params, indent=2) + "\n", encoding="utf-8")
    return path


def cli_invocations(run: Run, cfg_path: Path, seconds: float, invoke) -> list[int]:
    """Invoke `qsense adapt` back to back for `seconds`; check every output.

    An invocation starts only if, at the last one's latency, it would
    end inside the window.
    """
    slopes, sizes = [], []
    t_start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t_start + run.latencies[-1] <= seconds:
        argv, paths, master = cli_argv(run, cfg_path, i)
        for p in paths:
            p.unlink(missing_ok=True)
        run.scale()
        t0 = time.perf_counter()
        rc = invoke(argv)
        run.latencies.append(time.perf_counter() - t0)
        run.attempted += 1
        if rc != 0:
            run.failed += 1
        else:
            ok, slope, size, digest = check_cli_outputs(
                paths, run.spec["batch"], master, run.rep_cfg(0))
            run.correct &= ok
            if ok:
                slopes.append(slope)
            sizes.append(size)
            if i == 0:
                run.details["fingerprint"] = digest
                run.details["fingerprint_reps"] = run.spec["batch"]
        i += 1
    run.scale()
    if slopes:
        run.details["fit_slope_median"] = statistics.median(slopes)
    return sizes


def subprocess_invoke(argv) -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "qsense.cli", *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=150)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode


def warm_up(run: Run) -> None:
    from qsense.protocol import run_adaptive

    run_adaptive(run.rep_cfg(SEED_STRIDE - 1, max_steps=3))


def run_untraced(run: Run, seconds: float) -> dict:
    spec = run.spec
    if spec.get("cli"):
        cfg_path = cli_config(run)
        setup = setup_times("cli", str(cfg_path))
        cli_invocations(run, cfg_path, seconds, subprocess_invoke)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        setup = setup_times("serial", json.dumps(spec["params"]))
        warm_up(run)
        serial_reps(run, seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return run.end_to_end(setup, peak)


ESTIMATION_CALLS = ("bayes_update", "mle", "uncertainty", "regrid")


def estimation_us() -> dict:
    """Per-call microseconds of the estimation functions on a 4096-point posterior.

    A function a later version no longer has (or whose signature
    changed) reads 0.
    """
    from qsense import estimation as est
    from qsense.model import Coupling, alpha_cpmg, interference_factor

    out = {f"estimation.{name}.us_per_call": 0.0 for name in ESTIMATION_CALLS}
    try:
        post = est.gaussian_prior(50.0, 0.5, 8.0, 4096)
        tau, n_units = 2 * math.pi / 50.0 * (1 + 1 / 20), 20
        amp = np.abs(alpha_cpmg(Coupling(0.1), post.grid, tau)
                     * interference_factor(n_units, post.grid, tau))
        p_plus = (1 + np.exp(-2 * 21.0 * amp**2)) / 2
        post1 = est.bayes_update(post, p_plus, 2, 1)
        w = est.mle(post1)
        dw = est.uncertainty(post1, w)
    except (AttributeError, TypeError, ValueError):
        return out
    calls = {
        "bayes_update": lambda: est.bayes_update(post, p_plus, 2, 1),
        "mle": lambda: est.mle(post1),
        "uncertainty": lambda: est.uncertainty(post1, w),
        "regrid": lambda: est.regrid(post1, w, 10 * dw, 4096),
    }
    for name, call in calls.items():
        try:
            call()
        except (AttributeError, TypeError, ValueError):
            continue
        per_batch = []
        for _ in range(15):
            t0 = time.perf_counter()
            for _ in range(20):
                call()
            per_batch.append((time.perf_counter() - t0) / 20)
        out[f"estimation.{name}.us_per_call"] = statistics.median(per_batch) * 1e6
    return out


def per_rep_layers(run: Run, tracer: Tracer, per_rep, traced_lat) -> dict:
    """Model and protocol metrics from the traced reps."""
    n = len(traced_lat)
    ref = run.spec["ref_reps"]
    stats = tracer.stats()
    ref_stats = tracer.stats(reps=range(ref))
    zero = (0, 0.0, 0.0)
    out = {}
    for metric, span in (("model.alpha_cpmg", "model.alpha_cpmg"), ("protocol.k_abs", "protocol.k_abs")):
        calls, total, _ = stats.get(span, zero)
        out[f"{metric}.calls_per_rep"] = ref_stats.get(span, zero)[0] / ref
        out[f"{metric}.us_per_call"] = total / calls * 1e6 if calls else 0.0
        out[f"{metric}.ms_per_rep"] = total / n * 1e3
    counts = np.array([p[1] for p in per_rep[:ref]], dtype=float)
    out["protocol.measure_calls_per_rep"] = counts[:, 0].mean()
    out["protocol.probe_blocks_per_rep"] = (counts[:, 0] - counts[:, 2]).mean()
    out["protocol.steps_per_rep"] = counts[:, 2].mean()
    out["protocol.stage2_step"] = counts[:, 3].mean()
    out["protocol.shots_per_rep"] = counts[:, 1].mean()
    out["model.grid_points_per_rep"] = counts[:, 0].mean() * run.rep_cfg(0).n_points
    _, run_total, run_self = stats.get("protocol.run_adaptive", zero)
    out["protocol.run_adaptive.ms_per_rep"] = run_total / n * 1e3
    out["protocol.self_ms_per_rep"] = run_self / n * 1e3
    kernel = stats.get("model.alpha_cpmg", zero)[1] + stats.get("protocol.k_abs", zero)[1]
    out["protocol.kernel_share"] = kernel / run_total
    plans = [stats.get(s, zero) for s in ("protocol.stage1_plan", "protocol.stage2_plan")]
    plan_calls = sum(p[0] for p in plans)
    out["protocol.plan.us_per_call"] = sum(p[1] for p in plans) / plan_calls * 1e6 if plan_calls else 0.0
    err = np.array([p[2] for p in per_rep])
    width = np.array([p[3] for p in per_rep])
    out["protocol.rms_err_over_width"] = float(np.sqrt(np.mean(err**2)) / np.mean(width))
    out["protocol.coverage_3w"] = float(np.mean(np.abs(err) <= 3 * width))
    out["protocol.alias_reps"] = float(sum(p[4] for p in per_rep))
    untraced = run.latencies[-n:]
    out["trace.overhead_ms_per_rep"] = (sum(traced_lat) - sum(untraced)) / n * 1e3
    return out


def run_traced(run: Run, seconds: float) -> dict:
    from qsense import cli, protocol, simkit

    tracer = Tracer()
    spec = run.spec
    warm_up(run)
    layers = {"simkit.run_repetitions.s": 0.0, "simkit.parallel_efficiency": 0.0,
              "runconfig.load_ms": 0.0, "cli.snapshot_run_ms": 0.0, "cli.output_bytes": 0.0}
    if spec.get("cli"):
        t_start = time.perf_counter()
        per_rep, traced_lat = serial_reps(run, 0.0, tracer)
        run.details["records_fingerprint"] = run.details["fingerprint"]
        cfg_path = cli_config(run)
        targets = [(cli, "load_adaptive_config", "runconfig.load_adaptive_config"),
                   (cli, "run_adaptive", "cli.run_adaptive"),
                   (simkit, "run_repetitions", "simkit.run_repetitions")]
        serial_lat, run.latencies = run.latencies, []
        serial = (run.attempted, run.failed)
        run.attempted = run.failed = 0
        # one more untraced serial rep before each invocation, so the
        # serial baseline of the parallel efficiency spans the same time
        pool_serial = list(serial_lat)

        def invoke(argv):
            t0 = time.perf_counter()
            protocol.run_adaptive(run.rep_cfg(len(pool_serial)))
            pool_serial.append(time.perf_counter() - t0)
            tracer.rep = SEED_STRIDE + run.attempted
            with tracer.wrapped(targets), tracer.span("cli.main"):
                return cli.main(argv)

        remaining = max(seconds - (time.perf_counter() - t_start), 0.0)
        sizes = cli_invocations(run, cfg_path, remaining, invoke)
        serial_median = statistics.median(pool_serial)
        stats = tracer.stats(reps=range(SEED_STRIDE, SEED_STRIDE + run.attempted))
        mean_s = {k: (v[1] / v[0] if v[0] else 0.0) for k, v in stats.items()}
        pool_s = mean_s.get("simkit.run_repetitions", 0.0)
        layers.update({
            "simkit.run_repetitions.s": pool_s,
            "simkit.parallel_efficiency": (spec["batch"] * serial_median / (WORKERS * pool_s)
                                           if pool_s else 0.0),
            "runconfig.load_ms": mean_s.get("runconfig.load_adaptive_config", 0.0) * 1e3,
            "cli.snapshot_run_ms": mean_s.get("cli.run_adaptive", 0.0) * 1e3,
            "cli.output_bytes": float(statistics.mean(sizes)) if sizes else 0.0,
        })
        run.details.update(invocations=run.attempted, serial_rep_median_ms=serial_median * 1e3,
                           serial_reps=len(pool_serial))
        # the serial reps were checked too; count them with the invocations
        run.latencies = serial_lat
        run.attempted += serial[0]
        run.failed += serial[1]
    else:
        per_rep, traced_lat = serial_reps(run, seconds, tracer)
    layers.update(per_rep_layers(run, tracer, per_rep, traced_lat))
    layers.update(estimation_us())
    run.details.update(traced_reps=len(traced_lat), spans=len(tracer.names))
    spans_path = OUT / f"spans-{run.name}-{run.seed}.npz"
    tracer.save(str(spans_path))
    run.details["spans_file"] = str(spans_path.relative_to(ROOT))
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qsense" / "__init__.py").is_file():
        print(f"bench: no qsense sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63 // SEED_STRIDE:
        print("bench: --seed out of range", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace
                                                              else "end_to_end"]
    run = Run(args.workload, args.seed, WORKLOADS[args.workload])
    if args.trace:
        values = run_traced(run, args.seconds)
    else:
        values = run_untraced(run, args.seconds)
    if set(values) != {m["name"] for m in listed}:
        print(f"bench: computed metrics {sorted(values)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    run.details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                       trace=args.trace, workers=WORKERS,
                       params=run.spec["params"], batch=run.spec["batch"], machine=machine())
    print(json.dumps({"details": run.details}, default=float))
    print(json.dumps({
        "correct": bool(run.correct),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
