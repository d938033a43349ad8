"""Two-stage adaptive frequency estimation with a pulsed qubit probe.

Each step chooses a period count N, pulse interval tau, and shot count
nu from the current estimate, measures the qubit nu times, and updates
a grid posterior. Stage (i) keeps the evolution time near the inverse
frequency uncertainty (fringe acquisition); once the uncertainty drops
below the effective coupling rate, stage (ii) lengthens the probe as
1/sqrt(dw) and rides the first interference fringe, which yields the
1/T^2 precision trajectory.

The controller feeds back a windowed posterior width (RMS within half a
fringe period of the point estimate) and defends the estimate with
explicit disambiguation probes: whenever posterior mass accumulates far
from the estimate, extra short measurement blocks are scheduled that
put the leading rival frequency at fringe resonance while parking the
incumbent at a node, so whichever is wrong is carved away at an
exponential per-shot rate. Mass that fails such a gauntlet is dropped
when the grid window shrinks, which prevents periodic-likelihood
aliases from ever being amplified back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import Estimate, Posterior
from .information import G_RMS1
from .model import Coupling, PulseSequence, alpha_cpmg, alpha_single_unit, cpmg_displacement_abs

STAGE_I = 1
STAGE_II = 2

# Disambiguation-probe thresholds: far mass above PROBE_ON arms the
# probe latch; the latch stays armed across steps until far mass falls
# below PROBE_OFF. The regrid keeper threshold (in nats below the peak)
# matches PROBE_OFF so only probe-cleared mass can be dropped.
PROBE_ON = 1e-6
PROBE_OFF = 1e-11
KEEP_LOG_NATS = 25.3
NU_PROBE = 3
MAX_PROBE_BLOCKS = 40

__all__ = [
    "STAGE_I",
    "STAGE_II",
    "AdaptiveConfig",
    "StepPlan",
    "StepRecord",
    "Trajectory",
    "nint",
    "lambda_tilde_cpmg",
    "lambda_tilde_step",
    "stage1_plan",
    "stage2_plan",
    "stage_transition",
    "run_adaptive",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Physical parameters, schedule constants, and run policy."""

    omega_true: float
    omega0: float
    delta_omega0: float
    lam: float
    nbar: float
    c_i: float = 0.1
    kappa_i: float = 2.0
    c: float = 0.1
    kappa: float = 2.0
    max_steps: int = 200
    target_precision: float | None = None
    max_total_time: float | None = None
    seed: int = 12345
    span_sigmas: float = 8.0
    n_points: int = 4096
    regrid_trigger_spacings: float = 20.0
    regrid_halfwidth_sigmas: float = 10.0

    def __post_init__(self):
        problems = []
        for name in ("omega_true", "omega0", "delta_omega0", "lam", "c_i", "c",
                     "span_sigmas"):
            if not getattr(self, name) > 0:
                problems.append(f"{name} must be positive, got {getattr(self, name)}")
        if self.nbar < 0:
            problems.append(f"nbar must be nonnegative, got {self.nbar}")
        if self.kappa_i < 1:
            problems.append(f"kappa_i must be >= 1, got {self.kappa_i}")
        if not self.kappa > 1:
            problems.append(f"kappa must be > 1, got {self.kappa}")
        if not self.delta_omega0 < self.omega0:
            problems.append("delta_omega0 must be below omega0")
        if not self.omega0 - self.span_sigmas * self.delta_omega0 > 0:
            problems.append("prior grid must stay above omega = 0: need "
                            "omega0 - span_sigmas*delta_omega0 > 0, got "
                            f"{self.omega0 - self.span_sigmas * self.delta_omega0}")
        if self.max_steps < 1:
            problems.append(f"max_steps must be >= 1, got {self.max_steps}")
        if self.target_precision is not None and not self.target_precision > 0:
            problems.append("target_precision must be positive when set")
        if self.max_total_time is not None and not self.max_total_time > 0:
            problems.append("max_total_time must be positive when set")
        if not 0 <= self.seed < 2**64:
            problems.append("seed must fit in 64 unsigned bits")
        if self.n_points < 64:
            problems.append(f"n_points must be >= 64, got {self.n_points}")
        if not self.regrid_trigger_spacings > 0 or not self.regrid_halfwidth_sigmas > 0:
            problems.append("regrid thresholds must be positive")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class StepPlan:
    """Measurement settings chosen for one adaptive step."""

    stage: int
    n_units: int
    tau: float
    repetitions: int
    lambda_tilde_k: float

    def __post_init__(self):
        if self.stage not in (STAGE_I, STAGE_II):
            raise ValueError(f"stage must be 1 or 2, got {self.stage}")
        if self.n_units < 1 or self.repetitions < 1:
            raise ValueError("n_units and repetitions must be >= 1")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class StepRecord:
    """One step's plan, outcomes, estimate, and diagnostics.

    zeta_k and scaled_alpha_k are evaluated at the true frequency, as
    simulation-side diagnostics; the controller never sees them.
    probe_time is the extra evolution time spent in disambiguation
    blocks during this step (zero when no probe fired).
    """

    step_index: int
    plan: StepPlan
    n_plus: int
    n_minus: int
    omega_k: float
    delta_omega_k: float
    zeta_k: float
    scaled_alpha_k: float
    cumulative_time: float
    gain_G_k: float
    probe_time: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Complete record of one adaptive run.

    final_posterior is populated only when the run was asked to keep it
    (debug snapshot export); ensemble runs leave it empty.
    """

    records: tuple[StepRecord, ...]
    final_estimate: Estimate
    stage1_time: float
    stage2_time: float
    aborted: bool = False
    diagnostic: str = ""
    final_posterior: Posterior | None = None


def nint(a: float) -> int:
    """Nearest integer, halves rounded away from zero."""
    return int(math.floor(a + 0.5)) if a >= 0 else int(math.ceil(a - 0.5))


def lambda_tilde_cpmg(lam: float, nbar: float) -> float:
    """Effective coupling rate lam*sqrt(2*nbar+1)/pi at fringe resonance."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if nbar < 0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
    return lam * np.sqrt(2 * nbar + 1) / np.pi


def lambda_tilde_step(seq: PulseSequence, lam: float, nbar: float,
                      omega_est: float, tau: float) -> float:
    """Per-step effective coupling sqrt(2*nbar+1)*|alpha_1(omega, tau)|/tau.

    seq supplies the pulse pattern; tau overrides its period so the
    schedule can reuse one template sequence.
    """
    unit = PulseSequence(tau=tau, pulse_fractions=seq.pulse_fractions)
    a1 = alpha_single_unit(unit, Coupling(lam), omega_est)
    return float(np.sqrt(2 * nbar + 1) * abs(a1) / tau)


def stage1_plan(omega_est: float, delta_omega_est: float,
                cfg: AdaptiveConfig) -> StepPlan:
    """Fringe-acquisition step: evolution time near 1/(kappa_i * dw).

    The shot count spends only as many measurements as the per-shot
    information gain warrants at the current uncertainty.
    """
    if not delta_omega_est > 0:
        raise ValueError(f"delta_omega_est must be positive, got {delta_omega_est}")
    Q = 2 * cfg.nbar + 1
    eta_i = 4 * np.pi * G_RMS1 / cfg.kappa_i**2
    N = max(nint(omega_est / (cfg.kappa_i * delta_omega_est) - 1), 1)
    tau = (2 * np.pi / omega_est) * (1 + 1 / N)
    ltk = np.sqrt(Q) * abs(alpha_cpmg(Coupling(cfg.lam), omega_est, tau)) / tau
    nu = max(nint(cfg.c_i**2 * delta_omega_est**2 / (ltk**2 * eta_i**2)), 1)
    return StepPlan(stage=STAGE_I, n_units=N, tau=tau, repetitions=nu,
                    lambda_tilde_k=float(ltk))


def stage2_plan(omega_est: float, delta_omega_est: float,
                cfg: AdaptiveConfig) -> StepPlan:
    """Scaling-regime step: evolution time grows as 1/sqrt(dw)."""
    if not delta_omega_est > 0:
        raise ValueError(f"delta_omega_est must be positive, got {delta_omega_est}")
    lt = lambda_tilde_cpmg(cfg.lam, cfg.nbar)
    N = max(nint(omega_est / (cfg.kappa * np.sqrt(2 * np.pi * lt * delta_omega_est)) - 1), 1)
    tau = (2 * np.pi / omega_est) * (1 + 1 / N)
    nu = max(nint(cfg.c**2 * cfg.kappa**4 / 4), 1)
    return StepPlan(stage=STAGE_II, n_units=N, tau=tau, repetitions=nu,
                    lambda_tilde_k=float(lt))


def stage_transition(delta_omega_k: float, lambda_tilde_k: float) -> bool:
    """True once the uncertainty has dropped strictly below the coupling rate.

    Strict: equality stays in stage (i). Also true at run start when the
    prior width already sits below the resonant coupling rate, in which
    case stage (i) is skipped entirely.
    """
    if not (delta_omega_k > 0 and lambda_tilde_k > 0):
        raise ValueError("delta_omega_k and lambda_tilde_k must be positive")
    return delta_omega_k < lambda_tilde_k


def _normalized(logw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized log-weights and the weights themselves, from one exp.

    The weights are exp(logw - max) / total rather than a second
    exp of the normalized log-weights.
    """
    logw = logw - logw.max()
    wts = np.exp(logw)
    total = wts.sum()
    return logw - np.log(total), wts / total


def run_adaptive(cfg: AdaptiveConfig, rng: np.random.Generator | None = None,
                 keep_posterior: bool = False) -> Trajectory:
    """Run the full two-stage adaptive loop. Deterministic given (cfg, rng seed)."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    lam = cfg.lam
    Q = 2 * cfg.nbar + 1
    lt_cpmg = lambda_tilde_cpmg(lam, cfg.nbar)
    eta_i = 4 * np.pi * G_RMS1 / cfg.kappa_i**2
    coupling = Coupling(lam)

    n_pts = cfg.n_points
    grid = np.linspace(cfg.omega0 - cfg.span_sigmas * cfg.delta_omega0,
                       cfg.omega0 + cfg.span_sigmas * cfg.delta_omega0, n_pts)
    logw, wts = _normalized(-((grid - cfg.omega0) ** 2) / (2 * cfg.delta_omega0**2))

    w_est, dw_est = cfg.omega0, cfg.delta_omega0
    stage = STAGE_II if stage_transition(cfg.delta_omega0, lt_cpmg) else STAGE_I
    probing = False
    t_total = 0.0
    t_at_stage2 = 0.0 if stage == STAGE_II else None
    records: list[StepRecord] = []
    aborted = False
    diagnostic = ""

    def measure(N, tau, nu):
        """Apply nu shots of the (N, tau) schedule: sample at the true
        frequency, fold the likelihood into the posterior, advance time."""
        nonlocal logw, wts, t_total
        L = np.exp(-2 * Q * cpmg_displacement_abs(coupling, N, grid, tau) ** 2)
        p_plus = (1 + L) / 2
        sa_t = np.sqrt(Q) * cpmg_displacement_abs(coupling, N, cfg.omega_true, tau)
        Lt = np.exp(-2 * sa_t**2)
        pt = (1 + Lt) / 2
        npl = rng.binomial(nu, pt)
        nmi = nu - npl
        pc = np.clip(p_plus, 1e-12, 1 - 1e-12)
        # a zero count adds 0*x exactly, so its term is skipped
        if npl:
            logw = logw + npl * np.log(pc)
        if nmi:
            logw = logw + nmi * np.log1p(-pc)
        logw, wts = _normalized(logw)
        t_total += nu * N * tau
        return float(sa_t), int(npl), int(nmi)

    def mle_and_width(T):
        """Point estimate (parabola-refined argmax) and windowed width:
        posterior RMS within half a fringe period, floored at one cell."""
        i = int(np.argmax(wts))
        w_hat = grid[i]
        dx = grid[1] - grid[0]
        if 0 < i < n_pts - 1:
            l0, l1, l2 = logw[i - 1], logw[i], logw[i + 1]
            den = l0 - 2 * l1 + l2
            if den < 0:
                off = 0.5 * (l0 - l2) / den
                if abs(off) <= 0.5:
                    w_hat = grid[i] + off * dx
        r = np.abs(grid - w_hat)
        sel = r <= np.pi / T
        wsel = wts[sel]
        dw_hat = max(np.sqrt(np.sum(wsel * (w_hat - grid[sel]) ** 2) / np.sum(wsel)),
                     dx / np.sqrt(12))
        return w_hat, dw_hat, r

    for k in range(cfg.max_steps):
        if stage == STAGE_I:
            plan = stage1_plan(w_est, dw_est, cfg)
        else:
            plan = stage2_plan(w_est, dw_est, cfg)
        N, tau, nu, ltk = plan.n_units, plan.tau, plan.repetitions, plan.lambda_tilde_k
        T = N * tau
        zt = N * (cfg.omega_true * tau / (2 * np.pi) - 1)
        t_before = t_total
        sa_t, n_plus, n_minus = measure(N, tau, nu)
        w_hat, dw_hat, r = mle_and_width(T)

        out = r > max(np.pi / T, 6 * dw_hat)
        if float(wts[out].sum()) > PROBE_ON:
            probing = True
        t_probe_start = t_total
        if probing:
            for _ in range(MAX_PROBE_BLOCKS):
                out = r > max(np.pi / T, 6 * dw_hat)
                if float(wts[out].sum()) < PROBE_OFF:
                    probing = False
                    break
                w_r = float(grid[out][np.argmax(wts[out])])
                delta = w_r - w_hat
                tau_p = 2 * np.pi / w_r
                m = max(nint(abs(delta) * T / (2 * np.pi)), 1)
                N_p = max(nint(m * w_r / abs(delta)), 2)
                measure(N_p, tau_p, NU_PROBE)
                w_hat, dw_hat, r = mle_and_width(T)
        probe_time = t_total - t_probe_start

        if not (np.isfinite(w_hat) and np.isfinite(dw_hat)):
            aborted = True
            diagnostic = f"non-finite estimate at step {k}: omega={w_hat}, dw={dw_hat}"
            break

        if stage == STAGE_I:
            gain = eta_i * ltk / dw_est
        else:
            gain = 2.0 / cfg.kappa**2
        records.append(StepRecord(
            step_index=k, plan=plan, n_plus=n_plus, n_minus=n_minus,
            omega_k=float(w_hat), delta_omega_k=float(dw_hat), zeta_k=float(zt),
            scaled_alpha_k=sa_t, cumulative_time=t_total, gain_G_k=float(gain),
            probe_time=probe_time,
        ))
        w_est, dw_est = w_hat, dw_hat
        if stage == STAGE_I and stage_transition(dw_hat, ltk):
            stage = STAGE_II
            t_at_stage2 = t_total

        dx = grid[1] - grid[0]
        if dw_hat < cfg.regrid_trigger_spacings * dx:
            keep = logw > (logw.max() - KEEP_LOG_NATS)
            hw = max(cfg.regrid_halfwidth_sigmas * dw_hat, 1.05 * float(r[keep].max()))
            if hw < (grid[-1] - grid[0]) / 2:
                newg = np.linspace(w_hat - hw, w_hat + hw, n_pts)
                logw, wts = _normalized(np.interp(newg, grid, logw, left=-745.0, right=-745.0))
                grid = newg

        if cfg.target_precision is not None and dw_est < cfg.target_precision:
            break
        if cfg.max_total_time is not None and t_total >= cfg.max_total_time:
            break

    if t_at_stage2 is None:
        stage1_time, stage2_time = t_total, 0.0
    else:
        stage1_time, stage2_time = t_at_stage2, t_total - t_at_stage2
    final_posterior = None
    if keep_posterior:
        final_posterior = Posterior(float(grid[0]), float(grid[-1]),
                                    np.maximum(logw, -745.0), n_pts)
    return Trajectory(
        records=tuple(records),
        final_estimate=Estimate(omega_hat=float(w_est), delta_omega=float(dw_est)),
        stage1_time=float(stage1_time),
        stage2_time=float(stage2_time),
        aborted=aborted,
        diagnostic=diagnostic,
        final_posterior=final_posterior,
    )
