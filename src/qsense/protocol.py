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
import sys
from dataclasses import dataclass, fields

import numpy as np

from .estimation import (Estimate, Posterior, _normalize, _readout, _regrid, _update,
                         gaussian_prior)
from .information import G_RMS1, lambda_tilde_cpmg
from .model import (Coupling, ThermalState, _contrast, _grid_displacement, cpmg_displacement_abs,
                    outcome_probability, zeta)

STAGE_I = 1
STAGE_II = 2
# Plans and probes take N >= 2: at N = 1, omega*tau = 4*pi is a zero of |alpha_1|.
MIN_PERIODS = 2

# Disambiguation-probe thresholds: far mass above PROBE_ON arms the
# probe latch; the latch stays armed across steps until far mass falls
# below PROBE_OFF. A regrid keeps every node whose weight is above
# exp(-KEEP_LOG_NATS) of the peak: 25.3 is -ln(PROBE_OFF) = 25.328 rounded to one
# decimal, so a node is kept down to exp(-25.3) = 1.03e-11 of the peak weight,
# a shade above PROBE_OFF. Changing it moves output bits (ROADMAP item 5).
PROBE_ON = 1e-6
PROBE_OFF = 1e-11
KEEP_LOG_NATS = 25.3
# Regrid once the width is below REGRID_TRIGGER_SPACINGS grid spacings, onto a
# window at least REGRID_HALFWIDTH_SIGMAS widths each side; tuned for 4096 nodes.
REGRID_TRIGGER_SPACINGS = 20.0
REGRID_HALFWIDTH_SIGMAS = 10.0
NU_PROBE = 3
MAX_PROBE_BLOCKS = 40
# A bound on the period count N of any plan or probe. N is at most about
# omega/(2 dw), and the width dw stays above a grid spacing over sqrt(12),
# which a grid of distinct float64 nodes keeps above omega * 2**-54; a
# probe's N is about the rival's omega times the step's T over 2 pi.
PERIODS_BOUND = 2.0**55
# the largest shot count rng.binomial takes
MAX_SHOTS = 2**63 - 1

# Schedule constants: stage (i) aims at evolution time 1/(KAPPA_I*dw) with
# shot-budget scale C_I; stage (ii) at 1/(KAPPA*sqrt(2 pi lambda_tilde dw))
# with C**2 * KAPPA**4 / 4 shots per step.
C_I = 0.1
KAPPA_I = 2.0
C = 0.1
KAPPA = 2.0

__all__ = [
    "STAGE_I",
    "STAGE_II",
    "AdaptiveConfig",
    "StepPlan",
    "StepRecord",
    "Trajectory",
    "nint",
    "stage1_plan",
    "stage2_plan",
    "stage_transition",
    "run_adaptive",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Physical parameters and run policy.

    Besides each field's own range, lam is bounded so that the loop's
    contrast exponent 2(2 nbar + 1) alpha^2 stays finite: every
    amplitude the loop evaluates is |alpha| <= 4 N lam / omega, since
    |sin phi / cos theta| <= 2N and 1 - cos theta <= 2, with N below
    PERIODS_BOUND and omega at least the prior grid's lowest node or
    omega_true. So 2(2 nbar + 1) (4 PERIODS_BOUND lam / omega)^2 must
    be finite in float64: lam up to about 6e137 at nbar 10 on the
    reference prior (omega >= 46.5). A regrid window about an estimate
    near the prior's lower end can reach below that node; the run
    aborts on one that reaches omega <= 0, but the bound does not cover
    one whose lowest node lies between 0 and the prior's.
    """

    omega_true: float
    omega0: float
    delta_omega0: float
    lam: float
    nbar: float
    max_steps: int = 200
    seed: int = 12345
    span_sigmas: float = 8.0
    n_points: int = 4096

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        problems = [f"{name} must be finite, got {v}" for name, v in values.items()
                    if isinstance(v, float) and not math.isfinite(v)]
        if problems:
            raise ValueError("; ".join(problems))
        for name in ("omega_true", "omega0", "delta_omega0", "lam", "span_sigmas"):
            if not getattr(self, name) > 0:
                problems.append(f"{name} must be positive, got {getattr(self, name)}")
        try:
            ThermalState(self.nbar)  # the outcome law's own bounds on nbar
        except ValueError as exc:
            problems.append(str(exc))
        if not self.delta_omega0 < self.omega0:
            problems.append("delta_omega0 must be below omega0")
        half = self.span_sigmas * self.delta_omega0
        if not self.omega0 - half > 0:
            problems.append("prior grid must stay above omega = 0: need "
                            f"omega0 - span_sigmas*delta_omega0 > 0, got {self.omega0 - half}")
        # the prior's exponent -(omega - omega0)**2 / (2*delta_omega0**2), as gaussian_prior
        # rounds it; |omega - omega0| is largest at an end node
        far = max(self.omega0 - (self.omega0 - half), (self.omega0 + half) - self.omega0)
        if not (math.isfinite(2.0 * (self.delta_omega0 * self.delta_omega0))
                and math.isfinite(far * far)):
            limit = math.sqrt(sys.float_info.max) / max(self.span_sigmas, math.sqrt(2.0))
            problems.append("delta_omega0 must keep the prior's exponent finite: need "
                            "2*delta_omega0**2 and every prior node's (omega - omega0)**2 "
                            f"finite, delta_omega0 below about {limit:.3g} at span_sigmas "
                            f"{self.span_sigmas}, got {self.delta_omega0}")
        # the prior grid's own check, made where the values enter
        if half > 0 and not self.omega0 - half < self.omega0 + half:
            problems.append("span_sigmas leaves the prior grid no width in float64: need "
                            "omega0 - span_sigmas*delta_omega0 < omega0 + span_sigmas*delta_omega0, "
                            f"got [{self.omega0 - half}, {self.omega0 + half}]")
        if self.max_steps < 1:
            problems.append(f"max_steps must be >= 1, got {self.max_steps}")
        if self.seed < 0:
            problems.append(f"seed must be nonnegative, got {self.seed}")
        if self.n_points < 64:
            problems.append(f"n_points must be >= 64, got {self.n_points}")
        if not problems:
            # Python floats overflow to inf without an error
            low = min(self.omega_true, self.omega0 - half)
            alpha_max = 4.0 * PERIODS_BOUND * self.lam / low
            factor = 2.0 * (2.0 * self.nbar + 1.0)
            if not math.isfinite(alpha_max * alpha_max * factor):
                limit = math.sqrt(sys.float_info.max / factor) * low / (4.0 * PERIODS_BOUND)
                problems.append(f"lam must keep the contrast exponent 2*(2*nbar+1)*alpha**2 "
                                f"finite for |alpha| <= 4*N*lam/omega: need lam below about "
                                f"{limit:.3g} at nbar {self.nbar}, got {self.lam}")
        # the regrid abort's predicate, on the prior's own grid
        if not problems and not _distinct_nodes(np.linspace(self.omega0 - half, self.omega0 + half,
                                                            self.n_points)):
            problems.append(f"prior grid beyond float64 resolution: the window {self.omega0} +- "
                            f"{half} holds fewer than {self.n_points} distinct nodes")
        if problems:
            raise ValueError("; ".join(problems))


def _distinct_nodes(grid: np.ndarray) -> bool:
    """True when the grid's nodes are strictly increasing, so the grid
    kernel's omega_min + j*step names each of them."""
    return bool((np.diff(grid) > 0).all())


@dataclass(frozen=True)
class StepPlan:
    """Measurement settings chosen for one adaptive step."""

    stage: int
    n_units: int
    tau: float
    repetitions: int
    lambda_tilde_k: float


@dataclass(frozen=True)
class StepRecord:
    """One step's plan, outcomes, estimate, and diagnostics.

    zeta_k and scaled_alpha_k are evaluated at the true frequency, as
    simulation-side diagnostics; the controller never sees them.
    probe_time is the extra evolution time spent in disambiguation
    blocks during this step (zero when no probe fired).
    """

    plan: StepPlan
    n_plus: int
    n_minus: int
    omega_k: float
    delta_omega_k: float
    zeta_k: float
    scaled_alpha_k: float
    cumulative_time: float
    probe_time: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Complete record of one adaptive run, with its final posterior.

    records holds cfg.max_steps steps, or fewer when the run aborted.
    """

    records: tuple[StepRecord, ...]
    final_estimate: Estimate
    aborted: bool
    diagnostic: str
    final_posterior: Posterior


def nint(a: float) -> int:
    """Nearest integer, halves rounded away from zero."""
    return int(math.floor(a + 0.5)) if a >= 0 else int(math.ceil(a - 0.5))


def stage1_plan(omega_est: float, delta_omega_est: float,
                cfg: AdaptiveConfig) -> StepPlan:
    """Fringe-acquisition step: evolution time near 1/(KAPPA_I * dw).

    The shot count spends only as many measurements as the per-shot
    information gain warrants at the current uncertainty.
    """
    if not delta_omega_est > 0:
        raise ValueError(f"delta_omega_est must be positive, got {delta_omega_est}")
    N = max(nint(omega_est / (KAPPA_I * delta_omega_est) - 1), MIN_PERIODS)
    tau = (2 * np.pi / omega_est) * (1 + 1 / N)
    a1 = cpmg_displacement_abs(Coupling(cfg.lam), 1, omega_est, tau)
    ltk = math.sqrt(2 * cfg.nbar + 1) * a1 / tau
    eta_i = 4 * np.pi * G_RMS1 / KAPPA_I**2  # gain per unit lambda_tilde/dw
    nu = max(nint(C_I**2 * delta_omega_est**2 / (ltk**2 * eta_i**2)), 1)
    return StepPlan(stage=STAGE_I, n_units=N, tau=tau, repetitions=nu,
                    lambda_tilde_k=float(ltk))


def stage2_plan(omega_est: float, delta_omega_est: float,
                cfg: AdaptiveConfig) -> StepPlan:
    """Scaling-regime step: evolution time grows as 1/sqrt(dw)."""
    if not delta_omega_est > 0:
        raise ValueError(f"delta_omega_est must be positive, got {delta_omega_est}")
    lt = lambda_tilde_cpmg(cfg.lam, cfg.nbar)
    N = max(nint(omega_est / (KAPPA * math.sqrt(2 * np.pi * lt * delta_omega_est)) - 1),
            MIN_PERIODS)
    tau = (2 * np.pi / omega_est) * (1 + 1 / N)
    nu = max(nint(C**2 * KAPPA**4 / 4), 1)
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


def run_adaptive(cfg: AdaptiveConfig, rng: np.random.Generator | None = None) -> Trajectory:
    """Run the full two-stage adaptive loop. Deterministic given (cfg, rng seed).

    Each step is plan -> simulate -> Bayes update -> estimate and
    windowed width -> probe -> regrid; the posterior arithmetic is all
    in `estimation`, whose array cores the loop calls on its grid and
    weights. The run aborts, with a diagnostic, on a plan of more shots
    than MAX_SHOTS, on a non-finite estimate (a width window pi/T that
    holds no posterior weight leaves the width undefined), on a regrid
    window that reaches omega <= 0, or once a regrid window cannot hold
    n_points distinct float64 nodes.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    lt_cpmg = lambda_tilde_cpmg(cfg.lam, cfg.nbar)
    sqrt_occupation = math.sqrt(2 * cfg.nbar + 1)
    state = ThermalState(cfg.nbar)

    prior = gaussian_prior(cfg.omega0, cfg.delta_omega0, cfg.span_sigmas, cfg.n_points)
    # the posterior as its grid, normalized weights w, and raw, the unnormalized
    # weights of the last update or regrid, from which the final Posterior is
    # built once, so that the constructor scales them as it scales w
    grid, w, raw = prior.grid, prior.weights, None
    w_est, dw_est = cfg.omega0, cfg.delta_omega0
    stage = STAGE_II if stage_transition(cfg.delta_omega0, lt_cpmg) else STAGE_I
    probing = False
    t_total = 0.0
    records: list[StepRecord] = []
    diagnostic = ""

    def grid_scalars(grid):
        """The grid's spacing, and the grid as the kernel takes it:
        lam/omega over the grid with the true frequency appended (so one
        kernel pass gives the shot law and the update), the first node
        and linspace's step.

        Every grid here has its lowest node above 0 (the prior by
        AdaptiveConfig, a regrid by the loop's abort), as has omega_true;
        every plan and probe has N >= 2 and tau > 0.
        """
        scale = cfg.lam / np.append(grid, cfg.omega_true)
        return (grid.item(1) - grid.item(0), scale, grid.item(0),
                (grid.item(-1) - grid.item(0)) / (len(grid) - 1))

    spacing, scale, w_min, step = grid_scalars(grid)

    def measure(N, tau, nu):
        """Apply nu shots of the (N, tau) schedule: sample at the true
        frequency, fold the likelihood into the posterior, advance time.

        The kernel's buffer becomes the grid's contrast L in place, so
        the true node's amplitude is read from it first."""
        nonlocal w, raw, t_total
        a = _grid_displacement(scale, N, tau, w_min, step, cfg.omega_true)
        a_true = abs(a.item(-1))
        npl = rng.binomial(nu, outcome_probability(a_true, state))
        raw = _update(w, _contrast(a, state, out=a)[:-1], npl, nu - npl)
        w = _normalize(raw)
        t_total += nu * N * tau
        return a_true, int(npl), int(nu - npl)

    for k in range(cfg.max_steps):
        plan = (stage1_plan if stage == STAGE_I else stage2_plan)(w_est, dw_est, cfg)
        N, tau, nu, ltk = plan.n_units, plan.tau, plan.repetitions, plan.lambda_tilde_k
        if nu > MAX_SHOTS:
            diagnostic = (f"shot count beyond int64 at step {k}: the stage {stage} plan asks "
                          f"for nu={nu} shots of N={N}, tau={tau}")
            break
        T = N * tau
        a_t, n_plus, n_minus = measure(N, tau, nu)
        t_probe_start = t_total
        for block in range(MAX_PROBE_BLOCKS + 1):
            # the width is the posterior RMS within half a fringe period, and
            # the far mass lies beyond max(pi/T, 6 widths)
            w_hat, dw_hat, far_mass, w_r = _readout(grid, w, spacing, np.pi / T, 6)
            if math.isnan(dw_hat):  # no posterior weight within pi/T of the estimate
                break
            if far_mass > PROBE_ON:
                probing = True
            # the latch stays armed when the block cap cuts a probe short
            if not probing or block == MAX_PROBE_BLOCKS:
                break
            if far_mass < PROBE_OFF:
                probing = False
                break
            # park the incumbent on a node, the rival w_r on the peak
            delta = w_r - w_hat
            m = max(nint(abs(delta) * T / (2 * np.pi)), 1)
            measure(max(nint(m * w_r / abs(delta)), MIN_PERIODS), 2 * np.pi / w_r, NU_PROBE)
        probe_time = t_total - t_probe_start

        if not (math.isfinite(w_hat) and math.isfinite(dw_hat)):
            diagnostic = (f"non-finite estimate at step {k}: omega={w_hat}, dw={dw_hat}, "
                          f"width window pi/T={np.pi / T}, grid spacing {spacing}")
            break

        records.append(StepRecord(
            plan=plan, n_plus=n_plus, n_minus=n_minus,
            omega_k=w_hat, delta_omega_k=dw_hat,
            zeta_k=zeta(N, cfg.omega_true, tau),
            scaled_alpha_k=sqrt_occupation * a_t,
            cumulative_time=t_total, probe_time=probe_time,
        ))
        w_est, dw_est = w_hat, dw_hat
        if stage == STAGE_I and stage_transition(dw_hat, ltk):
            stage = STAGE_II

        if dw_hat < REGRID_TRIGGER_SPACINGS * spacing:
            # the new window keeps every node within KEEP_LOG_NATS of the peak
            kept = grid[w > w.max() * math.exp(-KEEP_LOG_NATS)]
            hw = max(REGRID_HALFWIDTH_SIGMAS * dw_hat, 1.05 * float(np.abs(kept - w_hat).max()))
            if hw < (grid.item(-1) - grid.item(0)) / 2:
                new, new_raw = _regrid(grid, w, w_hat, hw, cfg.n_points)
                if not new[0] > 0:
                    diagnostic = (f"grid reaches omega <= 0 at step {k}: the window "
                                  f"{w_hat} +- {hw} starts at {new[0]}")
                    break
                if not _distinct_nodes(new):
                    diagnostic = (f"grid beyond float64 resolution at step {k}: the window "
                                  f"{w_hat} +- {hw} holds fewer than {cfg.n_points} distinct nodes")
                    break
                grid, raw = new, new_raw
                w = _normalize(raw)
                spacing, scale, w_min, step = grid_scalars(grid)

    return Trajectory(
        records=tuple(records),
        final_estimate=Estimate(omega_hat=float(w_est), delta_omega=float(dw_est)),
        aborted=bool(diagnostic),
        diagnostic=diagnostic,
        final_posterior=prior if raw is None else Posterior(grid, raw),
    )
