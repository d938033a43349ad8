"""Fisher information for fringe-based frequency sensing.

The frequency sensitivity of the probe is set by how fast the fringe
contrast moves with omega. Near the major interference peak the
derivative of the normalized fringe pattern approaches a universal
envelope g(zeta) independent of the period count N; its root-mean-square
over a fringe-tuning window enters the adaptive schedule as a constant.
The quantum Fisher information of a real contrast and that of the
binary outcome are provided, together with the effective coupling rate
and a controlled-vs-free evolution comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ThermalState

# RMS of the universal fringe derivative over the first fringe window
# (half-width 1 around zeta = 1): the correctly rounded value of
# sqrt(1/2 * int_0^2 g_universal^2), checked against a 30-digit mpmath
# evaluation. The 32-point quadrature below reproduces it to within an
# ulp or two, depending on the platform's sin/cos.
G_RMS1 = 0.8354402775650376

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# Central-difference step of g_finite: balances truncation against
# round-off for an O(1)-curvature function.
_FD_STEP = 1e-6

__all__ = [
    "G_RMS1",
    "g_finite",
    "g_universal",
    "g_sq_mean",
    "qfi_real",
    "cfi_binary",
    "lambda_tilde_cpmg",
    "ComparisonReport",
    "compare_control",
]


def g_universal(zeta):
    """Universal fringe-derivative envelope |(pi z cos(pi z) - sin(pi z))/(pi z^2)|.

    Even in zeta, zero at zeta = 0, equal to 1 at zeta = +-1. The
    removable singularity at zero is evaluated by its series limit
    pi^2 |z|/3 for |z| < 1e-4.
    """
    z = np.asarray(zeta, dtype=float)
    az = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.abs((np.pi * z * np.cos(np.pi * z) - np.sin(np.pi * z)) / (np.pi * z**2))
    out = np.where(az < 1e-4, np.pi**2 * az / 3.0, val)
    return out if out.shape else float(out)


def g_finite(n_units: int, zeta):
    """Finite-N fringe derivative |d(K/N)/d zeta| near the major peak.

    The normalized interference pattern as a function of the fringe
    label is sinc(z)/sinc(z/N) (with sinc(x) = sin(pi x)/(pi x)), which
    is smooth through the nodes; the central difference of this signed
    ratio converges to g_universal as N grows, with step _FD_STEP.
    """
    if n_units < 2:
        raise ValueError(f"n_units must be >= 2, got {n_units}")
    z = np.asarray(zeta, dtype=float)
    h = _FD_STEP
    if np.any(np.abs(z) + h >= n_units):
        raise ValueError("zeta must satisfy |zeta| + h < n_units")

    def ratio(x):
        return np.sinc(x) / np.sinc(x / n_units)

    out = np.abs((ratio(z + h) - ratio(z - h)) / (2.0 * h))
    return out if out.shape else float(out)


def _gsq_integral(a: float, b: float) -> float:
    """Integral of g_universal^2 over [a, b].

    Composite 32-point Gauss-Legendre on subintervals split at every
    integer zeta. The squared envelope is smooth on each subinterval,
    so the rule is accurate far below the 1e-8 absolute target;
    agreement with adaptive quadrature was checked to 2e-14.
    """
    if b <= a:
        return 0.0
    first = int(np.floor(a)) + 1
    last = int(np.ceil(b))
    edges = np.unique(np.concatenate([[a, b], np.arange(first, last, dtype=float)]))
    edges = edges[(edges >= a) & (edges <= b)]
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    x = mid + half * _GL_NODES[None, :]
    vals = g_universal(x) ** 2
    return float(np.sum(half[:, 0] * np.sum(_GL_WEIGHTS[None, :] * vals, axis=1)))


def g_sq_mean(delta_zeta: float) -> float:
    """Mean of g_universal^2 over the window [1 - dz, 1 + dz], as rounded."""
    if not delta_zeta > 0:
        raise ValueError(f"delta_zeta must be positive, got {delta_zeta}")
    a, b = 1.0 - delta_zeta, 1.0 + delta_zeta
    # a window below the float spacing at 1 collapses onto its limit
    return _gsq_integral(a, b) / (b - a) if b > a else float(g_universal(a)) ** 2


def qfi_real(coherence: float, d_coherence: float) -> float:
    """Quantum Fisher information for a real contrast L: (dL)^2/(1 - L^2)."""
    L = float(coherence)
    dL = float(d_coherence)
    if abs(L) >= 1.0:
        if dL == 0.0:
            return 0.0
        raise ValueError(f"Fisher information singular at |L| = {abs(L)} with dL != 0")
    return dL * dL / (1.0 - L * L)


def cfi_binary(p_plus: float, dp_plus: float) -> float:
    """Classical Fisher information of a binary outcome: (dp)^2/(p(1-p)).

    Equal (identically, not asymptotically) to qfi_real at
    p = (1 + L)/2, dp = dL/2, so the sigma_x readout saturates the
    quantum bound for real contrast.
    """
    p = float(p_plus)
    dp = float(dp_plus)
    if p <= 0.0 or p >= 1.0:
        if dp == 0.0:
            return 0.0
        raise ValueError(f"binary Fisher information singular at p = {p} with dp != 0")
    return dp * dp / (p * (1.0 - p))


def lambda_tilde_cpmg(lam: float, nbar: float) -> float:
    """Effective coupling rate lam*sqrt(2*nbar+1)/pi at fringe resonance."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if nbar < 0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
    return lam * math.sqrt(2 * nbar + 1) / math.pi


@dataclass(frozen=True)
class ComparisonReport:
    """Order-of-magnitude comparison of controlled vs free-evolution sensing.

    Sensitivities are order estimates (the underlying scalings carry
    unknown O(1) prefactors), not tight bounds. sensitivity_free is pi
    above the free-evolution Fisher bound; see compare_control.
    """

    lambda_tilde: float
    time_cost_ratio: float
    sensitivity_controlled: float
    sensitivity_free: float
    sensitivity_gain: float


def compare_control(*, omega: float, lam: float, nbar: float = 0.0, t2: float,
                    k_factor: float = 1.0) -> ComparisonReport:
    """Compare pulsed-control sensing against free evolution at coherence time t2.

    time_cost_ratio = sqrt(k_factor) * omega/lam is the factor by which
    control shortens the time to a target precision; the sensitivity
    S = dw * sqrt(T) improves by sensitivity_gain = omega*t2/pi.

    sensitivity_free = omega/(lambda_tilde*sqrt(t2)) is pi above the
    Fisher bound omega/(pi*lambda_tilde*sqrt(t2)) of free-evolution
    shots of length t2, which follows from F <= (2*nbar+1)*(lam/omega)**2*t**2
    with sqrt(2*nbar+1)*lam = pi*lambda_tilde. So sensitivity_gain is pi
    larger than the same ratio taken against that bound.
    """
    values = {"omega": omega, "lam": lam, "nbar": nbar, "t2": t2, "k_factor": k_factor}
    problems = [f"{name} must be finite, got {v}" for name, v in values.items()
                if not math.isfinite(v)]
    if problems:
        raise ValueError("; ".join(problems))
    problems = [f"{name} must be positive, got {v}" for name, v in values.items()
                if name != "nbar" and not v > 0]
    try:
        ThermalState(nbar)  # the outcome law's own bounds on nbar
    except ValueError as exc:
        problems.append(str(exc))
    if problems:
        raise ValueError("; ".join(problems))
    lt = lambda_tilde_cpmg(lam, nbar)
    # finite inputs can still push a ratio out of float range: that raises
    # FloatingPointError rather than reporting inf or nan
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        s_ctrl = np.pi / (lt * t2**1.5)
        s_free = omega / (lt * np.sqrt(t2))
        time_cost = np.sqrt(k_factor) * omega / lam
        gain = s_free / s_ctrl
    return ComparisonReport(
        lambda_tilde=float(lt),
        time_cost_ratio=float(time_cost),
        sensitivity_controlled=float(s_ctrl),
        sensitivity_free=float(s_free),
        sensitivity_gain=float(gain),
    )
