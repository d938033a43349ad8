"""Qubit-oscillator dephasing model under periodic pulsed control.

A qubit is coupled to a harmonic oscillator of frequency omega through a
dephasing interaction of strength lam. A train of pi pulses flips the
sign of the coupling, described by a square-wave modulation f(t). Over
one control period of length tau the oscillator acquires a
qubit-conditional displacement alpha_1; N identical periods interfere
through the geometric factor K, so the total displacement is
alpha = alpha_1 * K. The sigma_x fringe contrast of the qubit is the
oscillator coherence factor L, which for a thermal state is
exp(-2*(2*nbar+1)*|alpha|^2), and the +1 outcome has probability
(1 + L)/2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThermalState",
    "Coupling",
    "alpha_cpmg",
    "interference_factor",
    "cpmg_displacement_abs",
    "zeta",
    "outcome_probability",
]


@dataclass(frozen=True)
class ThermalState:
    """Oscillator thermal state with mean occupation nbar."""

    nbar: float

    def __post_init__(self):
        if self.nbar < 0:
            raise ValueError(f"nbar must be nonnegative, got {self.nbar}")
        # the contrast's factor -2*(2*nbar+1) must stay finite; Python floats reach inf silently
        if not np.isfinite(4.0 * float(self.nbar) + 2.0):
            raise ValueError(f"nbar must keep 2*(2*nbar+1) finite, got {self.nbar}")


@dataclass(frozen=True)
class Coupling:
    """Dephasing coupling strength between qubit and oscillator."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def alpha_cpmg(coupling: Coupling, omega, tau: float) -> complex:
    """Closed-form single-period displacement for the two-pulse unit.

    alpha_1 = i*(8*lam/omega) * e^{i omega tau/2} * cos(omega tau/8) * sin^3(omega tau/8),
    the exact integral -i*(lam/2) * int_0^tau f(t) e^{i omega t} dt of the
    square wave f that pulses at tau/4 and 3*tau/4. Vectorized over omega.
    """
    omega = np.asarray(omega, dtype=float)
    # each test fails on NaN too
    if not ((omega > 0) & (omega < math.inf)).all():
        raise ValueError("omega must be finite and positive")
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    x = omega * tau / 8.0
    out = 1j * (8.0 * coupling.lam / omega) * np.exp(1j * omega * tau / 2.0) * np.cos(x) * np.sin(x) ** 3
    return out if out.shape else complex(out)


def interference_factor(n_units: int, omega, tau: float):
    """Coherent sum K = sum_{n=0}^{N-1} e^{i omega n tau} over control periods.

    Uses the geometric closed form; entries with |sin(omega*tau/2)| below
    1e-8 are evaluated by the direct sum, which is exact at every
    multiple of 2*pi/tau.
    """
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    omega = np.asarray(omega, dtype=float)
    # omega <= 0 is a valid input: a fringe scan about a small omega reaches it
    if not (np.isfinite(omega).all() and math.isfinite(tau)):
        raise ValueError("omega and tau must be finite")
    x = omega * tau / 2.0
    s = np.sin(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.exp(1j * (n_units - 1) * x) * np.sin(n_units * x) / s
    near = np.abs(s) < 1e-8
    if np.any(near):
        k = np.atleast_1d(k)
        xs = np.atleast_1d(x)[near]
        direct = np.zeros(xs.shape, dtype=complex)
        for n in range(n_units):
            direct += np.exp(1j * 2.0 * n * xs)
        k[near] = direct
        k = k.reshape(np.shape(x))
    return k if np.shape(x) else complex(k)


def cpmg_displacement_abs(coupling: Coupling, n_units: int, omega, tau: float):
    """|alpha_1 * K| for N two-pulse units, in real arithmetic.

    With x = omega*tau/8, |alpha_1| = (8*lam/omega)*|cos x sin^3 x| and
    |K| = |sin(4Nx)/sin(4x)|; the identity sin 4x = 4 sin x cos x cos 2x
    cancels the cos x sin x factor, and sin^2 x = (1 - cos 2x)/2 leaves,
    with theta = omega*tau/4 and phi = 2*N*theta,
    (lam/omega) * (1 - cos theta) * |sin phi / cos theta|. Where
    |cos theta| < 1e-12 (the major peaks omega*tau = 2*pi*(2m+1)) the
    ratio takes its limit 2N. This is the fringe amplitude the likelihood
    needs; it agrees with |alpha_cpmg * interference_factor| to round-off.
    """
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    omega = np.asarray(omega, dtype=float)
    # each test fails on NaN too
    if not ((omega > 0) & (omega < math.inf)).all():
        raise ValueError("omega must be finite and positive")
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    # a 0-d omega runs as a one-element array, since a numpy scalar
    # cannot be an out= target
    w = omega.reshape(omega.shape or 1)
    cos_theta = np.multiply(w, tau / 4.0)
    sin_phi = np.multiply(cos_theta, 2 * n_units)
    np.cos(cos_theta, out=cos_theta)
    np.sin(sin_phi, out=sin_phi)
    out = np.abs(_amplitude(coupling.lam / w, n_units, cos_theta, sin_phi), out=sin_phi)
    return out if omega.shape else float(out[0])


# _amplitude's limit test |cos theta| < 1e-12 holds only within about
# 1e-12 rad of a zero pi/2 + k*pi of cos theta; the grid kernel runs it only
# when its angles come within NEAR_PEAK_RAD of one.
NEAR_PEAK_RAD = 1e-9


def _amplitude(scale, n_units: int, cos_theta, sin_phi, near_peak: bool = True):
    """The amplitude formula of cpmg_displacement_abs, scale = lam/omega,
    with the sign of sin phi / cos theta kept: its absolute value is the
    amplitude, and its square is what the outcome law takes.

    Works in place in its two arguments and returns sin_phi, which
    holds the signed amplitude. near_peak False skips the limit test,
    for a caller that knows no theta lies near a zero of cos theta.
    """
    if near_peak and (near := np.abs(cos_theta) < 1e-12).any():
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(sin_phi, cos_theta, out=sin_phi)
        sin_phi[near] = 2.0 * n_units
    else:
        np.divide(sin_phi, cos_theta, out=sin_phi)
    np.subtract(1.0, cos_theta, out=cos_theta)
    cos_theta *= scale
    sin_phi *= cos_theta
    return sin_phi


def _near_cos_zero(lo: float, hi: float) -> bool:
    """False when every angle in [lo, hi] lies more than NEAR_PEAK_RAD
    from each zero pi/2 + k*pi of cos; True otherwise, and for any range
    reaching 2**16 rad, where the rounding of the zeros' float64
    positions (about 1.5e-16 of the angle) nears that margin.
    """
    if not hi < 2.0**16:
        return True
    k = math.ceil((lo - NEAR_PEAK_RAD) / math.pi - 0.5)
    return math.pi * (k + 0.5) <= hi + NEAR_PEAK_RAD


class _TrigWork:
    """_grid_displacement's work arrays for tables of B values: the index
    row 0..B-1, the four row multipliers, the 4B + 2 angles and their
    cos/sin table, the two 2 x 2 angle-addition matrices and their two
    B x 2 products. Every call fills each of them before it reads it, and
    returns none of them.
    """

    def __init__(self, b: int):
        self.b = b
        self.index = np.arange(b, dtype=float)
        self.steps = np.empty((4, 1))
        self.angles = np.empty(4 * b + 2)
        self.table_angles = self.angles[:4 * b].reshape(4, b)
        # rows a*B*dtheta, a*B*dphi, c*dtheta, c*dphi (a, c = 0..B-1), then
        # the last node's theta and phi; column 0 takes their cos, column 1 their sin
        trig = np.empty((4 * b + 2, 2))
        self.trig = trig
        self.cos_col, self.sin_col = trig[:, 0], trig[:, 1]
        # [cos u_a, sin u_a] (B x 2) and [cos v_c; sin v_c] (2 x B), theta's then phi's
        self.rows = trig[:2 * b].reshape(2, b, 2)
        self.cols = trig[2 * b:4 * b].reshape(2, b, 2).transpose(0, 2, 1)
        self.matrix = np.empty((2, 2, 2))
        self.product = np.empty((2, b, 2))


# One _TrigWork per thread, for the B of that thread's last call, so that
# threads that run the kernel at once never share a work array.
_trig_work = threading.local()


def _grid_displacement(scale, n_units: int, tau: float, omega_min: float, step: float,
                       omega_last: float) -> np.ndarray:
    """cpmg_displacement_abs up to sign, unchecked, on the n nodes
    omega_min + j*step (j = 0..n-1) and one more node omega_last, which
    comes last.

    scale holds lam/omega over those n + 1 nodes. theta and phi are
    affine in j, so their cos and sin come by angle addition from
    tables of B = ceil(sqrt(n)) values. With j = a*B + c, an angle
    s + j*delta is s + u_a + v_c, u_a = a*B*delta and v_c = c*delta;
    rows holds [cos u_a, sin u_a] and cols [cos v_c; sin v_c], so the
    B x B table is one matrix product, rows @ M @ cols, where the 2 x 2
    M holds s's cos and sin. Only s is large, and it is rounded once,
    where it was computed. One stacked product builds cos theta and
    sin phi together. The 4B table angles and the last node's theta and
    phi take one cos and one sin call on 4B + 2 values, in place of one
    each on n nodes; the last node is thereby evaluated as
    cpmg_displacement_abs evaluates it. The limit test next to the
    major peak runs only when the grid's theta range or the last node's
    theta comes within NEAR_PEAK_RAD of a zero of cos theta. The small
    work arrays are kept per thread (_TrigWork) and refilled on every
    call; the result is a fresh buffer the caller may overwrite. Needs
    n >= 1, N >= 1, tau > 0, every node > 0 and step > 0.
    """
    n = len(scale) - 1
    b = math.isqrt(n - 1) + 1
    work = getattr(_trig_work, "work", None)
    if work is None or work.b != b:
        work = _trig_work.work = _TrigWork(b)
    theta0, dtheta = omega_min * (tau / 4.0), step * (tau / 4.0)
    phi0, dphi = theta0 * (2 * n_units), dtheta * (2 * n_units)
    theta_last = omega_last * (tau / 4.0)
    angles, steps = work.angles, work.steps
    steps[0, 0], steps[1, 0], steps[2, 0], steps[3, 0] = b * dtheta, b * dphi, dtheta, dphi
    np.multiply(steps, work.index, out=work.table_angles)
    angles[4 * b], angles[4 * b + 1] = theta_last, theta_last * (2 * n_units)
    np.cos(angles, out=work.cos_col)
    np.sin(angles, out=work.sin_col)
    ct, st = math.cos(theta0), math.sin(theta0)
    cp, sp = math.cos(phi0), math.sin(phi0)
    # cos(s + u + v) = cos(s + u) cos v - sin(s + u) sin v, and
    # sin(s + u + v) = sin(s + u) cos v + cos(s + u) sin v
    m = work.matrix
    m[0, 0, 0], m[0, 0, 1], m[0, 1, 0], m[0, 1, 1] = ct, -st, -st, -ct
    m[1, 0, 0], m[1, 0, 1], m[1, 1, 0], m[1, 1, 1] = sp, cp, cp, -sp
    # rows 0 and 1 are cos theta and sin phi: B*B >= n grid nodes, then
    # one slot that the last node takes
    cos_theta, sin_phi = table = np.empty((2, b * b + 1))
    np.matmul(work.rows, m, out=work.product)
    np.matmul(work.product, work.cols, out=table[:, :b * b].reshape(2, b, b))
    trig = work.trig
    cos_theta[n], sin_phi[n] = trig[4 * b, 0], trig[4 * b + 1, 1]
    near_peak = (_near_cos_zero(theta0, theta0 + (n - 1) * dtheta)
                 or _near_cos_zero(theta_last, theta_last))
    return _amplitude(scale, n_units, cos_theta[:n + 1], sin_phi[:n + 1], near_peak)


def zeta(n_units: int, omega, tau: float):
    """Fringe label zeta = N*(omega*tau/(2*pi) - 1).

    Nonzero integers sit at the nodes of K around the major peak at
    omega*tau = 2*pi.
    """
    # a scalar omega runs as a Python float, so the formula runs on floats
    if type(omega) is not float:
        omega = float(omega) if np.ndim(omega) == 0 else np.asarray(omega, dtype=float)
    return n_units * (omega * tau / (2.0 * np.pi) - 1.0)


def _contrast(alpha, state: ThermalState, out=None):
    """The thermal contrast L = exp(-2*(2*nbar+1)*alpha^2) of a real
    amplitude alpha, whose sign drops out; L lies in [0, 1] and is the
    signed contrast P_plus - P_minus of the outcome law.

    With out (which may be alpha) every step runs in place there;
    without, a scalar alpha gives a numpy scalar.
    """
    factor = -2.0 * (2.0 * state.nbar + 1.0)
    if type(alpha) is float:
        # already float64: the same ops, without numpy's array set-up
        return np.exp(alpha * alpha * factor)
    # squared in float64, so an integer cannot wrap and a complex fails the cast
    contrast = np.square(alpha, out=out, dtype=float)
    contrast *= factor
    return np.exp(contrast, out=out)


def outcome_probability(alpha, state: ThermalState):
    """Probability P_plus of the +1 sigma_x outcome at displacement amplitude alpha.

    P(+1) = (1 + L)/2 with the thermal contrast L = exp(-2*(2*nbar+1)*alpha^2)
    of a real amplitude alpha = |alpha_1 K|, elementwise for an array;
    a complex alpha raises TypeError. P(-1) is its complement. L lies in
    [0, 1], so P_plus lies in [1/2, 1].
    """
    contrast = _contrast(alpha, state)
    if isinstance(contrast, np.ndarray):
        return (1.0 + contrast) / 2.0
    # a scalar: the same IEEE operations, on Python floats
    return (1.0 + float(contrast)) / 2.0
