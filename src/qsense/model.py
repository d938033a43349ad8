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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PulseSequence",
    "ControlSchedule",
    "ThermalState",
    "Coupling",
    "alpha_single_unit",
    "alpha_cpmg",
    "interference_factor",
    "cpmg_displacement_abs",
    "total_displacement",
    "total_displacement_direct",
    "zeta",
    "outcome_probability",
]


@dataclass(frozen=True)
class PulseSequence:
    """Pi-pulse pattern within one control period.

    pulse_fractions holds the pulse times in units of tau. They must be
    strictly increasing and lie inside (0, 1). The count must be even
    so the modulation returns to +1 at the end of the period and
    consecutive periods are identical.
    """

    tau: float
    pulse_fractions: tuple[float, ...]

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        fr = self.pulse_fractions
        if len(fr) % 2 != 0:
            raise ValueError(f"pulse count must be even, got {len(fr)}")
        for f in fr:
            if not 0.0 < f < 1.0:
                raise ValueError(f"pulse fraction {f} outside (0, 1)")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("pulse fractions must be strictly increasing")

    @property
    def pulse_times(self) -> tuple[float, ...]:
        return tuple(f * self.tau for f in self.pulse_fractions)

    @classmethod
    def cpmg(cls, tau: float) -> "PulseSequence":
        """Standard two-pulse unit: tau/4 - pi - tau/2 - pi - tau/4."""
        return cls(tau=tau, pulse_fractions=(0.25, 0.75))


@dataclass(frozen=True)
class ControlSchedule:
    """N identical control periods applied back to back."""

    unit: PulseSequence
    n_units: int

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {self.n_units}")

    @property
    def total_time(self) -> float:
        return self.n_units * self.unit.tau


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


def _segment_phase_sum(lam, omega, t_bounds, signs):
    """Piecewise-exact integral -(lam/(2*omega)) * sum_j s_j (e^{i w t_{j+1}} - e^{i w t_j})."""
    omega = np.asarray(omega, dtype=float)
    acc = np.zeros(np.shape(omega), dtype=complex)
    for j, s in enumerate(signs):
        acc = acc + s * (np.exp(1j * omega * t_bounds[j + 1]) - np.exp(1j * omega * t_bounds[j]))
    out = -(lam / (2.0 * omega)) * acc
    return out if out.shape else complex(out)


def alpha_single_unit(seq: PulseSequence, coupling: Coupling, omega) -> complex:
    """Oscillator displacement accumulated over one control period.

    Exact piecewise evaluation of -i*(lam/2) * int_0^tau f(t) e^{i omega t} dt,
    no numerical quadrature. Vectorized over omega.
    """
    if np.any(np.asarray(omega) <= 0):
        raise ValueError("omega must be positive")
    t_bounds = (0.0,) + seq.pulse_times + (seq.tau,)
    signs = [(-1) ** j for j in range(len(t_bounds) - 1)]
    return _segment_phase_sum(coupling.lam, omega, t_bounds, signs)


def alpha_cpmg(coupling: Coupling, omega, tau: float) -> complex:
    """Closed-form single-period displacement for the two-pulse unit.

    alpha_1 = i*(8*lam/omega) * e^{i omega tau/2} * cos(omega tau/8) * sin^3(omega tau/8).
    Agrees with alpha_single_unit on the same sequence to machine precision.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    if not tau > 0:
        raise ValueError("tau must be positive")
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
    cancels the cos x sin x factor, leaving
    (2*lam/omega) * sin^2 x * |sin(4Nx)/cos 2x|. Where |cos 2x| < 1e-12
    (the major peaks omega*tau = 2*pi*(2m+1)) the ratio takes its limit
    2N. This is the fringe amplitude the likelihood needs; it agrees
    with |alpha_cpmg * interference_factor| to round-off.
    """
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    omega = np.asarray(omega, dtype=float)
    if (omega <= 0).any():
        raise ValueError("omega must be positive")
    if not tau > 0:
        raise ValueError("tau must be positive")
    # a 0-d omega runs as a one-element array, since a numpy scalar
    # cannot be an out= target
    w = omega.reshape(omega.shape or 1)
    out = _displacement_abs(2.0 * coupling.lam / w, n_units, w, tau)
    return out if omega.shape else float(out[0])


def _displacement_abs(scale, n_units: int, w: np.ndarray, tau: float) -> np.ndarray:
    """cpmg_displacement_abs without its checks: a 1-d w > 0, tau > 0,
    n_units >= 1, and scale = 2*lam/w, which a caller with a fixed w
    computes once.

    The steps work in place in three temporaries, and the result is one
    of them.
    """
    x = np.multiply(w, tau / 8.0)
    c = np.multiply(x, 2.0)
    np.cos(c, out=c)
    s = np.sin(x)
    ratio = np.multiply(x, 4 * n_units, out=x)
    np.sin(ratio, out=ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(ratio, c, out=ratio)
    np.abs(ratio, out=ratio)
    np.abs(c, out=c)
    near = c < 1e-12
    if near.any():
        ratio[near] = 2.0 * n_units
    np.multiply(s, s, out=s)
    s *= scale
    s *= ratio
    return s


def total_displacement(sched: ControlSchedule, coupling: Coupling, omega) -> complex:
    """Total displacement alpha = alpha_1 * K over the full schedule."""
    a1 = alpha_single_unit(sched.unit, coupling, omega)
    k = interference_factor(sched.n_units, omega, sched.unit.tau)
    return a1 * k


def total_displacement_direct(sched: ControlSchedule, coupling: Coupling, omega) -> complex:
    """Total displacement summed segment by segment over all N periods.

    Independent of the alpha_1 * K factorization; used as an internal
    cross-check of total_displacement.
    """
    tau = sched.unit.tau
    unit_bounds = (0.0,) + sched.unit.pulse_times + (tau,)
    unit_signs = [(-1) ** j for j in range(len(unit_bounds) - 1)]
    t_bounds = [0.0]
    signs = []
    for n in range(sched.n_units):
        for j, s in enumerate(unit_signs):
            t_bounds.append(n * tau + unit_bounds[j + 1])
            signs.append(s)
    return _segment_phase_sum(coupling.lam, omega, t_bounds, signs)


def zeta(n_units: int, omega, tau: float):
    """Fringe label zeta = N*(omega*tau/(2*pi) - 1).

    Nonzero integers sit at the nodes of K around the major peak at
    omega*tau = 2*pi.
    """
    # a scalar omega stays a Python float, so the formula runs on floats
    omega = float(omega) if np.ndim(omega) == 0 else np.asarray(omega, dtype=float)
    return n_units * (omega * tau / (2.0 * np.pi) - 1.0)


def outcome_probability(alpha, state: ThermalState):
    """Probability P_plus of the +1 sigma_x outcome at displacement amplitude alpha.

    P(+1) = (1 + L)/2 with the thermal contrast L = exp(-2*(2*nbar+1)*alpha^2)
    of a real amplitude alpha = |alpha_1 K|, elementwise for an array;
    a complex alpha raises TypeError. P(-1) is its complement. L lies in
    [0, 1], so P_plus lies in [1/2, 1].
    """
    alpha = np.asarray(alpha)
    # one float temporary, reused by each step; 0-d input runs as one element
    out = np.empty(alpha.shape or 1)
    # squared in float64, so an integer cannot wrap and a complex fails the cast
    np.square(alpha.reshape(out.shape), out=out, dtype=float)
    out *= -2.0 * (2.0 * state.nbar + 1.0)
    np.exp(out, out=out)
    out += 1.0
    out /= 2.0
    return out if alpha.shape else float(out[0])
