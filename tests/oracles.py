"""Reference computations the library's fast paths are checked against.

A train of pi pulses makes the coupling a piecewise-constant modulation
f(t) = s_j on [t_j, t_{j+1}], with s_j = +-1. The displacement
-i*(lam/2) * int f(t) e^{i omega t} dt is evaluated here twice, without
any of the library's closed forms: segment by segment in exact
arithmetic, and by adaptive quadrature.

The Bayes update is kept here in log domain, as the library carried it
before it kept weights: log weights never underflow, so they hold the
exact posterior to any depth below its peak.
"""

import numpy as np
from scipy.integrate import quad

from qsense.estimation import P_CLAMP

# the two-pulse unit: tau/4 - pi - tau/2 - pi - tau/4
CPMG_FRACTIONS = (0.25, 0.75)


def segment_displacement(lam, omega, t_bounds, signs):
    """Exact piecewise integral -(lam/(2*omega)) * sum_j s_j (e^{i w t_{j+1}} - e^{i w t_j}).

    Vectorized over omega; a scalar omega gives a complex.
    """
    omega = np.asarray(omega, dtype=float)
    acc = np.zeros(np.shape(omega), dtype=complex)
    for j, s in enumerate(signs):
        acc = acc + s * (np.exp(1j * omega * t_bounds[j + 1]) - np.exp(1j * omega * t_bounds[j]))
    out = -(lam / (2.0 * omega)) * acc
    return out if out.shape else complex(out)


def periods(tau, n_units, fractions=CPMG_FRACTIONS):
    """Segment bounds and signs of n_units periods of length tau, with a
    pi pulse at each fraction of tau in every period.

    The sign starts at +1 and flips at each pulse; an even pulse count
    brings it back to +1 at the end of every period.
    """
    unit = (0.0, *(f * tau for f in fractions), tau)
    t_bounds, signs = [0.0], []
    for n in range(n_units):
        for j in range(len(unit) - 1):
            t_bounds.append(n * tau + unit[j + 1])
            signs.append((-1) ** j)
    return t_bounds, signs


def quad_oracle(lam, omega, t_bounds, signs):
    """segment_displacement by adaptive quadrature, one segment at a time."""
    total = 0.0 + 0.0j
    for a, b, s in zip(t_bounds, t_bounds[1:], signs):
        re, _ = quad(lambda t: np.cos(omega * t), a, b, limit=200)
        im, _ = quad(lambda t: np.sin(omega * t), a, b, limit=200)
        total += s * (re + 1j * im)
    return -1j * (lam / 2.0) * total


def log_domain_update(log_weights, contrast, n_plus, n_minus):
    """Add n_plus*log1p(L) + n_minus*log1p(-L), with L clipped to
    |L| <= 1 - 2*P_CLAMP, and shift the log weights to unit mass."""
    bound = 1.0 - 2.0 * P_CLAMP
    lc = np.clip(np.asarray(contrast, dtype=float), -bound, bound)
    lw = np.asarray(log_weights, dtype=float)
    if n_plus:
        lw = n_plus * np.log1p(lc) + lw
    if n_minus:
        lw = n_minus * np.log1p(-lc) + lw
    lw = lw - lw.max()
    return lw - np.log(np.exp(lw).sum())


def log_domain_mle(grid, log_weights):
    """The largest log weight (nearest the grid center on a tie), refined by
    the parabola through it and its two neighbours."""
    lw = np.asarray(log_weights, dtype=float)
    top = np.flatnonzero(lw == lw.max())
    i = int(top[np.argmin(np.abs(grid[top] - 0.5 * (grid[0] + grid[-1])))])
    omega_hat = float(grid[i])
    if 0 < i < len(grid) - 1:
        l0, l1, l2 = lw[i - 1:i + 2]
        den = l0 - 2.0 * l1 + l2
        if den < 0 and abs(0.5 * (l0 - l2) / den) <= 0.5:
            omega_hat += 0.5 * (l0 - l2) / den * float(grid[1] - grid[0])
    return omega_hat
