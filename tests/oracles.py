"""Reference displacements the library's fast paths are checked against.

A train of pi pulses makes the coupling a piecewise-constant modulation
f(t) = s_j on [t_j, t_{j+1}], with s_j = +-1. The displacement
-i*(lam/2) * int f(t) e^{i omega t} dt is evaluated here twice, without
any of the library's closed forms: segment by segment in exact
arithmetic, and by adaptive quadrature.
"""

import numpy as np
from scipy.integrate import quad

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
