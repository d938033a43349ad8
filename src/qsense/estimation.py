"""Grid-based Bayesian inference of the oscillator frequency.

The posterior over omega lives on a uniform grid as normalized weights.
An update takes each node's binary-outcome likelihood as the signed
contrast L = P+ - P- in [-1, 1], so P+ and P- are (1 + L)/2 and
(1 - L)/2, and multiplies the weights by (1 + L)^n_plus (1 - L)^n_minus;
the common 2^-(n_plus + n_minus) goes with the normalization. A batch
large enough that this product could sink the peak weight below
float64's normal range (more than 25 shots on 4096 nodes) is formed in
log domain instead. Weights reach about 745 nats below 1, down to the
smallest subnormal; a node below that is 0, and stays 0 under later
updates. Point estimation (argmax refined by a local parabola in log
weight), RMS uncertainty (over the whole grid or a window about the
estimate), the mass beyond a radius, and window changes (regrid, by
log-linear interpolation) are pure functions returning new posteriors
or numbers.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

# log weight that stands for a zero weight, and for the mass off the old grid
# in a regrid: exp(LOG_FLOOR) is the smallest subnormal
LOG_FLOOR = -745.0
# floor on each outcome's probability in an update, P+ and P- >= P_CLAMP:
# the signed contrast L = P+ - P- is clamped to |L| <= 1 - 2*P_CLAMP
P_CLAMP = 1e-12
# a batch of nu shots multiplies each weight by at least (2*P_CLAMP)**nu, and the
# peak weight of n nodes is at least 1/n; the product stays normal while
# nu*_LOG_MIN_FACTOR - log(n) >= _LOG_MIN_NORMAL
_LOG_MIN_FACTOR = math.log(2.0 * P_CLAMP)
_LOG_MIN_NORMAL = math.log(sys.float_info.min)

__all__ = [
    "LOG_FLOOR",
    "P_CLAMP",
    "Posterior",
    "Estimate",
    "gaussian_prior",
    "bayes_update",
    "mle",
    "uncertainty",
    "mass_beyond",
    "regrid",
]


# the fields hold arrays, which have no single truth value: == is identity
@dataclass(frozen=True, eq=False)
class Posterior:
    """Normalized posterior weights on a uniform frequency grid.

    The constructor scales a copy of the weights, which must be
    nonnegative with a positive finite sum, to unit sum.
    """

    grid: np.ndarray = field(repr=False)
    weights: np.ndarray

    def __post_init__(self):
        grid, w = self.grid, self.weights
        if len(grid) < 64:
            raise ValueError(f"n_points must be >= 64, got {len(grid)}")
        if len(w) != len(grid):
            raise ValueError("weights length does not match the grid")
        if not grid[0] < grid[-1]:
            raise ValueError(f"need omega_min < omega_max, got [{grid[0]}, {grid[-1]}]")
        object.__setattr__(self, "weights", _normalize(w))

    @property
    def omega_min(self) -> float:
        return float(self.grid[0])

    @property
    def omega_max(self) -> float:
        return float(self.grid[-1])

    @property
    def n_points(self) -> int:
        return len(self.grid)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])


@dataclass(frozen=True)
class Estimate:
    """Point estimate of omega with its RMS uncertainty."""

    omega_hat: float
    delta_omega: float


def _normalize(w: np.ndarray) -> np.ndarray:
    """A copy of w scaled to unit sum; w must have a positive finite sum."""
    total = float(np.add.reduce(w))
    # the scale 1/total must be finite too: a sum below about 5.6e-309 is refused
    if not (0.0 < total < math.inf and 1.0 / total < math.inf):
        raise ValueError(f"weights must have a positive finite sum, got {total}")
    return np.multiply(w, 1.0 / total)


def _window(grid: np.ndarray, center: float, radius: float) -> tuple[int, int]:
    """Index range [lo, hi) of the nodes with |omega - center| <= radius.

    The grid is sorted, so these nodes form one slice. A binary search
    finds its ends, which are then settled on the exact predicate, since
    the search can miss a node at round-off. The upper end never needs
    lowering: a node below fl(center + radius) is at or below
    center + radius, so its rounded distance from center cannot exceed
    radius. When both end nodes lie within radius, the window is the
    whole grid: fl(omega - center) is monotone in omega, so on each side
    of center the end node has the largest rounded distance.
    """
    if not (math.isfinite(center) and radius >= 0):
        raise ValueError(f"need a finite center and radius >= 0, got {center}, {radius}")
    n = len(grid)
    if abs(grid.item(0) - center) <= radius and abs(grid.item(n - 1) - center) <= radius:
        return 0, n
    lo, hi = int(grid.searchsorted(center - radius)), int(grid.searchsorted(center + radius))
    while lo > 0 and abs(grid.item(lo - 1) - center) <= radius:
        lo -= 1
    while lo < hi and not abs(grid.item(lo) - center) <= radius:
        lo += 1
    while hi < n and abs(grid.item(hi) - center) <= radius:
        hi += 1
    return lo, hi


def gaussian_prior(omega0: float, delta_omega0: float, span_sigmas: float,
                   n_points: int) -> Posterior:
    """Gaussian prior on a grid spanning omega0 +- span_sigmas*delta_omega0."""
    if not delta_omega0 > 0:
        raise ValueError(f"delta_omega0 must be positive, got {delta_omega0}")
    if not span_sigmas > 0:
        raise ValueError(f"span_sigmas must be positive, got {span_sigmas}")
    half = span_sigmas * delta_omega0
    grid = np.linspace(omega0 - half, omega0 + half, n_points)
    lw = -((grid - omega0) ** 2) / (2.0 * delta_omega0**2)
    lw -= lw.max()
    return Posterior(grid, np.exp(lw, out=lw))


def _times_power(w: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    """w * f**n as n multiplies; with n = 1 into f, the caller's own array."""
    if n == 1:
        return np.multiply(w, f, out=f)
    out = w * f
    for _ in range(n - 1):
        out *= f
    return out


def _update(w: np.ndarray, c: np.ndarray, n_plus: int, n_minus: int) -> np.ndarray:
    """bayes_update's product of the weights w and float contrasts c, unnormalized.

    Precondition: each c lies in [2*P_CLAMP - 1, 1] (or is NaN), as
    bayes_update leaves it after its range check and lower clamp, and as
    the thermal law's contrasts in [0, 1] are; only the upper clamp is
    made here.
    """
    # the clamp runs only when some L lies beyond it: L of the thermal law is
    # within 2*P_CLAMP of 1 only on a fringe's dark node; fmax skips NaN
    if np.fmax.reduce(c) > 1.0 - 2.0 * P_CLAMP:
        c = np.minimum(c, 1.0 - 2.0 * P_CLAMP)
    if (n_plus + n_minus) * _LOG_MIN_FACTOR - math.log(len(w)) < _LOG_MIN_NORMAL:
        with np.errstate(divide="ignore"):  # a zero weight is -inf, and stays 0
            lw = np.log(w)
        if n_plus:
            lw += n_plus * np.log1p(c)
        if n_minus:
            lw += n_minus * np.log1p(-c)
        lw -= lw.max()
        return np.exp(lw, out=lw)
    # each factor is a fresh array, which holds the product after one shot
    if n_plus:
        w = _times_power(w, c + 1.0, n_plus)
    if n_minus:
        w = _times_power(w, 1.0 - c, n_minus)
    return w


def bayes_update(post: Posterior, contrast: np.ndarray, n_plus: int,
                 n_minus: int) -> Posterior:
    """Multiply in a batch of binary outcomes with per-node signed contrast L.

    L = 2*P_plus - 1 lies in [-1, 1]. The weights are multiplied by
    (1 + L)**n_plus * (1 - L)**n_minus, which is the likelihood
    P+**n_plus * P-**n_minus up to the common 2**-(n_plus + n_minus)
    that the normalization removes; a factor whose count is zero is
    skipped. L is clamped to [2*P_CLAMP - 1, 1 - 2*P_CLAMP], that is P+
    and P- to at least P_CLAMP, so a single contrary outcome at a
    likelihood node cannot zero the posterior. A batch of more shots
    than keep (2*P_CLAMP)**nu / n_points in float64's normal range adds
    n_plus*log1p(L) + n_minus*log1p(-L) to the log weights instead, and
    takes the exp after subtracting the peak. Batches compose
    associatively.
    """
    c = np.asarray(contrast, dtype=float)
    if c.shape != (post.n_points,):
        raise ValueError(f"contrast has shape {c.shape}, grid has {post.n_points} nodes")
    if n_plus < 0 or n_minus < 0:
        raise ValueError("outcome counts must be nonnegative")
    # fmin/fmax skip NaN, as the elementwise comparisons c < -1, c > 1 do
    lowest = np.fmin.reduce(c)
    if lowest < -1.0 or np.fmax.reduce(c) > 1.0:
        raise ValueError("per-node contrasts must lie in [-1, 1]")
    if lowest < 2.0 * P_CLAMP - 1.0:
        c = np.maximum(c, 2.0 * P_CLAMP - 1.0)
    return Posterior(post.grid, _update(post.weights, c, n_plus, n_minus))


def _mle(grid: np.ndarray, w: np.ndarray, spacing: float) -> float:
    """mle on the grid's normalized weights w; spacing is the grid's."""
    i = int(w.argmax())
    ties = np.count_nonzero(w == w[i])
    if ties > 1:
        center = 0.5 * (grid.item(0) + grid.item(-1))
        if ties == len(w):
            warnings.warn("degenerate posterior: all weights equal, returning grid center")
            return center
        top = np.flatnonzero(w == w[i])
        i = int(top[np.argmin(np.abs(grid[top] - center))])
    omega_hat = grid.item(i)
    if 0 < i < len(w) - 1:
        w0, w1, w2 = w[i - 1:i + 2].tolist()
        l0 = math.log(w0) if w0 > 0.0 else LOG_FLOOR
        l1 = math.log(w1)
        l2 = math.log(w2) if w2 > 0.0 else LOG_FLOOR
        den = l0 - 2.0 * l1 + l2
        if den < 0:
            off = 0.5 * (l0 - l2) / den
            if abs(off) <= 0.5:
                omega_hat += off * spacing
    return omega_hat


def mle(post: Posterior) -> float:
    """Maximum of the posterior, refined by a three-point parabola in log weight.

    A neighbour whose weight is 0 counts as LOG_FLOOR. Ties are broken
    toward the node closest to the grid center, then the lower index. A
    perfectly flat posterior is degenerate; the grid center is returned
    with a warning.
    """
    return _mle(post.grid, post.weights, post.spacing)


def _rms(grid: np.ndarray, w: np.ndarray, omega_hat: float, spacing: float) -> float:
    """uncertainty over a window's nodes grid and weights w, at the grid's spacing."""
    den = np.add.reduce(w)
    if not den > 0.0:
        raise ValueError("degenerate posterior: zero total weight")
    sq = np.subtract(grid, omega_hat)
    np.square(sq, out=sq)
    sq *= w
    rms = math.sqrt(np.add.reduce(sq) / den)
    floor = spacing / math.sqrt(12.0)
    if rms < floor:
        warnings.warn("resolution-limited posterior: RMS below one grid cell")
        return floor
    return rms


def uncertainty(post: Posterior, omega_hat: float,
                half_window: float | None = None) -> float:
    """RMS deviation of the posterior about omega_hat.

    Only nodes within half_window of omega_hat count; by default the
    whole grid does. A posterior concentrated on a single node is
    resolution limited; the grid-cell RMS dx/sqrt(12) is returned with a
    warning in that case.
    """
    grid = post.grid
    lo, hi = (0, len(grid)) if half_window is None else _window(grid, omega_hat, half_window)
    return _rms(grid[lo:hi], post.weights[lo:hi], omega_hat, post.spacing)


def _far(grid: np.ndarray, w: np.ndarray, lo: int, hi: int) -> tuple[float, float]:
    """mass_beyond for the window [lo, hi) of the grid with weights w."""
    # a window that reaches an end of the grid leaves one slice outside it
    if lo == 0:
        outer = w[hi:]
    elif hi == len(w):
        outer = w[:lo]
    else:
        outer = np.concatenate((w[:lo], w[hi:]))
    if not len(outer):
        return 0.0, math.nan
    j = int(outer.argmax())
    if j >= lo:
        j += hi - lo
    return float(np.add.reduce(outer)), float(grid[j])


def mass_beyond(post: Posterior, center: float, radius: float) -> tuple[float, float]:
    """Posterior mass farther than radius from center, and its heaviest node.

    Returns (mass, omega of the heaviest node beyond radius, the lowest
    on a tie); the node is nan when no node lies beyond.
    """
    return _far(post.grid, post.weights, *_window(post.grid, center, radius))


def _readout(grid: np.ndarray, w: np.ndarray, spacing: float, half_window: float,
             far_widths: float) -> tuple[float, float, float, float]:
    """(mle, uncertainty within half_window of it, mass_beyond it at
    max(half_window, far_widths * that width)) on the grid's normalized
    weights w, searching the window once when the two radii agree. With
    no weight within half_window, the width and the far pair are nan."""
    omega_hat = _mle(grid, w, spacing)
    lo, hi = _window(grid, omega_hat, half_window)
    try:
        width = _rms(grid[lo:hi], w[lo:hi], omega_hat, spacing)
    except ValueError:
        return omega_hat, math.nan, math.nan, math.nan
    radius = max(half_window, far_widths * width)
    if radius != half_window:
        lo, hi = _window(grid, omega_hat, radius)
    return (omega_hat, width, *_far(grid, w, lo, hi))


def _regrid(grid: np.ndarray, w: np.ndarray, center: float, half_width: float,
            n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """regrid's new grid and unnormalized weights, from the old grid and weights."""
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    lo, hi = center - half_width, center + half_width
    if hi <= grid.item(0) or lo >= grid.item(-1):
        raise ValueError(f"new window [{lo}, {hi}] does not overlap grid "
                         f"[{grid.item(0)}, {grid.item(-1)}]")
    new = np.linspace(lo, hi, n_points)
    lw = np.interp(new, grid, np.log(w, out=np.full(len(w), LOG_FLOOR), where=w > 0.0),
                   left=LOG_FLOOR, right=LOG_FLOOR)
    lw -= lw.max()
    return new, np.exp(lw, out=lw)


def regrid(post: Posterior, center: float, half_width: float,
           n_points: int) -> Posterior:
    """Move the posterior to a new uniform window by log-linear interpolation.

    The log of the old weights is interpolated, with LOG_FLOOR standing
    for a zero weight and for the mass outside the old grid; the result
    is renormalized. The new window must overlap the old grid.
    """
    return Posterior(*_regrid(post.grid, post.weights, center, half_width, n_points))
