"""Grid-based Bayesian inference of the oscillator frequency.

The posterior over omega lives on a uniform grid and is carried in log
domain so that many-shot likelihood products cannot underflow. An
update takes each node's binary-outcome likelihood as the signed
contrast L = P+ - P- in [-1, 1], from which log P+ and log P- follow
by log1p up to a common ln 2. Updates,
point estimation (argmax refined by a local parabola), RMS uncertainty
(over the whole grid or a window about the estimate), the mass beyond a
radius, and window changes (regrid) are pure functions returning new
posteriors or numbers. Every update keeps the weights from the single
exp of its normalization next to the grid, so nothing re-exponentiates
or rebuilds the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

LOG_FLOOR = -745.0
# floor on each outcome's probability in an update, P+ and P- >= P_CLAMP:
# the signed contrast L = P+ - P- is clamped to |L| <= 1 - 2*P_CLAMP
P_CLAMP = 1e-12

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


@dataclass(frozen=True)
class Posterior:
    """Normalized log-domain posterior on a uniform frequency grid.

    The constructor shifts log_weights to unit mass and keeps the
    weights exp(log_weights) from the one exp of that normalization.
    It also remembers the last window (center, radius, lo, hi) found on
    its grid, so the width and the far mass about one estimate search
    the grid once; a new posterior starts with none.
    """

    grid: np.ndarray = field(repr=False)
    log_weights: np.ndarray
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    _last_window: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = self.grid
        if len(grid) < 64:
            raise ValueError(f"n_points must be >= 64, got {len(grid)}")
        if len(self.log_weights) != len(grid):
            raise ValueError("log_weights length does not match the grid")
        if not grid[0] < grid[-1]:
            raise ValueError(f"need omega_min < omega_max, got [{grid[0]}, {grid[-1]}]")
        lw = np.subtract(self.log_weights, self.log_weights.max())
        w = np.exp(lw)
        total = w.sum()
        lw -= np.log(total)
        w /= total
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_last_window", None)

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


def _window(post: Posterior, center: float, radius: float) -> tuple[int, int]:
    """Index range [lo, hi) of the nodes with |omega - center| <= radius.

    The grid is sorted, so these nodes form one slice. A binary search
    finds its ends, which are then settled on the exact predicate, since
    the search can miss a node at round-off. The upper end never needs
    lowering: a node below fl(center + radius) is at or below
    center + radius, so its rounded distance from center cannot exceed
    radius. A repeat of the posterior's last (center, radius) returns
    its last result.
    """
    last = post._last_window
    if last is not None and last[0] == center and last[1] == radius:
        return last[2], last[3]
    if not (math.isfinite(center) and radius >= 0):
        raise ValueError(f"need a finite center and radius >= 0, got {center}, {radius}")
    grid, n = post.grid, post.n_points
    lo, hi = int(grid.searchsorted(center - radius)), int(grid.searchsorted(center + radius))
    while lo > 0 and abs(grid.item(lo - 1) - center) <= radius:
        lo -= 1
    while lo < hi and not abs(grid.item(lo) - center) <= radius:
        lo += 1
    while hi < n and abs(grid.item(hi) - center) <= radius:
        hi += 1
    object.__setattr__(post, "_last_window", (center, radius, lo, hi))
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
    return Posterior(grid, -((grid - omega0) ** 2) / (2.0 * delta_omega0**2))


def bayes_update(post: Posterior, contrast: np.ndarray, n_plus: int,
                 n_minus: int) -> Posterior:
    """Multiply in a batch of binary outcomes with per-node signed contrast L.

    L = 2*P_plus - 1 lies in [-1, 1]. log-weights gain
    n_plus*log1p(L) + n_minus*log1p(-L), which is the log-likelihood
    n_plus*log(P+) + n_minus*log(P-) up to the common -(n_plus +
    n_minus)*ln 2 that the renormalization removes; a term whose count
    is zero is skipped. L is clamped to [2*P_CLAMP - 1, 1 - 2*P_CLAMP],
    that is P+ and P- to at least P_CLAMP, before the logs so a single
    contrary outcome at a likelihood node cannot zero the posterior.
    Batches compose associatively.
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
    bound = 1.0 - 2.0 * P_CLAMP
    # with every L at or above the lower clamp only the upper one can act
    # (minimum passes NaN, as clip does); L of the thermal law lies in [0, 1]
    if lowest >= -bound:
        cc = np.minimum(c, bound)
    else:
        cc = np.clip(c, -bound, bound)
    lw = post.log_weights
    # each term is built in a fresh array, then the old log-weights added to it
    if n_plus:
        term = np.log1p(cc)
        if n_plus != 1:
            term *= n_plus
        term += lw
        lw = term
    if n_minus:
        np.negative(cc, out=cc)  # cc is this call's own array
        np.log1p(cc, out=cc)
        if n_minus != 1:
            cc *= n_minus
        cc += lw
        lw = cc
    return Posterior(post.grid, lw)


def mle(post: Posterior) -> float:
    """Maximum of the posterior, refined by a three-point parabola.

    Ties are broken toward the node closest to the grid center, then
    the lower index. A perfectly flat posterior is degenerate; the grid
    center is returned with a warning.
    """
    w = post.weights
    i = int(w.argmax())
    # argmax takes the first maximum, so a tie can only lie after it
    ties = 1 if i == post.n_points - 1 or w[i + 1:].max() < w[i] else np.count_nonzero(w == w[i])
    center = 0.5 * (post.omega_min + post.omega_max)
    if ties == post.n_points:
        warnings.warn("degenerate posterior: all weights equal, returning grid center")
        return center
    grid = post.grid
    if ties > 1:
        top = np.flatnonzero(w == w[i])
        i = int(top[np.argmin(np.abs(grid[top] - center))])
    omega_hat = grid.item(i)
    if 0 < i < post.n_points - 1:
        l0, l1, l2 = post.log_weights[i - 1:i + 2].tolist()
        den = l0 - 2.0 * l1 + l2
        if den < 0:
            off = 0.5 * (l0 - l2) / den
            if abs(off) <= 0.5:
                omega_hat += off * post.spacing
    return omega_hat


def uncertainty(post: Posterior, omega_hat: float,
                half_window: float | None = None) -> float:
    """RMS deviation of the posterior about omega_hat.

    Only nodes within half_window of omega_hat count; by default the
    whole grid does. A posterior concentrated on a single node is
    resolution limited; the grid-cell RMS dx/sqrt(12) is returned with a
    warning in that case.
    """
    lo, hi = (0, post.n_points) if half_window is None else _window(post, omega_hat, half_window)
    w = post.weights[lo:hi]
    den = w.sum()
    if not den > 0.0:
        raise ValueError("degenerate posterior: zero total weight")
    sq = np.subtract(post.grid[lo:hi], omega_hat)
    np.square(sq, out=sq)
    sq *= w
    rms = math.sqrt(sq.sum() / den)
    floor = post.spacing / math.sqrt(12.0)
    if rms < floor:
        warnings.warn("resolution-limited posterior: RMS below one grid cell")
        return floor
    return rms


def mass_beyond(post: Posterior, center: float, radius: float) -> tuple[float, float]:
    """Posterior mass farther than radius from center, and its heaviest node.

    Returns (mass, omega of the heaviest node beyond radius, the lowest
    on a tie); the node is nan when no node lies beyond.
    """
    lo, hi = _window(post, center, radius)
    w = post.weights
    # a window that reaches an end of the grid leaves one slice outside it
    if lo == 0:
        outer = w[hi:]
    elif hi == post.n_points:
        outer = w[:lo]
    else:
        outer = np.concatenate((w[:lo], w[hi:]))
    if not len(outer):
        return 0.0, math.nan
    j = int(outer.argmax())
    if j >= lo:
        j += hi - lo
    return float(outer.sum()), float(post.grid[j])


def regrid(post: Posterior, center: float, half_width: float,
           n_points: int) -> Posterior:
    """Move the posterior to a new uniform window by log-linear interpolation.

    Mass outside the old grid is set to the log floor; the result is
    renormalized. The new window must overlap the old grid.
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    lo, hi = center - half_width, center + half_width
    if hi <= post.omega_min or lo >= post.omega_max:
        raise ValueError(
            f"new window [{lo}, {hi}] does not overlap grid [{post.omega_min}, {post.omega_max}]"
        )
    grid = np.linspace(lo, hi, n_points)
    return Posterior(grid, np.interp(grid, post.grid, post.log_weights,
                                     left=LOG_FLOOR, right=LOG_FLOOR))
