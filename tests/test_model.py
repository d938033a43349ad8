"""Displacement, interference, and coherence checks against independent oracles.

The closed-form displacement is compared against the segment sum and
the quadrature of the modulated phase integral in `oracles`, and the
thermal fringe contrast against a Fock-space Laguerre sum. Structural
properties (node placement, |K| bound, symmetry, validation) are
exercised with hypothesis.
"""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from qsense.model import (
    Coupling,
    ThermalState,
    alpha_cpmg,
    cpmg_displacement_abs,
    interference_factor,
    outcome_probability,
    zeta,
)
from qsense import model
from qsense.model import _contrast, _grid_displacement, _near_cos_zero
from qsense.protocol import PERIODS_BOUND, AdaptiveConfig, run_adaptive
from qsense.simkit import reference_config
from oracles import periods, quad_oracle, segment_displacement

lam_st = st.floats(min_value=1e-3, max_value=10.0)
tau_st = st.floats(min_value=0.1, max_value=20.0)
omega_st = st.floats(min_value=0.1, max_value=100.0)


def laguerre_oracle(alpha, nbar):
    """Thermal expectation of the displacement operator at argument 2*alpha.

    <D(2a)> = e^{-2|a|^2} * sum_n p_n L_n(4|a|^2), with the geometric
    occupation p_n = nbar^n / (nbar+1)^(n+1).
    """
    x = 4.0 * abs(alpha) ** 2
    n_max = int(np.ceil(30 * (nbar + 1)))
    n = np.arange(n_max + 1)
    if nbar == 0:
        log_p = np.where(n == 0, 0.0, -np.inf)
    else:
        log_p = n * np.log(nbar) - (n + 1) * np.log(nbar + 1)
    return float(np.exp(-x / 2.0) * np.sum(np.exp(log_p) * eval_laguerre(n, x)))


class TestPeriods:
    def test_cpmg_pulse_times(self):
        assert periods(2.0, 1) == ([0.0, 0.5, 1.5, 2.0], [1, -1, 1])

    def test_last_bound_is_total_time(self):
        t_bounds, signs = periods(0.5, 8)
        assert t_bounds[-1] == pytest.approx(4.0)
        assert len(signs) == 24 and len(t_bounds) == 25


class TestDisplacement:
    def test_cpmg_closed_form_at_resonance(self):
        # omega*tau = 2*pi collapses the closed form to -2i*lam/omega
        a1 = alpha_cpmg(Coupling(0.1), 50.0, 2 * np.pi / 50.0)
        assert a1 == pytest.approx(-0.004j, abs=1e-15)

    @given(lam_st, tau_st, omega_st)
    @settings(max_examples=150, deadline=None)
    def test_cpmg_matches_piecewise(self, lam, tau, omega):
        a = segment_displacement(lam, omega, *periods(tau, 1))
        b = alpha_cpmg(Coupling(lam), omega, tau)
        # round-off floor: the piecewise sum cancels terms of size
        # lam/(2*omega), and trig argument reduction loses eps*omega*tau
        floor = 1e-13 * (lam / omega) * max(1.0, omega * tau)
        assert abs(a - b) <= 1e-12 * (abs(a) + abs(b)) + floor

    @pytest.mark.parametrize("n_units,tau,omega", [
        (1, 1.7, 3.1), (3, 0.9, 3.7), (5, 2.3, 1.1), (4, 0.4, 9.3),
    ])
    def test_total_displacement_matches_quadrature(self, n_units, tau, omega):
        got = (alpha_cpmg(Coupling(0.37), omega, tau)
               * interference_factor(n_units, omega, tau))
        want = quad_oracle(0.37, omega, *periods(tau, n_units))
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_quadrature_with_asymmetric_unit(self):
        # the segment sum's own check, on a unit no closed form covers
        bounds = periods(1.3, 3, fractions=(0.2, 0.45, 0.6, 0.9))
        got = segment_displacement(0.8, 2.9, *bounds)
        want = quad_oracle(0.8, 2.9, *bounds)
        assert abs(got - want) <= 1e-9 * abs(want)

    @given(st.integers(min_value=1, max_value=40), lam_st, tau_st, omega_st)
    @settings(max_examples=120, deadline=None)
    def test_factorized_equals_direct(self, n_units, lam, tau, omega):
        a = alpha_cpmg(Coupling(lam), omega, tau) * interference_factor(n_units, omega, tau)
        b = segment_displacement(lam, omega, *periods(tau, n_units))
        # the geometric-ratio form divides by sin(omega tau / 2), which
        # amplifies fixed trig noise near resonances; the floor below was
        # calibrated over 8e4 random draws (worst case 23x inside it)
        s = abs(np.sin(omega * tau / 2.0))
        floor = (1.5e-14 * (lam / omega) * max(1.0, omega * n_units * tau)
                 * (1.0 + 1.0 / max(s, 1e-8)))
        assert abs(a - b) <= 1e-12 * (abs(a) + abs(b)) + floor

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            alpha_cpmg(Coupling(0.1), -1.0, 1.0)
        with pytest.raises(ValueError):
            alpha_cpmg(Coupling(0.1), 0.0, 1.0)
        # a non-finite omega or tau raises, not a NaN result or a leaked RuntimeWarning
        for omega, tau in [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1.0, np.inf)]:
            with pytest.raises(ValueError, match="must be finite and positive"):
                alpha_cpmg(Coupling(0.1), omega, tau)


class TestInterferenceFactor:
    def test_resonance_gives_n(self):
        for n_units in (1, 7, 50):
            tau = 2 * np.pi / 50.0
            k = interference_factor(n_units, 50.0, tau)
            assert abs(k - n_units) <= 1e-10 * n_units

    def test_higher_harmonic_gives_n(self):
        # omega*tau = 4*pi also puts every period in phase
        k = interference_factor(50, 100.0, 2 * np.pi / 50.0)
        assert abs(k - 50.0) <= 1e-8

    def test_nodes_vanish(self):
        n_units, tau = 50, 2 * np.pi / 50.0
        for zt in (-2, -1, 1, 2):
            omega = (2 * np.pi / tau) * (1 + zt / n_units)
            k = interference_factor(n_units, omega, tau)
            assert abs(k) / n_units <= 1e-10

    @given(st.integers(min_value=1, max_value=100), omega_st, tau_st)
    @settings(max_examples=150, deadline=None)
    def test_magnitude_bounded_by_n(self, n_units, omega, tau):
        k = interference_factor(n_units, omega, tau)
        assert abs(k) <= n_units * (1 + 1e-12)

    def test_vectorized_over_omega(self):
        omegas = np.linspace(49.0, 51.0, 7)
        k = interference_factor(10, omegas, 2 * np.pi / 50.0)
        assert k.shape == omegas.shape
        single = interference_factor(10, float(omegas[3]), 2 * np.pi / 50.0)
        assert k[3] == pytest.approx(single)

    def test_invalid_n_units(self):
        with pytest.raises(ValueError):
            interference_factor(0, 50.0, 0.1)

    @pytest.mark.parametrize("omega,tau", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                                           (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
                                           (np.array([50.0, np.nan]), 0.1)])
    def test_non_finite_inputs(self, omega, tau):
        # one ValueError, not a nan result or a leaked RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega and tau must be finite"):
                interference_factor(3, omega, tau)

    def test_non_positive_omega_accepted(self):
        k = interference_factor(3, np.array([-2.0, 0.0, 2.0]), 0.5)
        assert k[1] == 3.0 and k[0] == pytest.approx(np.conj(k[2]))

    def test_zeta_labels(self):
        n_units, tau = 50, 2 * np.pi / 50.0
        assert zeta(n_units, 50.0, tau) == pytest.approx(0.0, abs=1e-12)
        omega = (2 * np.pi / tau) * (1 + 3.0 / n_units)
        assert zeta(n_units, omega, tau) == pytest.approx(3.0, abs=1e-10)


def magnitude_grid(n_units, tau):
    """Frequencies around and between the first two multiples of 2*pi/tau.

    Holds the exact major peak omega*tau = 2*pi, where the closed form
    takes its 2N limit, omega*tau = 4*pi (x = pi/2, alpha_1 = 0), the
    nodes zeta = +-1..+-5 of K, and a dense sweep across both.
    """
    w0 = 2 * np.pi / tau
    nodes = w0 * (1 + np.arange(-5, 6) / n_units)
    sweep = np.linspace(0.2 * w0, 2.6 * w0, 3001)
    grid = np.concatenate([[w0, 2 * w0], nodes, sweep])
    return grid[grid > 0]


class TestDisplacementMagnitude:
    """cpmg_displacement_abs against the segment sum and the factorized closed form."""

    @pytest.mark.parametrize("n_units", [1, 2, 3, 7, 16, 64])
    @pytest.mark.parametrize("tau", [2 * np.pi / 50.0 * 1.02, 0.37, 1.3])
    def test_matches_segment_sum(self, n_units, tau):
        coupling = Coupling(0.1)
        omega = magnitude_grid(n_units, tau)
        got = cpmg_displacement_abs(coupling, n_units, omega, tau)
        want = np.abs(segment_displacement(coupling.lam, omega, *periods(tau, n_units)))
        # the segment sum carries the round-off floor calibrated in
        # test_factorized_equals_direct; elsewhere the two agree to 1e-13
        s = np.abs(np.sin(omega * tau / 2.0))
        floor = (1.5e-14 * (coupling.lam / omega) * np.maximum(1.0, omega * n_units * tau)
                 * (1.0 + 1.0 / np.maximum(s, 1e-8)))
        assert np.all(np.abs(got - want) <= 1e-13 * want + floor)

    @pytest.mark.parametrize("n_units", [1, 2, 5, 50, 997, 5000])
    def test_matches_factorized_form(self, n_units):
        coupling = Coupling(0.37)
        tau = 2 * np.pi / 50.0 * (1 + 1 / n_units)
        omega = magnitude_grid(n_units, tau)
        got = cpmg_displacement_abs(coupling, n_units, omega, tau)
        want = np.abs(alpha_cpmg(coupling, omega, tau)
                      * interference_factor(n_units, omega, tau))
        peak = want.max()
        big = want > 1e-8 * peak
        assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * want[big])
        # near the nodes both sides are round-off of a zero
        assert np.all(np.abs(got[~big] - want[~big]) <= 1e-14 * peak)

    def test_resonance_limits(self):
        coupling, tau = Coupling(0.1), 2 * np.pi / 50.0
        for n_units in (1, 7, 5000):
            # major peak: |alpha_1| = 2*lam/omega and |K| = N
            peak = cpmg_displacement_abs(coupling, n_units, 50.0, tau)
            assert peak == pytest.approx(2 * 0.1 / 50.0 * n_units, rel=1e-14)
            # omega*tau = 4*pi: cos x = 0, so alpha_1 vanishes
            assert cpmg_displacement_abs(coupling, n_units, 100.0, tau) <= 1e-12 * peak

    def test_scalar_and_array_inputs(self):
        # each link of the likelihood chain: scalar in gives a float, an
        # array keeps its shape, and the caller's array is left as it was
        coupling, tau, state = Coupling(0.1), 2 * np.pi / 50.0 * 1.1, ThermalState(3.0)
        omegas = np.linspace(45.0, 55.0, 9)
        alpha = cpmg_displacement_abs(coupling, 10, omegas, tau)
        links = [(lambda w: cpmg_displacement_abs(coupling, 10, w, tau), omegas),
                 (lambda a: outcome_probability(a, state), alpha)]
        for fn, x in links:
            before = x.copy()
            arr = fn(x)
            assert np.array_equal(x, before)
            assert isinstance(arr, np.ndarray) and arr.shape == x.shape
            single = fn(float(x[3]))
            assert isinstance(single, float)
            assert single == arr[3]
            grid2d = fn(x.reshape(3, 3))
            assert np.array_equal(grid2d, arr.reshape(3, 3))
            assert np.array_equal(x, before)

    def test_appended_node_matches_scalar_chain(self):
        # the run loop evaluates the true frequency as one more grid node;
        # that element must agree with the scalar chain to 2 ulp
        rng = np.random.default_rng(7)
        coupling = Coupling(0.1)
        for _ in range(200):
            n_units = int(rng.integers(2, 3000))
            w = float(rng.uniform(45.0, 55.0))
            tau = 2 * np.pi / w * (1 + 1 / n_units) * float(rng.uniform(0.99, 1.01))
            state = ThermalState(float(rng.choice([0.0, 10.0, 1000.0])))
            nodes = np.append(np.linspace(w - 0.5, w + 0.5, 4096), w)
            a = cpmg_displacement_abs(coupling, n_units, nodes, tau)
            p = outcome_probability(a, state)
            a_w = cpmg_displacement_abs(coupling, n_units, w, tau)
            p_w = outcome_probability(a_w, state)
            assert abs(a[-1] - a_w) <= 2 * np.spacing(a_w)
            assert abs(p[-1] - p_w) <= 2 * np.spacing(p_w)

    def test_invalid_inputs(self):
        coupling = Coupling(0.1)
        with pytest.raises(ValueError):
            cpmg_displacement_abs(coupling, 3, 0.0, 1.0)
        with pytest.raises(ValueError):
            cpmg_displacement_abs(coupling, 3, np.array([1.0, -2.0]), 1.0)
        with pytest.raises(ValueError):
            cpmg_displacement_abs(coupling, 3, 1.0, 0.0)
        with pytest.raises(ValueError):
            cpmg_displacement_abs(coupling, 3, 1.0, -1.0)
        with pytest.raises(ValueError):
            cpmg_displacement_abs(coupling, 0, 1.0, 1.0)
        for omega, tau in [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                           (np.array([1.0, np.nan]), 1.0), (1.0, np.inf)]:
            with pytest.raises(ValueError, match="must be finite and positive"):
                cpmg_displacement_abs(coupling, 3, omega, tau)


def signed_grid_kernel(coupling, n_units, grid, omega_last, tau):
    """The loop's kernel on a linspace grid and one more node, last."""
    scale = coupling.lam / np.append(grid, omega_last)
    step = (grid[-1] - grid[0]) / (len(grid) - 1)
    return _grid_displacement(scale, n_units, tau, grid[0], step, omega_last)


def grid_kernel(coupling, n_units, grid, omega_last, tau):
    """|the loop's kernel|; the kernel keeps the sign of sin phi / cos theta,
    which the outcome law squares."""
    return np.abs(signed_grid_kernel(coupling, n_units, grid, omega_last, tau))


def amplitude_oracle(lam, n_units, nodes, tau):
    """(lam/omega)(1 - cos theta)|sin phi/cos theta| at each node, to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(40):
        q = mpmath.mpf(tau) / 4
        for w in nodes.tolist():
            theta = mpmath.mpf(w) * q
            c = mpmath.cos(theta)
            out.append(float(mpmath.mpf(lam) / w * (1 - c)
                             * abs(mpmath.sin(2 * n_units * theta) / c)))
    return np.array(out)


def assert_within_pointwise_tolerance(got, nodes, n_units, tau):
    """got, a kernel at lam = 0.1 on nodes, agrees with cpmg_displacement_abs."""
    want = cpmg_displacement_abs(Coupling(0.1), n_units, nodes, tau)
    assert got.shape == want.shape
    # conditioning: each kernel rounds theta and phi by a few ulp, and
    # the grid kernel's node omega_min + j*step is within an ulp of the
    # grid's; dc and ds bound the errors in cos theta and sin phi
    eps = np.finfo(float).eps
    theta = nodes * (tau / 4)
    phi = theta * (2 * n_units)
    c, s = np.cos(theta), np.sin(phi)
    dc, ds = 4 * eps * (np.abs(theta) + 1), 4 * eps * (np.abs(phi) + 1)
    # low is the nearest the perturbed cos theta comes to 0
    low = np.abs(c) - dc
    ok = low > 1e-12
    low = np.where(ok, low, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_err = ds / low + np.abs(s) * dc / (np.abs(c) * low)
        bound = (0.1 / nodes) * ((1 - c) * ratio_err + dc * np.abs(s / c)) + 4 * eps * want
    assert np.all(np.abs(got - want)[ok] <= bound[ok])
    # next to the major peak the ratio is 0/0 in float64, and
    # |sin phi / cos theta| <= 2N bounds it; the kernels take that limit
    limit = (0.1 / nodes) * (1 - c) * 2 * n_units
    assert np.all(got[~ok] <= limit[~ok] * (1 + 1e-3))


class TestGridKernel:
    """The loop's kernel, built by angle addition on a uniform grid, against
    cpmg_displacement_abs on the same nodes."""

    @given(n=st.integers(min_value=64, max_value=5000) | st.sampled_from([4096, 4097]),
           log_n_units=st.floats(min_value=np.log10(2.0), max_value=6.0),
           center=st.floats(min_value=10.0, max_value=100.0),
           log_half=st.floats(min_value=-13.0, max_value=-2.0),
           detune=st.floats(min_value=-1.0, max_value=1.0),
           last=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_pointwise_kernel(self, n, log_n_units, center, log_half, detune, last):
        # half-widths down to 1e-13*center, about 500 ulp(center)
        n_units = int(round(10**log_n_units))
        half = center * 10**log_half
        tau = 2 * np.pi / center * (1 + 1 / n_units) * (1 + detune / n_units)
        grid = np.linspace(center - half, center + half, n)
        nodes = np.append(grid, center + last * half)
        coupling = Coupling(0.1)
        got = grid_kernel(coupling, n_units, grid, nodes[-1], tau)
        assert_within_pointwise_tolerance(got, nodes, n_units, tau)

    @pytest.mark.parametrize("n_units,half", [(80000, 3e-7), (1000, 1e-3)])
    def test_worst_error_within_twice_pointwise(self, n_units, half):
        # against 40-digit values at the grid's own float64 nodes
        tau = 2 * np.pi / 50.0 * (1 + 1 / n_units)
        grid = np.linspace(50.0 - half, 50.0 + half, 4096)
        nodes = np.append(grid, 50.0 + half / 3)
        exact = amplitude_oracle(0.1, n_units, nodes, tau)
        coupling = Coupling(0.1)
        err_grid = np.abs(grid_kernel(coupling, n_units, grid, nodes[-1], tau) - exact).max()
        err_point = np.abs(cpmg_displacement_abs(coupling, n_units, nodes, tau) - exact).max()
        assert err_grid <= 2 * err_point

    @pytest.mark.parametrize("n_units", [1, 7, 5000])
    def test_major_peak_takes_the_limit(self, n_units):
        # step 1/2048 is exact, so node 2048 is omega = 50, where omega*tau = 2*pi
        coupling, tau = Coupling(0.1), 2 * np.pi / 50.0
        grid = np.linspace(49.0, 51.0, 4097)
        assert grid[2048] == 50.0
        got = grid_kernel(coupling, n_units, grid, 50.5, tau)
        assert got[2048] == pytest.approx(2 * 0.1 / 50.0 * n_units, rel=1e-14)

    @pytest.mark.parametrize("n", [64, 100, 4096, 4097])
    def test_last_node_is_the_pointwise_value(self, n):
        rng = np.random.default_rng(n)
        coupling = Coupling(0.1)
        for _ in range(20):
            n_units = int(rng.integers(2, 100000))
            w = float(rng.uniform(45.0, 55.0))
            tau = 2 * np.pi / w * (1 + 1 / n_units)
            grid = np.linspace(w - 0.1, w + 0.1, n)
            got = grid_kernel(coupling, n_units, grid, w, tau)
            assert got.shape == (n + 1,)
            assert got[-1] == cpmg_displacement_abs(coupling, n_units, w, tau)


class TestNearPeakPretest:
    """The grid kernel runs its |cos theta| < 1e-12 limit test only when its
    angles come within NEAR_PEAK_RAD of a zero pi/2 + k pi of cos theta."""

    TAU = 2 * np.pi / 50.0  # theta = pi/2 at omega = 50

    @staticmethod
    def kernels(monkeypatch, n_units, grid, omega_last, tau):
        """(the kernel, the kernel with the limit test forced on, whether
        the pre-test asked for it)."""
        asked = []

        def recorded(lo, hi):
            asked.append(_near_cos_zero(lo, hi))
            return asked[-1]

        with monkeypatch.context() as m:
            m.setattr(model, "_near_cos_zero", recorded)
            got = grid_kernel(Coupling(0.1), n_units, grid, omega_last, tau)
            m.setattr(model, "_near_cos_zero", lambda lo, hi: True)
            want = grid_kernel(Coupling(0.1), n_units, grid, omega_last, tau)
        return got, want, any(asked)

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("gap", [0.0, 0.5e-9, 1e-9, 2e-9])
    @pytest.mark.parametrize("n_units", [3, 20000])
    def test_range_ending_near_a_zero(self, monkeypatch, k, side, gap, n_units):
        # the theta range ends gap rad short of pi/2 + k pi, from below or above
        q = self.TAU / 4
        zero = np.pi / 2 + k * np.pi
        if side == "below":
            grid = np.linspace((zero - gap - 1e-4) / q, (zero - gap) / q, 4096)
        else:
            grid = np.linspace((zero + gap) / q, (zero + gap + 1e-4) / q, 4096)
        got, want, asked = self.kernels(monkeypatch, n_units, grid, 50.5, self.TAU)
        assert np.array_equal(got, want)
        assert_within_pointwise_tolerance(got, np.append(grid, 50.5), n_units, self.TAU)
        if gap < 1e-9:
            assert asked
        elif gap > 1e-9:
            assert not asked

    @pytest.mark.parametrize("n_units", [3, 20000])
    def test_node_on_the_peak(self, monkeypatch, n_units):
        # step 1/2048 is exact, so node 2048 is omega = 50 and theta = pi/2
        grid = np.linspace(49.0, 51.0, 4097)
        got, want, asked = self.kernels(monkeypatch, n_units, grid, 52.0, self.TAU)
        assert asked and np.array_equal(got, want)
        assert got[2048] == pytest.approx(2 * 0.1 / 50.0 * n_units, rel=1e-14)
        assert_within_pointwise_tolerance(got, np.append(grid, 52.0), n_units, self.TAU)

    @pytest.mark.parametrize("n_units", [3, 20000])
    def test_last_node_on_the_peak(self, monkeypatch, n_units):
        # the grid lies far from the zero, the last node on it
        grid = np.linspace(52.0, 53.0, 4096)
        got, want, asked = self.kernels(monkeypatch, n_units, grid, 50.0, self.TAU)
        assert asked and np.array_equal(got, want)
        assert got[-1] == cpmg_displacement_abs(Coupling(0.1), n_units, 50.0, self.TAU)

    def test_far_from_every_zero_skips_the_test(self, monkeypatch):
        grid = np.linspace(52.0, 53.0, 4096)
        got, want, asked = self.kernels(monkeypatch, 7, grid, 52.5, self.TAU)
        assert not asked and np.array_equal(got, want)


def kernel_call(n, n_units, center, half):
    """The loop's kernel on a linspace grid of n nodes about center, at a
    plan's tau for N = n_units, with a last node inside the grid."""
    tau = 2 * np.pi / center * (1 + 1 / n_units)
    grid = np.linspace(center - half, center + half, n)
    return signed_grid_kernel(Coupling(0.1), n_units, grid, center + half / 3, tau)


class TestGridKernelWorkArrays:
    """The kernel refills small per-thread work arrays on every call; no
    result may depend on the calls made before it or beside it."""

    # (n, N, center, half-width): B = 64, 64, 8, 32 and 71, and two
    # calls with the same B but another (N, tau)
    CASES = [(4096, 300, 50.0, 0.3), (4096, 20000, 52.0, 1e-4), (64, 7, 49.0, 0.02),
             (1000, 2, 50.5, 4.0), (5000, 80000, 50.0, 3e-7)]

    @pytest.mark.parametrize("a", range(len(CASES)))
    def test_a_b_a_is_bit_equal(self, a):
        first = kernel_call(*self.CASES[a]).tobytes()
        for b, other in enumerate(self.CASES):
            if b != a:
                kernel_call(*other)
                assert kernel_call(*self.CASES[a]).tobytes() == first

    def test_returned_buffer_is_left_alone(self):
        kept = kernel_call(*self.CASES[0])
        want = kept.copy()
        for case in self.CASES + self.CASES[:1]:
            got = kernel_call(*case)
            assert not np.shares_memory(got, kept)
        assert kept.tobytes() == want.tobytes()

    def test_threads_match_serial_calls(self):
        # eight threads, more than the cores, run the kernel at once; the
        # cases share B = 64, so a work array shared between threads would
        # be refilled under another thread's call
        cases = [(4096, 300, 50.0, 0.3), (4096, 20000, 52.0, 1e-4), (4000, 7, 49.0, 0.02),
                 (4090, 2, 50.5, 4.0)]
        serial = [kernel_call(*case).tobytes() for case in cases]
        wrong, done = [0] * 8, [0] * 8
        start = threading.Barrier(8)

        def run(t):
            start.wait(timeout=60)
            for _ in range(300):
                wrong[t] += kernel_call(*cases[t % 4]).tobytes() != serial[t % 4]
                done[t] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert done == [300] * 8 and wrong == [0] * 8


class TestCoherence:
    """The outcome law P+ = (1 + L)/2 with the thermal contrast L."""

    def test_zero_displacement_full_contrast(self):
        assert outcome_probability(0.0, ThermalState(10.0)) == 1.0

    @pytest.mark.parametrize("alpha,nbar", [
        (0.05, 0.0), (0.1 + 0.07j, 1.0), (0.3j, 10.0), (0.02, 100.0),
        (0.4, 2.5),
    ])
    def test_matches_fock_laguerre_sum(self, alpha, nbar):
        # the oracle depends on |alpha| only, the amplitude the law takes
        got = outcome_probability(abs(alpha), ThermalState(nbar))
        want = (1.0 + laguerre_oracle(alpha, nbar)) / 2.0
        assert got == pytest.approx(want, abs=1e-6)

    def test_monotone_in_magnitude(self):
        state = ThermalState(5.0)
        mags = np.linspace(0.0, 0.5, 20)
        vals = outcome_probability(mags, state)
        assert np.all(np.diff(vals) < 0)

    @given(re=st.floats(min_value=-1e154, max_value=1e154),
           im=st.floats(min_value=-1e154, max_value=1e154),
           nbar=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_in_range_for_any_displacement(self, re, im, nbar):
        # L lies in [0, 1] by construction, so no input leaves [1/2, 1];
        # an exponent beyond the float range overflows to -inf, and L to 0
        state = ThermalState(nbar)
        with np.errstate(over="ignore"):
            for alpha in (re, abs(complex(re, im))):
                assert 0.5 <= outcome_probability(alpha, state) <= 1.0
            p = outcome_probability(np.abs(np.array([re, im, 0.0]) + 1j * im), state)
        assert np.all((p >= 0.5) & (p <= 1.0))

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            ThermalState(-0.5)

    @pytest.mark.parametrize("nbar", [5e307, np.float64(5e307), 1e308])
    def test_nbar_beyond_float_range_rejected(self, nbar):
        # 2*nbar+1 is finite at 5e307, but the contrast's factor -2*(2*nbar+1) is not
        with pytest.raises(ValueError, match=r"nbar must keep 2\*\(2\*nbar\+1\) finite"):
            ThermalState(nbar)


class TestOutcomeProbability:
    def test_half_contrast(self):
        # L = 1/2 where 2*(2*nbar+1)*|alpha|^2 = ln 2
        state = ThermalState(3.0)
        alpha = np.sqrt(np.log(2.0) / (2.0 * 7.0))
        assert outcome_probability(alpha, state) == pytest.approx(0.75, rel=1e-15)
        assert outcome_probability(-alpha, state) == pytest.approx(0.75, rel=1e-15)

    def test_extremes(self):
        state = ThermalState(10.0)
        assert outcome_probability(0.0, state) == 1.0
        assert outcome_probability(1e3, state) == 0.5
        with np.errstate(over="ignore"):
            assert outcome_probability(1e200, state) == 0.5

    @given(ints=st.lists(st.integers(min_value=-2**62, max_value=2**62), min_size=1, max_size=40),
           floats=st.lists(st.floats(min_value=-1e200, max_value=1e200), min_size=1, max_size=40),
           nbar=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_real_alpha_squares_in_float64_bitwise(self, ints, floats, nbar):
        # the amplitude is squared in float64, whatever its dtype: an integer
        # square cannot wrap, and a narrower square would round differently
        state = ThermalState(nbar)
        with np.errstate(over="ignore"):
            for alpha in (ints, floats):
                x = np.array(alpha, dtype=float)
                want = (np.exp(x * x * (-2.0 * (2.0 * nbar + 1.0))) + 1.0) / 2.0
                assert np.array_equal(outcome_probability(np.array(alpha), state), want)
                assert outcome_probability(alpha[0], state) == want[0]

    def test_complex_alpha_rejected(self):
        state = ThermalState(1.0)
        for alpha in (0.1j, np.array([0.1, 0.2 + 0.0j]), np.complex64(0.3)):
            with pytest.raises(TypeError):
                outcome_probability(alpha, state)

    def test_contrast_in_place_is_the_law(self):
        # the loop turns the kernel's signed amplitudes into L in place;
        # (1 + L)/2 is the outcome law bit for bit, whatever the sign
        state = ThermalState(2.0)
        alpha = np.array([0.0, 0.01, -0.2, 0.3, -5.0, 1e100])
        buf = alpha.copy()
        assert _contrast(buf, state, out=buf) is buf
        assert np.array_equal((1.0 + buf) / 2.0, outcome_probability(np.abs(alpha), state))

    @given(alpha=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
           nbar=st.sampled_from([0.0, 10.0, 1000.0]))
    @settings(max_examples=200, deadline=None)
    def test_contrast_lies_in_unit_interval(self, alpha, nbar):
        # the run loop hands L to the update core unchecked, whose precondition
        # L in [2*P_CLAMP - 1, 1] it meets by lying in [0, 1]: for any finite
        # real amplitude, at 0, at subnormal ones, and about the largest one
        # AdaptiveConfig's lam bound admits, sqrt(max float / (2*(2*nbar+1)))
        state = ThermalState(nbar)
        edge = math.sqrt(sys.float_info.max / (2.0 * (2.0 * nbar + 1.0)))
        x = np.array(alpha + [0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min,
                              np.nextafter(edge, 0.0), edge, -edge, np.nextafter(edge, np.inf)])
        with np.errstate(over="ignore"):
            arrays = (_contrast(x, state), _contrast(x.copy(), state, out=np.empty_like(x)))
            scalars = np.array([_contrast(v, state) for v in x.tolist()])
        for c in (*arrays, scalars):
            assert np.all((c >= 0.0) & (c <= 1.0))
        # the edge is the bound's: the reference prior's lowest node is 46.5,
        # and a lam that makes 4*PERIODS_BOUND*lam/46.5 about the edge is accepted
        lam = edge * 46.5 / (4.0 * PERIODS_BOUND) * (1.0 - 1e-9)
        AdaptiveConfig(omega_true=50.0, omega0=50.5, delta_omega0=0.5, lam=lam, nbar=nbar)
        with pytest.raises(ValueError, match="lam must keep the contrast exponent"):
            AdaptiveConfig(omega_true=50.0, omega0=50.5, delta_omega0=0.5, lam=lam * (1 + 1e-8),
                           nbar=nbar)

    def test_array_matches_scalar_calls(self):
        # the loop's scalar call takes (1 + L)/2 in Python floats; it must
        # be the array path's element bit for bit: at 0, at tiny amplitudes,
        # at the reference plans' amplitudes of the true frequency, and
        # where the contrast underflows to 0 (alpha^2 overflows at 1e200)
        plans = [s.plan for nbar in (10.0, 1000.0)
                 for s in run_adaptive(reference_config(nbar, max_steps=60)).records]
        sweep = np.concatenate([
            np.abs(np.array([0.0, 0.01, -0.2, 0.3j, 0.1 - 0.1j, 5.0, 1e100])),
            [5e-324, 1e-300, 1e-160, 1e-20, 1e-9, 1.5e-8],
            [cpmg_displacement_abs(Coupling(0.1), p.n_units, 50.0, p.tau) for p in plans],
            [0.2, 1.0, 3.0, 27.3, 1e3, 1e154, 1e200, 1.7e308]])
        for nbar in (0.0, 2.0, 10.0, 1000.0):
            state = ThermalState(nbar)
            with np.errstate(over="ignore"):
                p_plus = outcome_probability(sweep, state)
            assert p_plus.shape == sweep.shape
            assert p_plus[-1] == 0.5 and p_plus[0] == 1.0
            for i, value in enumerate(sweep.tolist()):
                got = outcome_probability(value, state)
                assert type(got) is float
                assert np.float64(got).tobytes() == p_plus[i].tobytes()
