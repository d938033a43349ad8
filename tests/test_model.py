"""Displacement, interference, and coherence checks against independent oracles.

The closed-form displacement is compared against direct numerical
quadrature of the modulated phase integral, and the thermal fringe
contrast against a Fock-space Laguerre sum. Structural properties
(node placement, |K| bound, symmetry, validation) are exercised with
hypothesis.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_laguerre

from qsense.model import (
    ControlSchedule,
    Coupling,
    PulseSequence,
    ThermalState,
    alpha_cpmg,
    alpha_single_unit,
    cpmg_displacement_abs,
    interference_factor,
    outcome_probability,
    total_displacement,
    total_displacement_direct,
    zeta,
)

lam_st = st.floats(min_value=1e-3, max_value=10.0)
tau_st = st.floats(min_value=0.1, max_value=20.0)
omega_st = st.floats(min_value=0.1, max_value=100.0)


def quad_oracle(sched, coupling, omega):
    """-i*(lam/2) * int_0^{N tau} f(t) e^{i omega t} dt by adaptive quadrature.

    The modulation is piecewise constant, so integrate each constant
    segment separately and sum.
    """
    tau = sched.unit.tau
    bounds = (0.0,) + sched.unit.pulse_times + (tau,)
    total = 0.0 + 0.0j
    for n in range(sched.n_units):
        for j in range(len(bounds) - 1):
            a, b = n * tau + bounds[j], n * tau + bounds[j + 1]
            sign = (-1) ** j
            re, _ = quad(lambda t: np.cos(omega * t), a, b, limit=200)
            im, _ = quad(lambda t: np.sin(omega * t), a, b, limit=200)
            total += sign * (re + 1j * im)
    return -1j * (coupling.lam / 2.0) * total


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


class TestPulseSequence:
    def test_cpmg_fractions(self):
        seq = PulseSequence.cpmg(2.0)
        assert seq.pulse_fractions == (0.25, 0.75)
        assert seq.pulse_times == (0.5, 1.5)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            PulseSequence(tau=0.0, pulse_fractions=(0.25, 0.75))

    def test_odd_pulse_count_rejected(self):
        with pytest.raises(ValueError):
            PulseSequence(tau=1.0, pulse_fractions=(0.5,))

    def test_fraction_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            PulseSequence(tau=1.0, pulse_fractions=(0.25, 1.0))
        with pytest.raises(ValueError):
            PulseSequence(tau=1.0, pulse_fractions=(0.0, 0.75))

    def test_non_increasing_fractions_rejected(self):
        with pytest.raises(ValueError):
            PulseSequence(tau=1.0, pulse_fractions=(0.75, 0.25))
        with pytest.raises(ValueError):
            PulseSequence(tau=1.0, pulse_fractions=(0.5, 0.5))

    def test_schedule_requires_units(self):
        with pytest.raises(ValueError):
            ControlSchedule(unit=PulseSequence.cpmg(1.0), n_units=0)

    def test_schedule_total_time(self):
        sched = ControlSchedule(unit=PulseSequence.cpmg(0.5), n_units=8)
        assert sched.total_time == pytest.approx(4.0)


class TestDisplacement:
    def test_cpmg_closed_form_at_resonance(self):
        # omega*tau = 2*pi collapses the closed form to -2i*lam/omega
        a1 = alpha_cpmg(Coupling(0.1), 50.0, 2 * np.pi / 50.0)
        assert a1 == pytest.approx(-0.004j, abs=1e-15)

    @given(lam_st, tau_st, omega_st)
    @settings(max_examples=150, deadline=None)
    def test_cpmg_matches_piecewise(self, lam, tau, omega):
        seq = PulseSequence.cpmg(tau)
        a = alpha_single_unit(seq, Coupling(lam), omega)
        b = alpha_cpmg(Coupling(lam), omega, tau)
        # round-off floor: the piecewise sum cancels terms of size
        # lam/(2*omega), and trig argument reduction loses eps*omega*tau
        floor = 1e-13 * (lam / omega) * max(1.0, omega * tau)
        assert abs(a - b) <= 1e-12 * (abs(a) + abs(b)) + floor

    @pytest.mark.parametrize("n_units,tau,omega", [
        (1, 1.7, 3.1), (3, 0.9, 3.7), (5, 2.3, 1.1), (4, 0.4, 9.3),
    ])
    def test_total_displacement_matches_quadrature(self, n_units, tau, omega):
        sched = ControlSchedule(unit=PulseSequence.cpmg(tau), n_units=n_units)
        coupling = Coupling(0.37)
        got = total_displacement(sched, coupling, omega)
        want = quad_oracle(sched, coupling, omega)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_quadrature_with_asymmetric_unit(self):
        unit = PulseSequence(tau=1.3, pulse_fractions=(0.2, 0.45, 0.6, 0.9))
        sched = ControlSchedule(unit=unit, n_units=3)
        coupling = Coupling(0.8)
        got = total_displacement(sched, coupling, 2.9)
        want = quad_oracle(sched, coupling, 2.9)
        assert abs(got - want) <= 1e-9 * abs(want)

    @given(st.integers(min_value=1, max_value=40), lam_st, tau_st, omega_st)
    @settings(max_examples=120, deadline=None)
    def test_factorized_equals_direct(self, n_units, lam, tau, omega):
        sched = ControlSchedule(unit=PulseSequence.cpmg(tau), n_units=n_units)
        a = total_displacement(sched, Coupling(lam), omega)
        b = total_displacement_direct(sched, Coupling(lam), omega)
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
            alpha_single_unit(PulseSequence.cpmg(1.0), Coupling(0.1), 0.0)


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
    """cpmg_displacement_abs against the complex displacement it replaces."""

    @pytest.mark.parametrize("n_units", [1, 2, 3, 7, 16, 64])
    @pytest.mark.parametrize("tau", [2 * np.pi / 50.0 * 1.02, 0.37, 1.3])
    def test_matches_segment_sum(self, n_units, tau):
        coupling = Coupling(0.1)
        omega = magnitude_grid(n_units, tau)
        got = cpmg_displacement_abs(coupling, n_units, omega, tau)
        sched = ControlSchedule(unit=PulseSequence.cpmg(tau), n_units=n_units)
        want = np.abs(total_displacement_direct(sched, coupling, omega))
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

    def test_array_matches_scalar_calls(self):
        state = ThermalState(2.0)
        alpha = np.abs(np.array([0.0, 0.01, -0.2, 0.3j, 0.1 - 0.1j, 5.0, 1e100]))
        p_plus = outcome_probability(alpha, state)
        assert p_plus.shape == alpha.shape
        for i, value in enumerate(alpha):
            assert p_plus[i] == outcome_probability(float(value), state)
