"""Fringe-derivative envelopes, Fisher identities, and the comparison report.

The frozen RMS constant is checked against a correctly rounded mpmath
oracle and against adaptive quadrature, and the binary-outcome Fisher
information is verified to coincide with the quantum bound for real
contrast. The slope of the fringe kernel at its first node reproduces
the 1/T^2 precision bound (swept over N in acceptance check 07).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qsense.information import (
    G_RMS1,
    ComparisonReport,
    cfi_binary,
    compare_control,
    g_finite,
    g_sq_mean,
    g_universal,
    lambda_tilde_cpmg,
    qfi_real,
)
from qsense.model import Coupling, cpmg_displacement_abs


class TestUniversalEnvelope:
    def test_unit_value_at_first_node(self):
        assert g_universal(1.0) == pytest.approx(1.0, abs=1e-14)
        assert g_universal(-1.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_at_origin(self):
        assert g_universal(0.0) == 0.0

    def test_half_fringe_value(self):
        # at z = 1/2 the expression reduces to |0 - 1|/(pi/4) = 4/pi
        assert g_universal(0.5) == pytest.approx(4.0 / np.pi, rel=1e-14)

    def test_series_limit_continuous(self):
        below, above = 9.9e-5, 1.1e-4
        lin = np.pi**2 / 3.0
        assert g_universal(below) == pytest.approx(lin * below, rel=1e-8)
        assert g_universal(above) == pytest.approx(lin * above, rel=1e-7)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_even_symmetry(self, z):
        assert g_universal(z) == pytest.approx(g_universal(-z), abs=1e-14)

    def test_vectorized(self):
        z = np.array([0.0, 0.5, 1.0, 2.5])
        out = g_universal(z)
        assert out.shape == z.shape
        assert out[2] == pytest.approx(1.0, abs=1e-14)


class TestFiniteEnvelope:
    def test_frozen_examples(self):
        assert g_finite(50, 0.0) == 0.0
        assert g_finite(50, 1.0) == pytest.approx(1.0006582767280523, rel=1e-9)
        assert g_finite(200, 0.5) == pytest.approx(1.2732264544346172, rel=1e-9)

    def test_sup_difference_bounds(self):
        zg = np.linspace(-3.0, 3.0, 24001)
        assert np.max(np.abs(g_finite(50, zg) - g_universal(zg))) < 5e-3
        assert np.max(np.abs(g_finite(200, zg) - g_universal(zg))) < 5e-4

    def test_converges_with_n(self):
        zg = np.linspace(-2.5, 2.5, 501)
        d_small = np.max(np.abs(g_finite(30, zg) - g_universal(zg)))
        d_large = np.max(np.abs(g_finite(300, zg) - g_universal(zg)))
        assert d_large < d_small / 5.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            g_finite(1, 0.5)
        with pytest.raises(ValueError):
            g_finite(10, 10.0)

class TestRmsWindow:
    def test_frozen_first_fringe_constant(self):
        # all 64 weighted Gauss-Legendre terms are positive, so the relative
        # rounding error of the sum is a few eps and sqrt halves it; the last
        # bit still depends on the platform's sin/cos, so no bitwise check
        rms = math.sqrt(g_sq_mean(1.0))
        assert abs(rms - G_RMS1) <= 2 * np.spacing(G_RMS1)
        assert abs(rms - 0.83544) < 0.0005

    def test_frozen_constant_correctly_rounded(self):
        # sqrt(1/2 * int_0^2 g^2) at 30 digits, on the same subintervals as
        # the program's quadrature; the exact value is 2.8e-17 clear of a
        # rounding midpoint, so float() of it is platform independent
        mpmath = pytest.importorskip("mpmath")

        def g_sq(z):
            pz = mpmath.pi * z
            return ((pz * mpmath.cos(pz) - mpmath.sin(pz)) / (mpmath.pi * z**2)) ** 2

        with mpmath.workdps(30):
            # tanh-sinh quadrature never evaluates the endpoint z = 0
            integral, err = mpmath.quad(g_sq, [0, 1, 2], error=True)
            oracle = mpmath.sqrt(integral / 2)
        assert err < 1e-25
        assert G_RMS1 == float(oracle)

    def test_against_adaptive_quadrature(self):
        ref, err = quad(lambda z: g_universal(z) ** 2, 0.0, 2.0,
                        points=[0.0, 1.0, 2.0], epsabs=1e-13, epsrel=1e-13,
                        limit=200)
        assert err < 1e-10
        assert math.sqrt(g_sq_mean(1.0)) == pytest.approx(np.sqrt(ref / 2.0), abs=5e-14)

    def test_narrow_window_limit(self):
        assert g_sq_mean(1e-4) == pytest.approx(1.0, abs=1e-6)
        # the mean divides by the rounded window's own width, so it stays at
        # its limit g(1)^2 = 1 down to windows below the float spacing at 1
        for dz in (1e-10, 1e-12, 1e-15, 1e-16, 6e-17, 1e-17, 1e-300, 5e-324):
            assert abs(g_sq_mean(dz) - 1.0) <= np.spacing(1.0)

    def test_wide_window_inverse_law(self):
        dz = np.logspace(1, 3, 25)
        vals = np.array([g_sq_mean(d) for d in dz])
        coef = np.linalg.lstsq(
            np.vstack([np.log(dz), np.ones_like(dz)]).T, np.log(vals),
            rcond=None)[0]
        assert coef[0] == pytest.approx(-1.0, abs=0.05)

    def test_positive_window_required(self):
        with pytest.raises(ValueError):
            g_sq_mean(0.0)
        with pytest.raises(ValueError):
            g_sq_mean(-1.0)

    @given(st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_window_additivity(self, dz1, dz2):
        # integrals over [1-dz, 1+dz] add when windows are nested sums
        big = max(dz1, dz2)
        total = g_sq_mean(big) * 2 * big
        inner = g_sq_mean(min(dz1, dz2)) * 2 * min(dz1, dz2)
        assert total >= inner - 1e-12


class TestFisherIdentities:
    @given(st.floats(min_value=-0.999, max_value=0.999),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_binary_outcome_saturates_quantum_bound(self, L, dL):
        f_q = qfi_real(L, dL)
        f_c = cfi_binary((1.0 + L) / 2.0, dL / 2.0)
        assert abs(f_c - f_q) <= 1e-12 * max(1.0, abs(f_q))

    def test_singularities(self):
        with pytest.raises(ValueError):
            qfi_real(1.0, 0.5)
        with pytest.raises(ValueError):
            cfi_binary(0.0, 0.5)
        assert qfi_real(1.0, 0.0) == 0.0
        assert cfi_binary(1.0, 0.0) == 0.0


class TestPrecisionBounds:
    def test_gradient_implies_asymptotic_precision(self):
        # single-shot Cramer-Rao from the slope of the loop's kernel
        # reproduces pi/(lambda_tilde * T^2) at the first fringe node,
        # where |alpha| has a V-shaped zero with equal slopes on both sides
        lam, nbar, omega = 0.1, 10.0, 50.0
        n_units = 200
        tau = (2 * np.pi / omega) * (1 + 1.0 / n_units)
        big_t = n_units * tau
        h = 1e-6 * omega
        up, down = cpmg_displacement_abs(Coupling(lam), n_units,
                                         np.array([omega + h, omega - h]), tau)
        assert up == pytest.approx(down, rel=1e-3)
        slope = (up + down) / (2.0 * h)
        fisher = 4.0 * (2 * nbar + 1) * slope**2
        direct = 1.0 / np.sqrt(fisher)
        asym = np.pi / (lambda_tilde_cpmg(lam, nbar) * big_t**2)
        assert direct == pytest.approx(asym, rel=0.05)


class TestComparison:
    def test_reference_gain(self):
        rep = compare_control(omega=2 * np.pi * 1e8, lam=2 * np.pi * 1e3,
                              t2=1e-3, nbar=0.0)
        assert rep.sensitivity_gain == pytest.approx(2e5, rel=1e-9)
        assert rep.time_cost_ratio == pytest.approx(1e5, rel=1e-9)

    def test_unit_k_factor_ratio(self):
        rep = compare_control(omega=300.0, lam=6.0, t2=2.0, nbar=0.0, k_factor=1.0)
        assert rep.time_cost_ratio == pytest.approx(50.0, rel=1e-12)

    def test_k_factor_square_root(self):
        r1 = compare_control(omega=300.0, lam=6.0, t2=2.0, nbar=0.0, k_factor=1.0)
        r25 = compare_control(omega=300.0, lam=6.0, t2=2.0, nbar=0.0, k_factor=25.0)
        assert r25.time_cost_ratio == pytest.approx(5.0 * r1.time_cost_ratio, rel=1e-12)

    def test_gain_is_sensitivity_ratio(self):
        rep = compare_control(omega=77.0, lam=0.3, t2=5.0, nbar=12.0)
        assert rep.sensitivity_gain == pytest.approx(
            rep.sensitivity_free / rep.sensitivity_controlled, rel=1e-12)
        assert rep.sensitivity_gain == pytest.approx(77.0 * 5.0 / np.pi, rel=1e-12)

    def test_all_outputs_positive(self):
        rep = compare_control(omega=10.0, lam=0.5, t2=0.3, nbar=3.0, k_factor=2.0)
        for v in dataclasses.asdict(rep).values():
            assert v > 0

    def test_thermal_scaling_of_lambda_tilde(self):
        cold = compare_control(omega=10.0, lam=0.5, t2=0.3, nbar=0.0)
        hot = compare_control(omega=10.0, lam=0.5, t2=0.3, nbar=40.0)
        assert hot.lambda_tilde == pytest.approx(9.0 * cold.lambda_tilde, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compare_control(omega=-1.0, lam=0.5, t2=0.3, nbar=0.0)
        with pytest.raises(ValueError):
            compare_control(omega=1.0, lam=0.5, t2=0.3, nbar=-0.5)

    @pytest.mark.parametrize("kwargs", [{"lam": np.inf}, {"nbar": np.nan}])
    def test_non_finite_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            compare_control(**{"omega": 10.0, "lam": 0.5, "t2": 0.3, "nbar": 3.0, **kwargs})

    def test_report_round_trip(self):
        rep = compare_control(omega=10.0, lam=0.5, t2=0.3, nbar=3.0)
        d = dataclasses.asdict(rep)
        assert ComparisonReport(**d) == rep
