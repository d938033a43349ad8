"""Fringe-derivative envelopes, Fisher identities, and precision bounds.

The frozen RMS constant is checked against a correctly rounded mpmath
oracle and against adaptive quadrature, the binary-outcome Fisher
information is verified to coincide with the quantum bound for real
contrast, and the analytic displacement gradient is compared with
finite differences and with the asymptotic precision formula it implies.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qsense.information import (
    G_RMS1,
    ComparisonReport,
    cfi_binary,
    compare_control,
    dalpha_abs_domega,
    g_finite,
    g_rms,
    g_sq_mean,
    g_universal,
    qfi_complex,
    qfi_real,
)
from qsense.model import Coupling, alpha_cpmg, interference_factor
from qsense.protocol import lambda_tilde_cpmg


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
        assert abs(g_rms(1.0) - G_RMS1) <= 2 * np.spacing(G_RMS1)
        assert abs(g_rms(1.0) - 0.83544) < 0.0005

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
        assert g_rms(1.0) == pytest.approx(np.sqrt(ref / 2.0), abs=5e-14)

    def test_narrow_window_limit(self):
        assert g_sq_mean(1e-4) == pytest.approx(1.0, abs=1e-6)

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
            g_rms(-1.0)

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

    @given(st.floats(min_value=-0.999, max_value=0.999),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_complex_reduces_to_real(self, L, dL):
        f_r = qfi_real(L, dL)
        f_c = qfi_complex(complex(L), complex(dL))
        assert abs(f_c - f_r) <= 1e-12 * max(1.0, abs(f_r))

    def test_complex_phase_information(self):
        # a pure phase rotation of L carries information through |dL|^2
        L = 0.5 + 0.0j
        dL = 0.3j
        f = qfi_complex(L, dL)
        assert f == pytest.approx(0.09, rel=1e-12)

    def test_zero_contrast_no_modulus_term(self):
        assert qfi_complex(0.0, 0.7 + 0.1j) == pytest.approx(0.5, rel=1e-12)

    def test_singularities(self):
        with pytest.raises(ValueError):
            qfi_real(1.0, 0.5)
        with pytest.raises(ValueError):
            qfi_complex(1.0 + 0.0j, 0.5)
        with pytest.raises(ValueError):
            cfi_binary(0.0, 0.5)
        assert qfi_real(1.0, 0.0) == 0.0
        assert qfi_complex(-1.0 + 0.0j, 0.0) == 0.0
        assert cfi_binary(1.0, 0.0) == 0.0


class TestPrecisionBounds:
    def test_gradient_implies_asymptotic_precision(self):
        # single-shot Cramer-Rao from the displacement gradient reproduces
        # pi/(g * lambda_tilde * T^2) at the first fringe node
        lam, nbar, omega = 0.1, 10.0, 50.0
        n_units = 200
        tau = (2 * np.pi / omega) * (1 + 1.0 / n_units)
        big_t = n_units * tau
        grad = dalpha_abs_domega(lam, n_units, tau, omega).value
        fisher = 4.0 * (2 * nbar + 1) * grad**2
        direct = 1.0 / np.sqrt(fisher)
        asym = np.pi / (lambda_tilde_cpmg(lam, nbar) * big_t**2)
        assert direct == pytest.approx(asym, rel=0.05)


class TestDisplacementGradient:
    @given(st.integers(min_value=2, max_value=300),
           st.floats(min_value=-2.5, max_value=2.5),
           st.floats(min_value=0.01, max_value=1.0))
    @example(n_units=73, zt=2.459785, lam=1.0)  # side-lobe maximum of |alpha|
    @example(n_units=10, zt=2.463645, lam=0.0307)  # side-lobe maximum of |alpha|
    @example(n_units=2, zt=-1.999, lam=1.0)  # tau just above zero
    @settings(max_examples=100, deadline=None)
    def test_analytic_matches_finite_difference(self, n_units, zt, lam):
        # tau > 0 needs |zeta| < n_units, the domain g_finite enforces
        assume(n_units + zt > 0)
        # |alpha| has a corner at every node; keep the difference stencil
        # clear of it (exact-node behavior is covered below)
        assume(abs(zt - round(zt)) > 1e-4 or round(zt) == 0)
        omega = 50.0
        tau = (2 * np.pi / omega) * (1 + zt / n_units)
        an = dalpha_abs_domega(lam, n_units, tau, omega, method="analytic")
        fd = dalpha_abs_domega(lam, n_units, tau, omega, method="fd")
        assert an.offset_applied == fd.offset_applied
        # the central difference over h = 1e-7*omega carries round-off of
        # about n_units*eps*|alpha|/h (K sums n_units terms), which does not
        # shrink with the derivative and dominates where d|alpha|/d omega
        # passes through zero at the extrema of |alpha|
        h = 1e-7 * omega
        alpha_abs = abs(alpha_cpmg(Coupling(lam), omega, tau)
                        * interference_factor(n_units, omega, tau))
        roundoff = 8.0 * n_units * np.finfo(float).eps * alpha_abs / h
        scale = max(abs(an.value), abs(fd.value))
        assert abs(an.value - fd.value) <= 1e-6 * scale + roundoff

    def test_node_offset_flagged(self):
        # zeta = 1 zeroes K exactly, so |alpha| is evaluated off the node
        omega, n_units = 50.0, 50
        tau = (2 * np.pi / omega) * (1 + 1.0 / n_units)
        res = dalpha_abs_domega(0.1, n_units, tau, omega)
        assert res.offset_applied
        assert np.isfinite(res.value)

    def test_peak_not_flagged(self):
        res = dalpha_abs_domega(0.1, 50, 2 * np.pi / 50.0, 50.0)
        assert not res.offset_applied

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            dalpha_abs_domega(0.1, 50, 0.12, 50.0, method="spectral")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dalpha_abs_domega(-0.1, 50, 0.12, 50.0)
        with pytest.raises(ValueError):
            dalpha_abs_domega(0.1, 0, 0.12, 50.0)


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
