"""Gridded Bayesian posterior: updates, estimators, uncertainty, regridding.

Update arithmetic is checked against brute-force products, the
contraction law against analytic likelihoods, and the estimator
consistency statistically over seeded trials.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsense.estimation import (
    LOG_FLOOR,
    P_CLAMP,
    Posterior,
    bayes_update,
    gaussian_prior,
    mass_beyond,
    mle,
    regrid,
    uncertainty,
)


def flat_posterior(omega_min=0.0, omega_max=1.0, n_points=64):
    lw = np.full(n_points, -np.log(n_points))
    return Posterior(np.linspace(omega_min, omega_max, n_points), lw)


class TestPosteriorType:
    def test_weights_normalized(self):
        post = gaussian_prior(50.5, 0.5, 8.0, 4096)
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_and_spacing(self):
        post = flat_posterior(2.0, 4.0, 101)
        assert post.grid[0] == 2.0 and post.grid[-1] == 4.0
        assert post.spacing == pytest.approx(0.02)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            Posterior(np.linspace(1.0, 1.0, 64), np.zeros(64))

    def test_minimum_grid_size(self):
        with pytest.raises(ValueError):
            Posterior(np.linspace(0.0, 1.0, 32), np.zeros(32))

    def test_length_consistency(self):
        with pytest.raises(ValueError):
            Posterior(np.linspace(0.0, 1.0, 64), np.zeros(65))

    def test_constructor_normalizes(self):
        post = Posterior(np.linspace(0.0, 1.0, 64), np.zeros(64))
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.exp(post.log_weights).sum() == pytest.approx(1.0, abs=1e-12)
        mass, _ = mass_beyond(post, 0.5, 0.1)
        assert 0.0 <= mass <= 1.0


class TestGaussianPrior:
    def test_reference_window(self):
        post = gaussian_prior(50.5, 0.5, 8.0, 4096)
        assert post.omega_min == pytest.approx(46.5)
        assert post.omega_max == pytest.approx(54.5)
        assert mle(post) == pytest.approx(50.5, abs=post.spacing)

    def test_prior_uncertainty_matches_width(self):
        post = gaussian_prior(50.5, 0.5, 8.0, 4096)
        assert uncertainty(post, 50.5) == pytest.approx(0.5, rel=5e-3)

    def test_mean_at_center(self):
        post = gaussian_prior(50.5, 0.5, 8.0, 4096)
        mean = float(np.sum(post.weights * post.grid))
        assert mean == pytest.approx(50.5, abs=1e-10)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            gaussian_prior(50.0, 0.0, 8.0, 4096)
        with pytest.raises(ValueError):
            gaussian_prior(50.0, 0.5, -1.0, 4096)


def clip_update(post, contrast, n_plus, n_minus):
    """The Bayes update written plainly, with L clipped on both sides."""
    bound = 1.0 - 2.0 * P_CLAMP
    lc = np.clip(np.asarray(contrast, dtype=float), -bound, bound)
    lw = post.log_weights
    if n_plus:
        lw = lw + n_plus * np.log1p(lc)
    if n_minus:
        lw = lw + n_minus * np.log1p(-lc)
    return Posterior(post.grid, lw)


class TestBayesUpdate:
    def test_no_data_identity(self):
        post = gaussian_prior(50.0, 1.0, 4.0, 128)
        same = bayes_update(post, np.full(128, -0.4), 0, 0)
        assert np.allclose(same.log_weights, post.log_weights, atol=1e-12)

    def test_three_level_brute_force(self):
        # flat prior, block-valued P+ = 0.2 / 0.5 / 0.8 (L = -0.6 / 0 / 0.6),
        # two + and one - outcome: weights proportional to p^2 (1-p),
        # highest at 0.8
        post = flat_posterior(n_points=64)
        lc = np.concatenate([np.full(32, -0.6), np.full(31, 0.0), [0.6]])
        out = bayes_update(post, lc, 2, 1)
        w = out.weights
        assert w[0] / w[63] == pytest.approx(0.032 / 0.128, rel=1e-12)
        assert w[40] / w[63] == pytest.approx(0.125 / 0.128, rel=1e-12)
        assert mle(out) == pytest.approx(out.grid[63], abs=1e-12)

    def test_monotone_likelihood_pushes_to_boundary(self):
        post = flat_posterior(n_points=128)
        lc = np.linspace(-0.8, 0.8, 128)
        out = bayes_update(post, lc, 40, 0)
        assert mle(out) == pytest.approx(out.grid[-1], abs=out.spacing)

    @given(st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_batch_associativity(self, a_plus, a_minus, b_plus, b_minus, seed):
        rng = np.random.default_rng(seed)
        post = flat_posterior(n_points=96)
        lc = rng.uniform(-0.9, 0.9, size=96)
        split = bayes_update(bayes_update(post, lc, a_plus, a_minus), lc, b_plus, b_minus)
        joint = bayes_update(post, lc, a_plus + b_plus, a_minus + b_minus)
        assert np.allclose(split.log_weights, joint.log_weights, atol=1e-12)

    @given(st.lists(st.one_of(st.sampled_from([-1.0, 2.0 * P_CLAMP - 1.0, 0.0,
                                               1.0 - 2.0 * P_CLAMP, 1.0]),
                              st.floats(min_value=-1.0, max_value=1.0)),
                    min_size=64, max_size=64),
           st.booleans(),
           st.sampled_from([0, 1, 3]),
           st.sampled_from([0, 1, 3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_two_sided_clip_bitwise(self, l_list, floored, n_plus, n_minus):
        # with every L at or above the lower clamp the update clamps one side only
        lc = np.array(l_list)
        if floored:
            lc = np.maximum(lc, 2.0 * P_CLAMP - 1.0)
        post = gaussian_prior(50.0, 1.0, 4.0, 64)
        got = bayes_update(post, lc, n_plus, n_minus)
        want = clip_update(post, lc, n_plus, n_minus)
        assert np.array_equal(got.log_weights, want.log_weights)
        assert np.array_equal(got.weights, want.weights)

    def test_renormalized(self):
        post = flat_posterior(n_points=64)
        out = bayes_update(post, np.linspace(-0.6, 0.6, 64), 17, 5)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_input_unchanged(self):
        post = gaussian_prior(50.0, 1.0, 4.0, 128)
        before = post.log_weights.copy()
        contrast = np.linspace(-0.9, 0.9, 128)
        c_before = contrast.copy()
        for n_plus, n_minus in ((5, 3), (5, 0), (0, 3)):
            out = bayes_update(post, contrast, n_plus, n_minus)
            assert np.array_equal(post.log_weights, before)
            assert np.array_equal(contrast, c_before)
        # the constructor normalizes a copy, not the caller's array
        lw = out.log_weights + 7.0
        lw_before = lw.copy()
        Posterior(out.grid, lw)
        assert np.array_equal(lw, lw_before)

    def test_boundary_probabilities_clamped(self):
        # a contrary outcome at a certain node must not produce -inf
        post = flat_posterior(n_points=64)
        lc = np.concatenate([np.full(32, -1.0), np.ones(32)])
        out = bayes_update(post, lc, 3, 2)
        assert np.all(np.isfinite(out.log_weights))
        assert np.all(out.log_weights >= LOG_FLOOR)

    def test_shape_mismatch(self):
        post = flat_posterior(n_points=64)
        with pytest.raises(ValueError):
            bayes_update(post, np.full(65, 0.0), 1, 0)

    def test_negative_counts(self):
        post = flat_posterior(n_points=64)
        with pytest.raises(ValueError):
            bayes_update(post, np.full(64, 0.0), -1, 0)

    def test_probability_range_checked(self):
        # L = 2*P+ - 1 outside [-1, 1] is P+ outside [0, 1]
        post = flat_posterior(n_points=64)
        for value in (1.4, -1.4):
            with pytest.raises(ValueError, match=r"contrasts must lie in \[-1, 1\]"):
                bayes_update(post, np.full(64, value), 1, 0)

    def test_contraction_follows_root_nu(self):
        # analytic likelihood at omega_true, expected counts: the
        # posterior width must fall as 1/sqrt(nu)
        omega_true = 0.0
        grid_post = Posterior(np.linspace(-1.0, 1.0, 4096), np.full(4096, -np.log(4096)))
        l_profile = 0.8 * np.sin(grid_post.grid)
        p_true = 0.5
        nus = np.array([100, 1000, 10_000, 100_000])
        widths = []
        for nu in nus:
            n_plus = int(round(nu * p_true))
            out = bayes_update(grid_post, l_profile, n_plus, int(nu) - n_plus)
            widths.append(uncertainty(out, mle(out)))
        coef = np.linalg.lstsq(
            np.vstack([np.log(nus), np.ones(len(nus))]).T,
            np.log(widths), rcond=None)[0]
        assert coef[0] == pytest.approx(-0.5, abs=0.05)
        assert abs(mle(out) - omega_true) <= 3 * widths[-1]


class TestMle:
    def test_single_peak_within_spacing(self):
        post = gaussian_prior(10.0, 0.3, 6.0, 256)
        assert mle(post) == pytest.approx(10.0, abs=post.spacing)

    def test_parabolic_refinement_beats_grid(self):
        # peak deliberately placed between nodes
        grid = np.linspace(0.0, 1.0, 101)
        true_peak = 0.503
        lw = -((grid - true_peak) ** 2) / (2 * 0.05**2)
        post = Posterior(np.linspace(0.0, 1.0, 101), lw)
        assert abs(mle(post) - true_peak) < 0.1 * post.spacing

    def test_symmetric_tie_takes_lower_index(self):
        lw = np.full(64, -10.0)
        lw[20] = lw[43] = -1.0
        post = Posterior(np.linspace(0.0, 1.0, 64), lw)
        assert mle(post) == pytest.approx(post.grid[20], abs=1e-12)

    def test_tie_prefers_center(self):
        lw = np.full(64, -10.0)
        lw[5] = lw[33] = -1.0
        post = Posterior(np.linspace(0.0, 1.0, 64), lw)
        assert mle(post) == pytest.approx(post.grid[33], abs=1e-12)

    def test_flat_posterior_warns_and_centers(self):
        post = flat_posterior(2.0, 4.0, 64)
        with pytest.warns(UserWarning):
            val = mle(post)
        assert val == pytest.approx(3.0)

    def test_boundary_maximum_no_refinement(self):
        lw = np.linspace(-5.0, 0.0, 64)
        post = Posterior(np.linspace(0.0, 1.0, 64), lw)
        assert mle(post) == pytest.approx(post.grid[-1], abs=1e-12)


class TestUncertainty:
    def test_bimodal_direct_sum(self):
        lw = np.full(64, LOG_FLOOR)
        lw[10] = lw[53] = -0.5
        post = Posterior(np.linspace(0.0, 1.0, 64), lw)
        omega_hat = post.grid[10]
        got = uncertainty(post, omega_hat)
        w = np.exp(np.maximum(lw, LOG_FLOOR))
        coeff = np.ones(64)
        coeff[0] = coeff[-1] = 0.5
        want = np.sqrt(np.sum(coeff * w * (post.grid - omega_hat) ** 2)
                       / np.sum(coeff * w))
        assert got == pytest.approx(float(want), rel=1e-12)
        assert got > post.grid[30] - post.grid[10] > 0

    def test_single_node_resolution_floor(self):
        lw = np.full(64, LOG_FLOOR)
        lw[30] = 0.0
        post = Posterior(np.linspace(0.0, 1.0, 64), lw)
        with pytest.warns(UserWarning):
            val = uncertainty(post, post.grid[30])
        assert val == pytest.approx(post.spacing / np.sqrt(12.0))

    def test_off_center_reference_increases_rms(self):
        post = gaussian_prior(0.0, 0.1, 6.0, 512)
        at_mean = uncertainty(post, 0.0)
        off = uncertainty(post, 0.25)
        assert off > at_mean


class TestWindowedSums:
    """Slice windows against brute-force masks |grid - center| <= radius."""

    @staticmethod
    def rough_posterior(omega_min=2.0, omega_max=4.0, n_points=257):
        lc = np.random.default_rng(5).uniform(-0.9, 0.9, n_points)
        return bayes_update(flat_posterior(omega_min, omega_max, n_points), lc, 3, 2)

    # the default grid has spacing 1/128, so its nodes are exact binary
    # fractions; (grid, center, radius)
    CASES = [
        ((), 3.0, 0.3),                         # centre on a node
        ((), 3.0, 0.25),                        # nodes at exactly the radius are inside
        ((), 3.0061, 0.2),                      # centre between nodes
        ((), 2.05, 0.4),                        # window clipped at the lower edge
        ((), 3.9713, 0.1),                      # window clipped at the upper edge
        ((), 3.0, 5.0),                         # window covers the grid
        # at these, a binary search for center -+ radius lands one node
        # off the exact predicate, at round-off
        ((), 2.889050558634333, 0.2640505586343331),
        ((), 2.5228241115917807, 0.18030088840821937),
        ((28.927900054771936, 90.99343735751052, 64), 63.47246316606477, 33.5593958525192),
    ]

    @pytest.mark.parametrize("grid,center,radius", CASES)
    def test_uncertainty_matches_masked_sum(self, grid, center, radius):
        post = self.rough_posterior(*grid)
        inside = np.abs(post.grid - center) <= radius
        w, d = post.weights[inside], post.grid[inside] - center
        want = np.sqrt(np.sum(w * d**2) / np.sum(w))
        assert uncertainty(post, center, radius) == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("grid,center,radius", CASES + [((), 3.0013, 1e-4)])
    def test_mass_beyond_matches_masked_sum(self, grid, center, radius):
        post = self.rough_posterior(*grid)
        out = np.abs(post.grid - center) > radius
        mass, node = mass_beyond(post, center, radius)
        assert mass == pytest.approx(float(post.weights[out].sum()), rel=1e-12, abs=0.0)
        if out.any():
            assert node == post.grid[out][np.argmax(post.weights[out])]
        else:
            assert mass == 0.0 and np.isnan(node)

    def test_whole_grid_is_the_default_window(self):
        post = self.rough_posterior()
        assert uncertainty(post, 3.0) == uncertainty(post, 3.0, 5.0)

    def test_invalid_window(self):
        post = self.rough_posterior()
        with pytest.raises(ValueError):
            mass_beyond(post, 3.0, -0.1)
        with pytest.raises(ValueError):
            uncertainty(post, float("nan"), 0.1)


class TestRegrid:
    def test_identity_window(self):
        post = gaussian_prior(50.0, 0.5, 6.0, 256)
        half = 0.5 * (post.omega_max - post.omega_min)
        out = regrid(post, 50.0, half, 256)
        assert np.allclose(out.log_weights, post.log_weights, atol=1e-10)

    def test_tighter_window_preserves_moments(self):
        post = gaussian_prior(50.0, 0.5, 8.0, 2048)
        out = regrid(post, 50.0, 5.0, 2048)
        assert mle(out) == pytest.approx(mle(post), abs=5e-3)
        assert uncertainty(out, 50.0) == pytest.approx(
            uncertainty(post, 50.0), rel=5e-3)

    def test_clipped_tail_renormalized(self):
        post = gaussian_prior(50.0, 0.5, 6.0, 256)
        out = regrid(post, 50.8, 0.6, 256)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.log_weights >= LOG_FLOOR)

    def test_round_trip_preserves_mle(self):
        post = gaussian_prior(50.0, 0.5, 8.0, 1024)
        tight = regrid(post, 50.1, 1.5, 1024)
        back = regrid(tight, 50.0, 4.0, 1024)
        assert abs(mle(back) - mle(post)) <= back.spacing

    def test_disjoint_window_rejected(self):
        post = gaussian_prior(50.0, 0.5, 6.0, 256)
        with pytest.raises(ValueError):
            regrid(post, 60.0, 1.0, 256)

    def test_positive_half_width_required(self):
        post = gaussian_prior(50.0, 0.5, 6.0, 256)
        with pytest.raises(ValueError):
            regrid(post, 50.0, 0.0, 256)


class TestEstimatorConsistency:
    def test_mle_within_three_sigma(self):
        # binomial data from the true model: the interval omega_hat
        # +- 3 delta_omega must cover omega_true in at least 99% of trials
        omega_true = 0.35
        base = Posterior(np.linspace(-1.0, 1.0, 1024), np.full(1024, -np.log(1024)))
        l_profile = 0.8 * np.sin(base.grid - omega_true)
        p_true = 0.5
        nu = 400
        rng = np.random.default_rng(20260822)
        hits = 0
        for _ in range(1000):
            n_plus = int(rng.binomial(nu, p_true))
            out = bayes_update(base, l_profile, n_plus, nu - n_plus)
            est = mle(out)
            if abs(est - omega_true) <= 3.0 * uncertainty(out, est):
                hits += 1
        assert hits >= 990
