"""Gridded Bayesian posterior: updates, estimators, uncertainty, regridding.

Update arithmetic is checked against brute-force products, the
contraction law against analytic likelihoods, and the estimator
consistency statistically over seeded trials.
"""

import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import log_domain_mle, log_domain_update
from qsense import estimation
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
    return Posterior(np.linspace(omega_min, omega_max, n_points), np.ones(n_points))


def rough_posterior(omega_min=2.0, omega_max=4.0, n_points=257, seed=5):
    lc = np.random.default_rng(seed).uniform(-0.9, 0.9, n_points)
    return bayes_update(flat_posterior(omega_min, omega_max, n_points), lc, 3, 2)


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
            Posterior(np.linspace(1.0, 1.0, 64), np.ones(64))

    def test_minimum_grid_size(self):
        with pytest.raises(ValueError):
            Posterior(np.linspace(0.0, 1.0, 32), np.ones(32))

    def test_length_consistency(self):
        with pytest.raises(ValueError):
            Posterior(np.linspace(0.0, 1.0, 64), np.ones(65))

    def test_constructor_normalizes(self):
        post = Posterior(np.linspace(0.0, 1.0, 64), np.full(64, 3.0))
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(post.weights == post.weights[0])
        mass, _ = mass_beyond(post, 0.5, 0.1)
        assert 0.0 <= mass <= 1.0

    @pytest.mark.parametrize("fill", [0.0, -1.0, np.inf, np.nan, 1e-320])
    def test_sum_must_be_positive_and_finite(self, fill):
        # a sum whose reciprocal overflows cannot be scaled to 1 either
        with pytest.raises(ValueError, match="positive finite sum"):
            Posterior(np.linspace(0.0, 1.0, 64), np.full(64, fill))

    def test_plain_value(self):
        # a posterior is its grid and weights; reading it leaves it as it was
        assert [f.name for f in dataclasses.fields(Posterior)] == ["grid", "weights"]
        post = rough_posterior()
        copied = pickle.loads(pickle.dumps(post))
        assert np.array_equal(copied.grid, post.grid)
        assert np.array_equal(copied.weights, post.weights)
        before = dict(vars(post))
        w_hat = mle(post)
        uncertainty(post, w_hat, 0.3)
        mass_beyond(post, w_hat, 0.3)
        mass_beyond(post, w_hat, 5.0)
        assert vars(post).keys() == before.keys()
        assert all(vars(post)[k] is v for k, v in before.items())


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
    """The weight-domain Bayes update written plainly, with L clipped on
    both sides: one multiply per shot."""
    bound = 1.0 - 2.0 * P_CLAMP
    lc = np.clip(np.asarray(contrast, dtype=float), -bound, bound)
    w = post.weights
    for _ in range(n_plus):
        w = w * (1.0 + lc)
    for _ in range(n_minus):
        w = w * (1.0 - lc)
    return Posterior(post.grid, w)


class TestBayesUpdate:
    def test_no_data_identity(self):
        post = gaussian_prior(50.0, 1.0, 4.0, 128)
        same = bayes_update(post, np.full(128, -0.4), 0, 0)
        assert np.allclose(same.weights, post.weights, rtol=1e-12, atol=0.0)

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
        assert np.allclose(split.weights, joint.weights, rtol=1e-12, atol=0.0)

    @given(st.lists(st.one_of(st.sampled_from([-1.0, 2.0 * P_CLAMP - 1.0, 0.0,
                                               1.0 - 2.0 * P_CLAMP, 1.0]),
                              st.floats(min_value=-1.0, max_value=1.0)),
                    min_size=64, max_size=64),
           st.booleans(),
           st.sampled_from([0, 1, 3]),
           st.sampled_from([0, 1, 3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_two_sided_clip_bitwise(self, l_list, floored, n_plus, n_minus):
        # L at, within and beyond either clamp, with and without any below the lower one
        lc = np.array(l_list)
        if floored:
            lc = np.maximum(lc, 2.0 * P_CLAMP - 1.0)
        post = gaussian_prior(50.0, 1.0, 4.0, 64)
        got = bayes_update(post, lc, n_plus, n_minus)
        want = clip_update(post, lc, n_plus, n_minus)
        assert np.array_equal(got.weights, want.weights)

    @pytest.mark.parametrize("nu", [1, 3, 25, 26, 390, 350651])
    def test_uniform_batch_leaves_the_posterior(self, nu):
        # every node at the upper clamp and every outcome contrary: one
        # common factor (2*P_CLAMP)**nu, which the weight domain holds at
        # the prior's tails (exp(-32) of its peak) up to nu = 25; above
        # that the update goes through log domain, whose sum rounds to
        # 2**-53 of nu*|ln(2*P_CLAMP)|
        post = gaussian_prior(50.0, 0.5, 8.0, 4096)
        out = bayes_update(post, np.ones(4096), 0, nu)
        rtol = 1e-12 + 4 * 2.0**-53 * nu * abs(math.log(2.0 * P_CLAMP))
        assert np.allclose(out.weights, post.weights, rtol=rtol, atol=0.0)

    def test_renormalized(self):
        post = flat_posterior(n_points=64)
        out = bayes_update(post, np.linspace(-0.6, 0.6, 64), 17, 5)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_input_unchanged(self):
        post = gaussian_prior(50.0, 1.0, 4.0, 128)
        before = post.weights.copy()
        contrast = np.linspace(-0.9, 0.9, 128)
        c_before = contrast.copy()
        for n_plus, n_minus in ((5, 3), (5, 0), (0, 3)):
            out = bayes_update(post, contrast, n_plus, n_minus)
            assert np.array_equal(post.weights, before)
            assert np.array_equal(contrast, c_before)
        # the constructor normalizes a copy, not the caller's array
        w = out.weights * 7.0
        w_before = w.copy()
        Posterior(out.grid, w)
        assert np.array_equal(w, w_before)

    def test_boundary_probabilities_clamped(self):
        # a contrary outcome at a certain node must not produce -inf
        post = flat_posterior(n_points=64)
        lc = np.concatenate([np.full(32, -1.0), np.ones(32)])
        out = bayes_update(post, lc, 3, 2)
        assert np.all(np.isfinite(out.weights))
        assert np.all(out.weights > 0.0)

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
        grid_post = Posterior(np.linspace(-1.0, 1.0, 4096), np.ones(4096))
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


class TestLogDomainOracle:
    """Sequences of updates against the log-domain update of tests/oracles.py.

    Outcomes are drawn from one true node's law, as in the run loop. A
    weight that underflows to 0 stays 0, where the oracle keeps the
    node at any depth, so data that later favoured such a node would
    fail the comparison; with outcomes drawn this way none does.
    """

    SPECIAL = [0.0, 1.0 - 2.0 * P_CLAMP, 1.0]

    @given(nus=st.lists(st.sampled_from([1, 3, 21, 390, 350651]), min_size=1, max_size=50),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           true=st.integers(min_value=0, max_value=63),
           special_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_sequence_matches_log_domain(self, nus, seed, true, special_share):
        rng = np.random.default_rng(seed)
        post = gaussian_prior(50.0, 1.0, 4.0, 64)
        lw = np.log(post.weights)
        for nu in nus:
            lc = rng.uniform(0.0, 1.0, 64)
            special = rng.random(64) < special_share
            lc[special] = rng.choice(self.SPECIAL, int(special.sum()))
            n_plus = int(rng.binomial(nu, (1.0 + min(lc[true], 1.0 - 2.0 * P_CLAMP)) / 2.0))
            post = bayes_update(post, lc, n_plus, nu - n_plus)
            lw = log_domain_update(lw, lc, n_plus, nu - n_plus)
        # the oracle rounds each term n*log1p(+-L) to 2**-53 of its size, at
        # most nu*|ln(2*P_CLAMP)|, and so its log weights
        tol = 1e-12 + 4 * 2.0**-53 * sum(nus) * abs(math.log(2.0 * P_CLAMP))
        w_oracle = np.exp(lw)
        compared = lw > math.log(1e-250)
        assert np.all(np.abs(post.weights[compared] / w_oracle[compared] - 1.0) <= tol)
        assert np.all(post.weights[~compared] <= 1e-249)
        i = int(np.argmax(lw))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # one-node posteriors
            omega_hat = mle(post)
            for half_window in (None, 3 * post.spacing, 0.5):
                inside = (np.ones(64, dtype=bool) if half_window is None
                          else np.abs(post.grid - omega_hat) <= half_window)
                d = post.grid[inside] - omega_hat
                want = max(math.sqrt(np.sum(w_oracle[inside] * d**2) / np.sum(w_oracle[inside])),
                           post.spacing / math.sqrt(12.0))
                assert uncertainty(post, omega_hat, half_window) == pytest.approx(want, rel=1e-9)
        want_mle = log_domain_mle(post.grid, lw)
        if 0 < i < 63 and compared[i - 1] and compared[i + 1]:
            assert omega_hat == pytest.approx(want_mle, abs=1e-9 * post.spacing)
        else:
            # a neighbour below the compared range: the parabola's offset
            # differs, but both stay within half a spacing of the peak node
            assert abs(omega_hat - post.grid[i]) <= 0.5 * post.spacing
            assert abs(want_mle - post.grid[i]) <= 0.5 * post.spacing


class TestMle:
    def test_single_peak_within_spacing(self):
        post = gaussian_prior(10.0, 0.3, 6.0, 256)
        assert mle(post) == pytest.approx(10.0, abs=post.spacing)

    def test_parabolic_refinement_beats_grid(self):
        # peak deliberately placed between nodes
        grid = np.linspace(0.0, 1.0, 101)
        true_peak = 0.503
        lw = -((grid - true_peak) ** 2) / (2 * 0.05**2)
        post = Posterior(np.linspace(0.0, 1.0, 101), np.exp(lw))
        assert abs(mle(post) - true_peak) < 0.1 * post.spacing

    def test_symmetric_tie_takes_lower_index(self):
        lw = np.full(64, -10.0)
        lw[20] = lw[43] = -1.0
        post = Posterior(np.linspace(0.0, 1.0, 64), np.exp(lw))
        assert mle(post) == pytest.approx(post.grid[20], abs=1e-12)

    def test_tie_prefers_center(self):
        lw = np.full(64, -10.0)
        lw[5] = lw[33] = -1.0
        post = Posterior(np.linspace(0.0, 1.0, 64), np.exp(lw))
        assert mle(post) == pytest.approx(post.grid[33], abs=1e-12)

    def test_flat_posterior_warns_and_centers(self):
        post = flat_posterior(2.0, 4.0, 64)
        with pytest.warns(UserWarning):
            val = mle(post)
        assert val == pytest.approx(3.0)

    def test_boundary_maximum_no_refinement(self):
        lw = np.linspace(-5.0, 0.0, 64)
        post = Posterior(np.linspace(0.0, 1.0, 64), np.exp(lw))
        assert mle(post) == pytest.approx(post.grid[-1], abs=1e-12)


def count_nonzero_mle(post):
    """mle written plainly: count every node equal to the maximum, and on a
    tie take the one nearest the grid center."""
    w = post.weights
    i = int(w.argmax())
    ties = np.count_nonzero(w == w[i])
    center = 0.5 * (post.omega_min + post.omega_max)
    if ties == post.n_points:
        warnings.warn("degenerate posterior: all weights equal, returning grid center")
        return center
    if ties > 1:
        top = np.flatnonzero(w == w[i])
        i = int(top[np.argmin(np.abs(post.grid[top] - center))])
    omega_hat = post.grid.item(i)
    if 0 < i < post.n_points - 1:
        l0, l1, l2 = (math.log(v) if v > 0.0 else LOG_FLOOR for v in w[i - 1:i + 2].tolist())
        den = l0 - 2.0 * l1 + l2
        if den < 0:
            off = 0.5 * (l0 - l2) / den
            if abs(off) <= 0.5:
                omega_hat += off * post.spacing
    return omega_hat


def same_mle(post):
    """mle and the count_nonzero rule give the same value and the same
    warnings: (the value, the warning messages)."""
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = mle(post)
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = count_nonzero_mle(post)
    messages = [str(w.message) for w in got_warned]
    assert got == want and messages == [str(w.message) for w in want_warned]
    return got, messages


class TestMleTailTie:
    """Ties, which argmax alone would settle toward the first maximum,
    go to the node nearest the grid center, then the lower index."""

    @staticmethod
    def posterior(top, n=64):
        lw = np.full(n, -10.0)
        lw[list(top)] = -1.0
        return Posterior(np.linspace(0.0, 1.0, n), np.exp(lw))

    @pytest.mark.parametrize("top,want", [
        ((5, 33), 33),         # a tie after the first maximum, nearer the center
        ((20, 43), 20),        # a symmetric tie
        ((3, 30, 60), 30),     # three equal maxima
        ((63,), 63),           # a maximum at the last node
        ((2, 63), 2),          # a tie at the last node
        ((0, 63), 0),          # the ends tie, equally far from the center
        ((40,), 40),           # no tie
    ])
    def test_matches_count_nonzero_rule(self, top, want):
        post = self.posterior(top)
        assert same_mle(post) == (pytest.approx(post.grid[want], abs=1e-12), [])

    def test_flat_posterior_warns_as_before(self):
        post = flat_posterior(2.0, 4.0, 64)
        assert same_mle(post) == (3.0, ["degenerate posterior: all weights equal, "
                                        "returning grid center"])

    @given(levels=st.lists(st.integers(min_value=-2, max_value=0), min_size=64, max_size=96))
    @settings(max_examples=200, deadline=None)
    def test_coarse_weights_match_count_nonzero_rule(self, levels):
        # equal levels give bitwise equal weights, so ties are common
        n = len(levels)
        same_mle(Posterior(np.linspace(-1.0, 2.0, n), np.exp(np.array(levels, dtype=float))))


class TestUncertainty:
    def test_bimodal_direct_sum(self):
        lw = np.full(64, LOG_FLOOR)
        lw[10] = lw[53] = -0.5
        post = Posterior(np.linspace(0.0, 1.0, 64), np.exp(lw))
        omega_hat = post.grid[10]
        got = uncertainty(post, omega_hat)
        w = np.exp(lw)
        coeff = np.ones(64)
        coeff[0] = coeff[-1] = 0.5
        want = np.sqrt(np.sum(coeff * w * (post.grid - omega_hat) ** 2)
                       / np.sum(coeff * w))
        assert got == pytest.approx(float(want), rel=1e-12)
        assert got > post.grid[30] - post.grid[10] > 0

    def test_single_node_resolution_floor(self):
        lw = np.full(64, LOG_FLOOR)
        lw[30] = 0.0
        post = Posterior(np.linspace(0.0, 1.0, 64), np.exp(lw))
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
        post = rough_posterior(*grid)
        inside = np.abs(post.grid - center) <= radius
        w, d = post.weights[inside], post.grid[inside] - center
        want = np.sqrt(np.sum(w * d**2) / np.sum(w))
        assert uncertainty(post, center, radius) == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("grid,center,radius", CASES + [((), 3.0013, 1e-4)])
    def test_mass_beyond_matches_masked_sum(self, grid, center, radius):
        post = rough_posterior(*grid)
        out = np.abs(post.grid - center) > radius
        mass, node = mass_beyond(post, center, radius)
        assert mass == pytest.approx(float(post.weights[out].sum()), rel=1e-12, abs=0.0)
        if out.any():
            assert node == post.grid[out][np.argmax(post.weights[out])]
        else:
            assert mass == 0.0 and np.isnan(node)

    def test_whole_grid_is_the_default_window(self):
        post = rough_posterior()
        assert uncertainty(post, 3.0) == uncertainty(post, 3.0, 5.0)

    def test_invalid_window(self):
        post = rough_posterior()
        with pytest.raises(ValueError):
            mass_beyond(post, 3.0, -0.1)
        with pytest.raises(ValueError):
            uncertainty(post, float("nan"), 0.1)


def masked_window(post, center, radius):
    """[lo, hi) of the nodes with |omega - center| <= radius, by a mask."""
    inside = np.flatnonzero(np.abs(post.grid - center) <= radius)
    if len(inside):
        return int(inside[0]), int(inside[-1]) + 1
    k = int(np.count_nonzero(post.grid < center))
    return k, k


def concatenated_mass_beyond(post, center, radius):
    """mass_beyond as written before: the outer weights copied into one array."""
    lo, hi = masked_window(post, center, radius)
    outer = np.concatenate((post.weights[:lo], post.weights[hi:]))
    if not len(outer):
        return 0.0, math.nan
    j = int(outer.argmax())
    if j >= lo:
        j += hi - lo
    return float(outer.sum()), float(post.grid[j])


def same_bits(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def check_window_calls(post, center, radius):
    """_window and mass_beyond on post against the masked window and the
    concatenated outer sum, bit for bit; uncertainty refuses an empty window."""
    lo, hi = estimation._window(post.grid, center, radius)
    assert (lo, hi) == masked_window(post, center, radius)
    mass, node = mass_beyond(post, center, radius)
    want_mass, want_node = concatenated_mass_beyond(post, center, radius)
    assert mass == want_mass and same_bits(node, want_node)
    if lo == hi:
        with pytest.raises(ValueError, match="zero total weight"):
            uncertainty(post, center, radius)
    return lo, hi


class TestWholeGridShortcut:
    """_window returns the whole grid at once when both end nodes lie
    within radius; it must still be the nodes with |omega - center| <= radius."""

    @staticmethod
    def check(post, center, radius):
        inside = np.flatnonzero(np.abs(post.grid - center) <= radius)
        lo, hi = estimation._window(post.grid, center, radius)
        assert np.array_equal(np.arange(lo, hi), inside)
        return lo, hi

    @staticmethod
    def ulps(radius):
        return np.nextafter(radius, 0.0), radius, np.nextafter(radius, math.inf)

    @pytest.mark.parametrize("grid", [(2.0, 4.0, 257), (50.0 - 3e-7, 50.0 + 3e-7, 4096),
                                      (1e6, 1e6 + 1e-4, 64)])
    @pytest.mark.parametrize("where", [0.5, 0.3, 1e-9, 0.0, 1.0])
    def test_end_node_at_the_radius(self, grid, where):
        # the farther end node at exactly the rounded distance, one ulp
        # inside it and one ulp outside it
        post = rough_posterior(*grid)
        center = post.omega_min + where * (post.omega_max - post.omega_min)
        far = max(abs(post.omega_min - center), abs(post.omega_max - center))
        for radius, whole in zip(self.ulps(far), (False, True, True)):
            assert (self.check(post, center, radius) == (0, post.n_points)) == whole
        # the nearer end node's rounded distance, and an ulp about it
        near = min(abs(post.omega_min - center), abs(post.omega_max - center))
        for radius in self.ulps(near):
            lo, hi = self.check(post, center, radius)
            assert (lo == 0 or hi == post.n_points) == (radius >= near)

    @given(n_points=st.integers(min_value=64, max_value=300),
           lo=st.floats(min_value=1e-3, max_value=1e6),
           log_span=st.floats(min_value=-9.0, max_value=1.0),
           where=st.floats(min_value=-0.5, max_value=1.5),
           ulp=st.sampled_from([-1, 0, 1]), end=st.sampled_from([0, -1]))
    @settings(max_examples=300, deadline=None)
    def test_radius_about_an_end_node(self, n_points, lo, log_span, where, ulp, end):
        grid = np.linspace(lo, lo * (1 + 10**log_span), n_points)
        assume((np.diff(grid) > 0).all())
        post = flat_posterior(grid[0], grid[-1], n_points)
        center = float(grid[0] + where * (grid[-1] - grid[0]))
        radius = abs(post.grid[end] - center)
        self.check(post, center, float(self.ulps(radius)[ulp + 1]))

    @pytest.mark.parametrize("center,radius", [(3.0, 1.0), (3.0, 5.0), (-7.0, 20.0),
                                               (3.0, math.inf)])
    def test_whole_grid(self, center, radius):
        # an infinite radius takes every node, as the predicate does
        assert self.check(rough_posterior(), center, radius) == (0, 257)

    @pytest.mark.parametrize("center,radius,touches", [
        (2.0, 0.5, "lower"), (1.9, 0.25, "lower"), (4.0, 0.5, "upper"), (4.2, 0.3, "upper")])
    def test_window_touching_one_end(self, center, radius, touches):
        lo, hi = self.check(rough_posterior(), center, radius)
        assert (lo == 0, hi == 257) == (touches == "lower", touches == "upper")

    @pytest.mark.parametrize("center,radius", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 5.0),
                                               (3.0, math.nan), (3.0, -0.1), (math.nan, math.inf)])
    def test_bad_arguments_raise(self, center, radius):
        post = rough_posterior()
        with pytest.raises(ValueError, match="need a finite center and radius >= 0"):
            estimation._window(post.grid, center, radius)


class TestWindowReuse:
    """Windows asked for in any order, repeated, alternated or changed, are
    the nodes with |omega - center| <= radius."""

    # (center, radius) as fractions of the grid's span, from its lower end
    query = st.tuples(st.floats(min_value=-0.5, max_value=1.5),
                      st.sampled_from([0.0, 1e-9, 1e-3, 0.01, 0.1, 0.3, 0.5, 1.0, 2.0])
                      | st.floats(min_value=0.0, max_value=2.0))

    @given(n_points=st.integers(min_value=64, max_value=300),
           seed=st.integers(min_value=0, max_value=2**16),
           pool=st.lists(query, min_size=1, max_size=3),
           order=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_repeated_alternating_and_changed_windows(self, n_points, seed, pool, order):
        post = rough_posterior(n_points=n_points, seed=seed)
        span = post.omega_max - post.omega_min
        for k in order:
            c, r = pool[k % len(pool)]
            check_window_calls(post, post.omega_min + c * span, r * span)

    @pytest.mark.parametrize("center,radius,shape", [
        (3.0, 5.0, "whole grid"),
        (3.0013, 1e-4, "no node"),
        (5.0, 0.1, "no node, above the grid"),
        (2.05, 0.4, "reaches the lower end"),
        (3.9713, 0.1, "reaches the upper end"),
        (2.0, 0.0, "the first node alone"),
        (4.0, 0.0, "the last node alone"),
        (3.0, 0.3, "both sides outside"),
    ])
    def test_window_shapes(self, center, radius, shape):
        post = rough_posterior()
        lo, hi = check_window_calls(post, center, radius)
        whole, empty = (lo, hi) == (0, 257), lo == hi
        assert whole == (shape == "whole grid") and empty == shape.startswith("no node")
        if not (whole or empty):
            assert (lo == 0) == (shape in ("reaches the lower end", "the first node alone"))
            assert (hi == 257) == (shape in ("reaches the upper end", "the last node alone"))

    @pytest.mark.parametrize("pi_over_t", [0.02, 0.2])
    def test_far_mass_radius_beyond_pi_over_t(self, pi_over_t):
        # the loop's pair of calls: the width within pi/T, then the mass
        # beyond max(pi/T, 6 dw), here 6 dw > pi/T, so the window changes
        post = bayes_update(flat_posterior(2.0, 4.0, 512),
                            0.9 * np.cos(40.0 * np.linspace(2.0, 4.0, 512)), 4, 1)
        w_hat = mle(post)
        dw = uncertainty(post, w_hat, pi_over_t)
        assert 6 * dw > pi_over_t
        check_window_calls(post, w_hat, max(pi_over_t, 6 * dw))
        check_window_calls(post, w_hat, pi_over_t)


def bits(values):
    """The float64 bytes of each value, so that equal means bit for bit."""
    return [np.float64(v).tobytes() for v in values]


def drawn_posterior(seed, n_points, peak, kind):
    """A rough posterior on [2, 4] whose heaviest node sits at fraction peak of
    the grid: alone, tied with another node, with zero weights beside it,
    alone with every other weight 0, or with every weight tied."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, n_points) ** 4
    i = round(peak * (n_points - 1))
    w[i] = 2.0
    if kind == "tie":
        w[int(rng.integers(n_points))] = 2.0
    elif kind == "zeros beside":
        w[max(i - 1, 0)] = w[min(i + 1, n_points - 1)] = 0.0
    elif kind == "one node":
        w[:] = 0.0
        w[i] = 2.0
    elif kind == "flat":
        w[:] = 1.0
    return Posterior(np.linspace(2.0, 4.0, n_points), w)


posterior_args = dict(seed=st.integers(min_value=0, max_value=2**16),
                      n_points=st.sampled_from([64, 65, 257, 4096]),
                      peak=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0,
                                                                        max_value=1.0),
                      kind=st.sampled_from(["alone", "tie", "zeros beside", "one node", "flat"]))


class TestArrayCores:
    """The array cores the run loop calls return, bit for bit, what the
    public functions return for the same posterior."""

    @given(**posterior_args, shape=st.sampled_from(["whole", "inside", "end", "empty"]),
           far_widths=st.sampled_from([0, 6, 1e9]))
    @settings(max_examples=300, deadline=None)
    def test_readout_is_mle_uncertainty_and_mass_beyond(self, seed, n_points, peak, kind,
                                                        shape, far_widths):
        post = drawn_posterior(seed, n_points, peak, kind)
        grid, n = post.grid, post.n_points
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            w_hat = mle(post)
            ends = abs(grid.item(0) - w_hat), abs(grid.item(-1) - w_hat)
            nearest = float(np.abs(grid - w_hat).min())
            # the window as asked: both ends in, both out (unless the estimate is
            # an end node), the nearer end only, or no node when the estimate
            # lies off every node
            half_window = {"whole": max(ends), "inside": 0.5 * min(ends), "end": min(ends),
                           "empty": 0.5 * nearest}[shape]
            lo, hi = estimation._window(grid, w_hat, half_window)
            assert {"whole": (lo, hi) == (0, n), "inside": (0 < lo and hi < n) or min(ends) == 0,
                    "end": lo == 0 or hi == n, "empty": (lo == hi) == (nearest > 0)}[shape]
            try:
                width = uncertainty(post, w_hat, half_window)
            except ValueError:
                want = w_hat, math.nan, math.nan, math.nan
            else:
                want = (w_hat, width,
                        *mass_beyond(post, w_hat, max(half_window, far_widths * width)))
            public = len(seen)
            got = estimation._readout(grid, post.weights, post.spacing, half_window, far_widths)
        assert bits(got) == bits(want)
        messages = [str(x.message) for x in seen]
        assert messages[public:] == messages[:public]

    @given(**posterior_args, n_plus=st.integers(min_value=0, max_value=40),
           n_minus=st.integers(min_value=0, max_value=40),
           edge=st.sampled_from([0.0, 1.0, -1.0, 1.0 - P_CLAMP, P_CLAMP - 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_update_and_normalization_are_bayes_update(self, seed, n_points, peak, kind,
                                                       n_plus, n_minus, edge):
        # batches on both sides of the log-domain switch (26 shots at 4096
        # nodes, 27 at 64), with some contrasts at or beyond the clamp
        post = drawn_posterior(seed, n_points, peak, kind)
        rng = np.random.default_rng(seed + 1)
        contrast = rng.uniform(-1.0, 1.0, n_points)
        contrast[rng.random(n_points) < 0.1] = edge
        w = post.weights
        before = w.tobytes()
        raw = estimation._update(w, contrast, n_plus, n_minus)
        want = bayes_update(post, contrast, n_plus, n_minus).weights.tobytes()
        assert w.tobytes() == before
        assert estimation._normalize(raw).tobytes() == want
        # the loop's final posterior, built once from the unnormalized weights
        assert Posterior(post.grid, raw).weights.tobytes() == want

    @given(**posterior_args, center=st.floats(min_value=1.0, max_value=5.0),
           half_width=st.sampled_from([0.0, -1.0, 1e-9, 1.0]) | st.floats(min_value=1e-6,
                                                                            max_value=3.0),
           new_points=st.sampled_from([64, 100, 4096]))
    @settings(max_examples=300, deadline=None)
    def test_regrid_core_is_regrid(self, seed, n_points, peak, kind, center, half_width,
                                   new_points):
        post = drawn_posterior(seed, n_points, peak, kind)
        try:
            want = regrid(post, center, half_width, new_points)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                estimation._regrid(post.grid, post.weights, center, half_width, new_points)
            return
        grid, raw = estimation._regrid(post.grid, post.weights, center, half_width, new_points)
        assert grid.tobytes() == want.grid.tobytes()
        assert estimation._normalize(raw).tobytes() == want.weights.tobytes()


class TestRegrid:
    def test_identity_window(self):
        post = gaussian_prior(50.0, 0.5, 6.0, 256)
        half = 0.5 * (post.omega_max - post.omega_min)
        out = regrid(post, 50.0, half, 256)
        assert np.allclose(out.weights, post.weights, rtol=1e-10, atol=0.0)

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
        # the mass off the old grid is floored at exp(LOG_FLOOR) of the old peak, not 0
        assert np.all(out.weights > 0.0)

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
        base = Posterior(np.linspace(-1.0, 1.0, 1024), np.ones(1024))
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
