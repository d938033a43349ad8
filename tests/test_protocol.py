"""Two-stage adaptive controller: plan formulas, transitions, run loop.

Plan arithmetic is pinned to hand-computed values at the reference
operating point, the run loop is checked for determinism, accounting
identities, and stage ordering, and the ensemble-level convergence
invariants run against the shared 500-repetition fixture.
"""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest

from qsense import protocol
from qsense.estimation import P_CLAMP, Estimate, Posterior, gaussian_prior
from qsense.model import Coupling, alpha_cpmg, cpmg_displacement_abs
from qsense.protocol import (
    STAGE_I,
    STAGE_II,
    AdaptiveConfig,
    lambda_tilde_cpmg,
    nint,
    run_adaptive,
    stage1_plan,
    stage2_plan,
    stage_transition,
)
from qsense.simkit import reference_config, run_repetitions


class ForcedPlus:
    """Stand-in random stream that returns every outcome as +1."""

    def binomial(self, n, p):
        return n


class TestNint:
    @pytest.mark.parametrize("value,expected", [
        (49.5, 50), (-2.5, -3), (2.4, 2), (2.5, 3), (0.5, 1),
        (-0.5, -1), (-49.5, -50), (0.0, 0), (67.374, 67), (-2.4, -2),
    ])
    def test_half_away_from_zero(self, value, expected):
        assert nint(value) == expected


class TestEffectiveCoupling:
    def test_reference_values(self):
        assert lambda_tilde_cpmg(0.1, 10.0) == pytest.approx(
            0.1 * np.sqrt(21) / np.pi, rel=1e-15)
        assert lambda_tilde_cpmg(0.1, 10.0) == pytest.approx(0.1459, rel=1e-3)
        assert lambda_tilde_cpmg(0.1, 0.0) == pytest.approx(0.03183, rel=1e-3)
        assert lambda_tilde_cpmg(0.1, 1000.0) == pytest.approx(1.4238, rel=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lambda_tilde_cpmg(0.0, 10.0)
        with pytest.raises(ValueError):
            lambda_tilde_cpmg(0.1, -1.0)

    # The per-step coupling is stage1_plan's lambda_tilde_k,
    # sqrt(2 nbar + 1) |alpha_1(omega, tau)| / tau at
    # omega tau = 2 pi (1 + 1/N).

    def test_step_coupling_at_resonance(self):
        # N = 1e13 puts omega tau within 1e-12 of 2 pi, where the
        # coupling departs from its resonant value by about 0.57/N
        cfg = reference_config(nbar=10.0)
        plan = stage1_plan(50.0, 2.5e-12, cfg)
        assert plan.n_units > 10**12
        assert plan.lambda_tilde_k == pytest.approx(lambda_tilde_cpmg(0.1, 10.0), rel=1e-12)

    def test_step_coupling_near_resonance(self):
        # N = 50 gives omega tau = 2 pi * 1.02; the exact deviation
        # at this detuning is 1.069%
        cfg = reference_config(nbar=10.0)
        plan = stage1_plan(50.0, 0.49, cfg)
        assert plan.n_units == 50
        assert 50.0 * plan.tau / (2 * np.pi) == pytest.approx(1.02, rel=1e-14)
        got = plan.lambda_tilde_k
        assert got == pytest.approx(lambda_tilde_cpmg(0.1, 10.0), rel=0.012)
        assert got / lambda_tilde_cpmg(0.1, 10.0) == pytest.approx(1.01069, abs=2e-4)

    def test_step_coupling_matches_closed_form(self):
        # the plan takes |alpha_1| from the real-only kernel; the complex
        # closed form alpha_cpmg is the oracle
        for nbar in (0.0, 10.0, 1000.0):
            cfg = dataclasses.replace(reference_config(nbar=nbar), lam=0.37)
            for omega in (1.0, 7.3, 50.0, 93.0):
                for n_units in (2, 3, 10, 57, 200):
                    plan = stage1_plan(omega, omega / (protocol.KAPPA_I * (n_units + 1)), cfg)
                    assert plan.n_units == n_units
                    a1 = abs(alpha_cpmg(Coupling(cfg.lam), omega, plan.tau))
                    want = np.sqrt(2 * nbar + 1) * a1 / plan.tau
                    assert plan.lambda_tilde_k == pytest.approx(want, rel=1e-13)

    def test_linear_in_coupling(self):
        cfg = reference_config(nbar=10.0)
        one = stage1_plan(50.0, 0.49, cfg).lambda_tilde_k
        two = stage1_plan(50.0, 0.49, dataclasses.replace(cfg, lam=0.2)).lambda_tilde_k
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestStagePlans:
    def test_stage1_reference_point(self):
        cfg = reference_config(nbar=10.0)
        plan = stage1_plan(50.5, 0.5, cfg)
        assert plan.stage == STAGE_I
        assert plan.n_units == 50
        assert plan.tau == pytest.approx((2 * np.pi / 50.5) * 1.02, rel=1e-12)
        assert plan.tau == pytest.approx(0.12691, abs=1e-5)
        assert plan.repetitions == 1
        assert plan.lambda_tilde_k == pytest.approx(
            lambda_tilde_cpmg(0.1, 10.0), rel=0.012)

    def test_stage1_n_doubles_as_width_halves(self):
        cfg = reference_config(nbar=10.0)
        n_wide = stage1_plan(50.5, 0.5, cfg).n_units
        n_narrow = stage1_plan(50.5, 0.25, cfg).n_units
        assert abs(n_narrow - 2 * n_wide) <= 2

    def test_stage2_reference_point(self):
        cfg = reference_config(nbar=10.0)
        lt = lambda_tilde_cpmg(cfg.lam, cfg.nbar)
        plan = stage2_plan(50.0, lt, cfg)
        assert plan.stage == STAGE_II
        assert plan.n_units == 67
        assert plan.tau == pytest.approx((2 * np.pi / 50.0) * (1 + 1 / 67), rel=1e-12)
        assert plan.repetitions == 1
        assert plan.lambda_tilde_k == pytest.approx(lt, rel=1e-12)

    def test_stage2_time_scaling(self):
        cfg = reference_config(nbar=10.0)
        t_of = {}
        for dw in (0.01, 0.0025):
            plan = stage2_plan(50.0, dw, cfg)
            t_of[dw] = plan.n_units * plan.tau
        assert t_of[0.0025] / t_of[0.01] == pytest.approx(2.0, rel=0.05)

    def test_plans_floor_n_at_two(self):
        # N = 1 would put omega*tau = 4*pi on a zero of |alpha_1|, where
        # the stage-(i) shot count overflows
        cfg = AdaptiveConfig(omega_true=1.0, omega0=1.0, delta_omega0=0.5,
                             lam=0.1, nbar=0.0, span_sigmas=1.9)
        plan = stage1_plan(1.0, 0.5, cfg)
        assert plan.n_units == 2 and plan.repetitions == 1
        assert plan.tau == pytest.approx(3 * np.pi, rel=1e-15)
        assert stage2_plan(1.0, 10.0, cfg).n_units == 2

    def test_plans_reject_bad_width(self):
        cfg = reference_config(nbar=10.0)
        with pytest.raises(ValueError):
            stage1_plan(50.5, 0.0, cfg)
        with pytest.raises(ValueError):
            stage2_plan(50.0, -0.1, cfg)


class TestStageTransition:
    def test_reference_decisions(self):
        assert not stage_transition(0.5, lambda_tilde_cpmg(0.1, 10.0))
        assert stage_transition(0.5, lambda_tilde_cpmg(0.1, 1000.0))

    def test_equality_stays_in_stage_one(self):
        assert not stage_transition(0.1459, 0.1459)

    def test_strictly_below_switches(self):
        assert stage_transition(0.14589, 0.14590)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            stage_transition(0.0, 0.1)


class TestConfigValidation:
    def test_reference_config_valid(self):
        reference_config(nbar=10.0)
        assert protocol.KAPPA == 2.0 and protocol.C == 0.1

    def test_frozen(self):
        cfg = reference_config(nbar=10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.omega_true = 60.0

    def test_problems_collected_into_one_error(self):
        with pytest.raises(ValueError) as err:
            AdaptiveConfig(omega_true=-1.0, omega0=50.5, delta_omega0=0.5,
                           lam=0.1, nbar=-2.0, n_points=32)
        msg = str(err.value)
        assert "omega_true" in msg and "nbar" in msg and "n_points" in msg

    def test_prior_width_must_sit_below_center(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(omega_true=50.0, omega0=0.4, delta_omega0=0.5,
                           lam=0.1, nbar=10.0)

    def test_prior_grid_must_stay_above_zero(self):
        # omega0 - 8*delta_omega0 = -3: the grid would reach omega <= 0
        with pytest.raises(ValueError, match="prior grid must stay above omega = 0"):
            AdaptiveConfig(omega_true=1.0, omega0=1.0, delta_omega0=0.5,
                           lam=0.1, nbar=0.0)
        cfg = AdaptiveConfig(omega_true=1.0, omega0=1.0, delta_omega0=0.5,
                             lam=0.1, nbar=0.0, span_sigmas=1.9)
        assert cfg.omega0 - cfg.span_sigmas * cfg.delta_omega0 > 0

    @pytest.mark.parametrize("span_sigmas", [1e-17, 1e-300])
    def test_prior_grid_must_have_width(self, span_sigmas):
        # the grid's ends round to one float64, which the prior's Posterior would reject
        with pytest.raises(ValueError, match="^span_sigmas leaves the prior grid no width"):
            AdaptiveConfig(omega_true=50.0, omega0=50.5, delta_omega0=0.5, lam=0.1,
                           nbar=10.0, span_sigmas=span_sigmas)

    def test_prior_grid_must_hold_distinct_nodes(self):
        # 16e-14 wide about 50: about 23 distinct float64 nodes for 4096
        omega0 = 50 + 1e-14
        with pytest.raises(ValueError, match=(
                "^prior grid beyond float64 resolution: the window "
                rf"{omega0} \+- 8e-14 holds fewer than 4096 distinct nodes$")):
            AdaptiveConfig(omega_true=50.0, omega0=omega0, delta_omega0=1e-14, lam=0.1,
                           nbar=10.0, max_steps=20)
        # 64 nodes fit in the same window
        AdaptiveConfig(omega_true=50.0, omega0=omega0, delta_omega0=1e-14, lam=0.1,
                       nbar=10.0, max_steps=20, n_points=64, span_sigmas=1e3)

    @pytest.mark.parametrize("field,value", [
        ("lam", np.inf), ("nbar", np.nan), ("omega_true", np.nan), ("seed", np.inf),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            dataclasses.replace(reference_config(nbar=10.0), **{field: value})

    def test_coupling_must_keep_the_contrast_exponent_finite(self):
        # the bound at nbar 10 on the reference prior, whose lowest node is 46.5
        limit = math.sqrt(sys.float_info.max / 42.0) * 46.5 / (4 * protocol.PERIODS_BOUND)
        cfg = reference_config(nbar=10.0, max_steps=30)
        for lam in (1.01 * limit, 1.0e200):
            with pytest.raises(ValueError, match="^" + re.escape(
                    "lam must keep the contrast exponent 2*(2*nbar+1)*alpha**2 finite for "
                    f"|alpha| <= 4*N*lam/omega: need lam below about {limit:.3g} at nbar 10.0, "
                    f"got {lam}") + "$"):
                dataclasses.replace(cfg, lam=lam)
        # just inside, the loop leaks no overflow warning (the suite fails on one)
        traj = run_adaptive(dataclasses.replace(cfg, lam=0.99 * limit))
        assert not traj.aborted and len(traj.records) == 30

    @pytest.mark.parametrize("span_sigmas,limit", [
        # at span_sigmas 8 the end nodes' (omega - omega0)**2 binds, at 1 2*delta_omega0**2
        (8.0, math.sqrt(sys.float_info.max) / 8.0),
        (1.0, math.sqrt(sys.float_info.max / 2.0)),
    ])
    def test_prior_exponent_must_stay_finite(self, span_sigmas, limit):
        def cfg(delta_omega0):
            # omega about 1e156 at the limit, 6e160 at 1e158
            return AdaptiveConfig(omega_true=600 * delta_omega0, omega0=606 * delta_omega0,
                                  delta_omega0=delta_omega0, lam=0.1, nbar=10.0,
                                  span_sigmas=span_sigmas, max_steps=5)
        for delta_omega0 in (limit * (1 + 1e-12), 1e158):
            with pytest.raises(ValueError, match="^" + re.escape(
                    "delta_omega0 must keep the prior's exponent finite: need "
                    "2*delta_omega0**2 and every prior node's (omega - omega0)**2 finite, "
                    f"delta_omega0 below about {limit:.3g} at span_sigmas {span_sigmas}, "
                    f"got {delta_omega0}") + "$"):
                cfg(delta_omega0)
        # just inside, the prior builds with no overflow warning (the suite fails on one)
        inside = cfg(limit * (1 - 1e-12))
        prior = gaussian_prior(inside.omega0, inside.delta_omega0, inside.span_sigmas,
                               inside.n_points)
        # and the ends sit span_sigmas widths out, as on any other scale
        ends = prior.weights[[0, -1]] / prior.weights.max()
        assert ends == pytest.approx(math.exp(-span_sigmas**2 / 2), rel=1e-6)

    # every coupling and occupation the suite runs
    @pytest.mark.parametrize("lam", [0.01, 0.03, 0.1, 0.2, 0.37])
    @pytest.mark.parametrize("nbar", [0.0, 10.0, 1000.0])
    def test_suite_couplings_are_inside_the_bound(self, lam, nbar):
        assert dataclasses.replace(reference_config(nbar=nbar), lam=lam).lam == lam

    def test_seed_range(self):
        # any nonnegative integer seeds numpy's generator
        assert dataclasses.replace(reference_config(nbar=10.0), seed=2**64).seed == 2**64
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            dataclasses.replace(reference_config(nbar=10.0), seed=-1)


class TestRunLoop:
    @pytest.fixture(scope="class")
    @staticmethod
    def short_run():
        return run_adaptive(reference_config(nbar=10.0, max_steps=120))

    def test_thermal_start_skips_stage_one(self):
        traj = run_adaptive(reference_config(nbar=1000.0, max_steps=5))
        assert all(r.plan.stage == STAGE_II for r in traj.records)

    def test_wide_prior_runs_to_the_true_frequency(self):
        cfg = AdaptiveConfig(omega_true=1.0, omega0=1.0, delta_omega0=0.5,
                             lam=0.1, nbar=0.0, span_sigmas=1.9, max_steps=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_adaptive(cfg)
        assert not traj.aborted and len(traj.records) == 60
        est = traj.final_estimate
        assert est.delta_omega < 1e-3
        assert abs(est.omega_hat - 1.0) < 3 * est.delta_omega

    def test_cold_start_begins_in_stage_one(self, short_run):
        assert short_run.records[0].plan.stage == STAGE_I

    def test_stage_ordering_monotone(self, short_run):
        stages = [r.plan.stage for r in short_run.records]
        assert stages == sorted(stages)

    def test_outcome_accounting(self, short_run):
        for r in short_run.records:
            assert r.n_plus + r.n_minus == r.plan.repetitions
            assert r.n_plus >= 0 and r.n_minus >= 0

    def test_cumulative_time_increasing(self, short_run):
        times = [r.cumulative_time for r in short_run.records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_time_accounting_identity(self, short_run):
        prev = 0.0
        for r in short_run.records:
            step_time = r.plan.repetitions * r.plan.n_units * r.plan.tau
            expected = prev + step_time + r.probe_time
            assert r.cumulative_time == pytest.approx(expected, rel=1e-12)
            if r.probe_time == 0.0:
                assert r.cumulative_time == pytest.approx(
                    prev + step_time, rel=1e-12)
            prev = r.cumulative_time

    def test_uncertainty_contracts_substantially(self, short_run):
        assert short_run.records[-1].delta_omega_k < 0.01 * 0.5
        assert not short_run.aborted

    def test_late_fringe_lock(self, short_run):
        tail = [r.zeta_k for r in short_run.records[-20:]]
        assert 0.9 <= np.mean(tail) <= 1.1

    def test_determinism_bit_identical(self):
        cfg = reference_config(nbar=10.0, max_steps=40)
        a = run_adaptive(cfg)
        b = run_adaptive(cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb
        assert a.final_estimate == b.final_estimate

    def test_forced_outcomes_keep_mass_finite(self):
        cfg = reference_config(nbar=10.0, max_steps=30)
        traj = run_adaptive(cfg, rng=ForcedPlus())
        assert not traj.aborted
        assert isinstance(traj.final_posterior, Posterior)
        w = traj.final_posterior.weights
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_probe_latch(self, monkeypatch):
        # far masses in call order: 40 probe blocks hit the cap with the
        # latch armed (step 0); the latch carries into step 1, whose mass
        # sits between PROBE_OFF and PROBE_ON, and one block later drops
        # below PROBE_OFF; the same in-between mass does not arm step 2
        masses = iter([1e-3] * 40 + [1e-12] + [1e-8, 1e-12] + [1e-8] + [0.0])
        calls = {"_readout": 0, "_update": 0}
        real_readout, real_update = protocol._readout, protocol._update

        def readout(*args):
            # the loop's estimate and width, with the far mass and rival set here
            calls["_readout"] += 1
            w_hat, dw_hat, _, _ = real_readout(*args)
            return w_hat, dw_hat, next(masses), w_hat + 0.05

        def update(*args):
            calls["_update"] += 1
            return real_update(*args)

        monkeypatch.setattr(protocol, "_readout", readout)
        monkeypatch.setattr(protocol, "_update", update)
        traj = run_adaptive(reference_config(nbar=10.0, max_steps=4))
        assert not traj.aborted
        assert calls == {"_readout": 45, "_update": 45}
        assert [r.probe_time > 0 for r in traj.records] == [True, True, False, False]

    @pytest.mark.parametrize("nbar", [10.0, 1000.0])
    def test_reference_runs_raise_no_warning(self, nbar):
        # the estimation engine warns on degenerate and resolution-limited
        # posteriors; a healthy run must never reach either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_adaptive(reference_config(nbar=nbar, max_steps=60))
        assert len(traj.records) == 60 and not traj.aborted

    def test_max_steps_honored(self):
        traj = run_adaptive(reference_config(nbar=10.0, max_steps=17))
        assert len(traj.records) == 17
        assert not traj.aborted and traj.aborted == bool(traj.diagnostic)

    def test_grid_beyond_float64_aborts(self):
        # stage (ii) narrows the width about 4% a step: near step 510 a
        # regrid window of 4096 nodes is narrower than 4096 ulp(50)
        cfg = reference_config(nbar=10.0, max_steps=800, seed=100000)
        traj = run_adaptive(cfg)
        assert traj.aborted and traj.aborted == bool(traj.diagnostic)
        assert traj.diagnostic.startswith(f"grid beyond float64 resolution at step "
                                          f"{len(traj.records) - 1}: ")
        assert "fewer than 4096 distinct nodes" in traj.diagnostic
        assert 250 < len(traj.records) < 800
        # the run keeps the last grid that held distinct nodes
        assert (np.diff(traj.final_posterior.grid) > 0).all()
        assert traj.final_estimate.omega_hat == traj.records[-1].omega_k

    def test_window_reaching_omega_zero_aborts(self):
        # an estimate near the prior's lower end regrids about 0.141 with
        # half-width 0.792, which the kernel's omega > 0 cannot take
        cfg = AdaptiveConfig(omega_true=0.06, omega0=1.0, delta_omega0=0.12, lam=0.1,
                             nbar=10.0, span_sigmas=7.5)
        traj = run_adaptive(cfg)
        assert traj.aborted and traj.aborted == bool(traj.diagnostic)
        k = len(traj.records) - 1
        assert re.fullmatch(rf"grid reaches omega <= 0 at step {k}: the window \S+ \+- \S+ "
                            r"starts at -\S+", traj.diagnostic)
        # the run keeps the last grid that lay above 0
        assert traj.final_posterior.grid[0] > 0
        assert traj.final_estimate.omega_hat == traj.records[-1].omega_k

    def test_shot_count_beyond_int64_aborts(self):
        # at lambda 1e-11 on the reference prior, stage (i)'s first plan asks
        # for about 3.5e19 shots, more than rng.binomial takes
        cfg = dataclasses.replace(reference_config(nbar=0.0, max_steps=5), lam=1e-11)
        traj = run_adaptive(cfg)
        assert traj.aborted and traj.aborted == bool(traj.diagnostic) and traj.records == ()
        got = re.fullmatch(r"shot count beyond int64 at step 0: the stage 1 plan asks for "
                           r"nu=(\d+) shots of N=\d+, tau=\S+", traj.diagnostic)
        assert got and int(got.group(1)) > protocol.MAX_SHOTS == np.iinfo(np.int64).max
        assert traj.final_estimate == Estimate(cfg.omega0, cfg.delta_omega0)

    def test_empty_width_window_aborts(self, monkeypatch):
        # held in stage (i), the evolution time outgrows the grid until no
        # node within pi/T of the estimate keeps any weight; rep 1 of six
        # at nbar 10 gets there, and with it four of the six
        monkeypatch.setattr(protocol, "stage_transition", lambda dw, lt: False)
        cfg = reference_config(nbar=10.0, seed=100000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # resolution-limited widths
            traj = run_adaptive(dataclasses.replace(cfg, seed=100001))
            agg = run_repetitions(cfg, 6, n_workers=1)
        assert traj.aborted and traj.aborted == bool(traj.diagnostic)
        k = len(traj.records)
        assert 0 < k < cfg.max_steps
        assert traj.diagnostic.startswith(f"non-finite estimate at step {k}: omega=")
        assert ", dw=nan, width window pi/T=" in traj.diagnostic
        assert traj.diagnostic.endswith(f", grid spacing {traj.final_posterior.spacing}")
        post = traj.final_posterior
        assert np.all(np.isfinite(post.weights)) and np.all(post.weights >= 0.0)
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-9)
        last = traj.records[-1]
        assert traj.final_estimate == Estimate(last.omega_k, last.delta_omega_k)
        # the ensemble counts the aborted reps and averages the others
        assert [r for r, _ in agg.aborted] == [1, 2, 4, 5]
        assert agg.aborted[0][1] == traj.diagnostic
        assert len(agg.final_error) == 2


def bits(values):
    """Python ints as they are, floats as their exact hex."""
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestColumns:
    @pytest.fixture(scope="class")
    @staticmethod
    def runs():
        # a complete run through both stages, one that aborts at a regrid
        # after some steps, and one that aborts before its first step
        return {
            "complete": run_adaptive(reference_config(nbar=10.0, max_steps=60)),
            "aborted": run_adaptive(AdaptiveConfig(omega_true=0.06, omega0=1.0,
                                                   delta_omega0=0.12, lam=0.1, nbar=10.0,
                                                   span_sigmas=7.5)),
            "aborted at step 0": run_adaptive(dataclasses.replace(
                reference_config(nbar=0.0, max_steps=5), lam=1e-11)),
        }

    def test_layout(self, runs):
        complete, aborted, empty = runs.values()
        assert not complete.aborted and aborted.aborted and empty.aborted
        # the regrid abort at step k keeps steps 0 to k
        k = int(re.match(r"grid reaches omega <= 0 at step (\d+): ", aborted.diagnostic)[1])
        assert 0 < k < 200
        for traj, n_steps in ((complete, 60), (aborted, k + 1), (empty, 0)):
            assert tuple(traj.columns) == protocol.TRAJECTORY_COLUMNS
            for name, column in traj.columns.items():
                assert column.shape == (n_steps,), name
                assert column.dtype == (np.int64 if name in protocol.INT_COLUMNS
                                        else np.float64), name

    @pytest.mark.parametrize("run", ["complete", "aborted", "aborted at step 0"])
    def test_records_view_equals_the_columns(self, runs, run):
        traj = runs[run]
        recs = traj.records
        assert recs is traj.records  # built once
        c = traj.columns
        assert len(recs) == len(c["stage"])
        for name, field in (("stage", "stage"), ("n_units", "n_units"), ("tau", "tau"),
                            ("nu", "repetitions"), ("lambda_tilde_k", "lambda_tilde_k")):
            assert bits(getattr(r.plan, field) for r in recs) == bits(c[name].tolist()), name
        for name, field in (("n_plus", "n_plus"), ("n_minus", "n_minus"), ("omega_k", "omega_k"),
                            ("mean_delta_omega", "delta_omega_k"), ("mean_zeta", "zeta_k"),
                            ("mean_scaled_alpha", "scaled_alpha_k"),
                            ("mean_time", "cumulative_time"), ("probe_time", "probe_time")):
            assert bits(getattr(r, field) for r in recs) == bits(c[name].tolist()), name
        # Python scalars, not numpy ones
        for r in recs:
            assert type(r.plan.n_units) is int and type(r.n_plus) is int
            assert type(r.plan.tau) is float and type(r.omega_k) is float

    def test_the_loop_builds_no_step_objects(self, monkeypatch):
        made = []
        for name in ("StepPlan", "StepRecord"):
            monkeypatch.setattr(protocol, name, lambda *args, name=name, **kw: made.append(name))
        traj = run_adaptive(reference_config(nbar=10.0, max_steps=40))
        assert made == [] and len(traj.columns["stage"]) == 40


class TestPlanReplay:
    @pytest.mark.parametrize("nbar", [0.0, 10.0, 1000.0])
    def test_plan_functions_reproduce_the_plan_columns(self, nbar):
        # step k plans from step k-1's estimate and width (the prior's at
        # step 0) in its recorded stage
        cfg = reference_config(nbar=nbar, max_steps=80)
        c = run_adaptive(cfg).columns
        estimates = [(cfg.omega0, cfg.delta_omega0)] + list(zip(c["omega_k"].tolist(),
                                                                c["mean_delta_omega"].tolist()))
        plans = [(stage1_plan if stage == STAGE_I else stage2_plan)(w, dw, cfg)
                 for stage, (w, dw) in zip(c["stage"].tolist(), estimates)]
        # the cold runs start in stage (i), the hot one in stage (ii)
        assert c["stage"][0] == (STAGE_II if nbar == 1000.0 else STAGE_I)
        assert c["stage"][-1] == STAGE_II
        assert [p.stage for p in plans] == c["stage"].tolist()
        assert [p.n_units for p in plans] == c["n_units"].tolist()
        assert bits(p.tau for p in plans) == bits(c["tau"].tolist())
        assert [p.repetitions for p in plans] == c["nu"].tolist()
        assert bits(p.lambda_tilde_k for p in plans) == bits(c["lambda_tilde_k"].tolist())


def assert_same_decisions(monkeypatch, name, stand_in):
    """4 reps of the nbar-1000 reference scenario, run as they are and with
    protocol.<name> replaced by stand_in, make the same N, shot counts and
    probe steps, with estimates and widths within 1e-5 widths; the loop
    must call stand_in at least once a step."""
    cfgs = [reference_config(nbar=1000.0, seed=100000 + r) for r in range(4)]
    runs = [run_adaptive(cfg) for cfg in cfgs]
    calls = []

    def counted(*args):
        calls.append(1)
        return stand_in(*args)

    monkeypatch.setattr(protocol, name, counted)
    for cfg, a in zip(cfgs, runs):
        b = run_adaptive(cfg)
        assert not a.aborted and not b.aborted
        assert [(r.plan.n_units, r.n_plus, r.probe_time > 0) for r in a.records] == \
            [(r.plan.n_units, r.n_plus, r.probe_time > 0) for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert abs(ra.omega_k - rb.omega_k) <= 1e-5 * rb.delta_omega_k
            assert abs(ra.delta_omega_k - rb.delta_omega_k) <= 1e-5 * rb.delta_omega_k
    assert len(calls) >= sum(len(a.records) for a in runs)


class TestGridKernelInLoop:
    def test_same_decisions_as_pointwise_kernel(self, monkeypatch):
        # the loop's grid kernel against cpmg_displacement_abs on the same nodes
        def pointwise(scale, n_units, tau, omega_min, step, omega_last):
            nodes = np.append(omega_min + np.arange(len(scale) - 1) * step, omega_last)
            return cpmg_displacement_abs(Coupling(0.1), n_units, nodes, tau)

        assert_same_decisions(monkeypatch, "_grid_displacement", pointwise)

    def test_same_decisions_as_probability_update(self, monkeypatch):
        # the update on the signed contrast L against the update on
        # P+ = (1 + L)/2, clipped to [P_CLAMP, 1 - P_CLAMP] on both sides,
        # in log domain: the loop's batches are small enough for either;
        # both give unnormalized weights, which the loop scales
        def probability_update(w, contrast, n_plus, n_minus):
            p = np.clip((1.0 + contrast) / 2.0, P_CLAMP, 1.0 - P_CLAMP)
            with np.errstate(divide="ignore"):  # a zero weight stays 0
                lw = np.log(w)
            if n_plus:
                lw = lw + n_plus * np.log(p)
            if n_minus:
                lw = lw + n_minus * np.log1p(-p)
            return np.exp(lw - lw.max())

        assert_same_decisions(monkeypatch, "_update", probability_update)


class TestUpdatePrecondition:
    @pytest.mark.parametrize("nbar,lam", [(10.0, 0.1), (1000.0, 0.1), (0.0, 0.003)])
    @pytest.mark.filterwarnings("ignore:resolution-limited posterior:UserWarning")
    def test_loop_contrasts_lie_in_unit_interval(self, monkeypatch, nbar, lam):
        # the loop hands the thermal contrasts to _update without bayes_update's
        # range check and lower clamp: each lies in [0, 1], within the core's
        # precondition; at lam 0.003 and nbar 0 batches of more than 25 shots
        # take the log-domain branch
        update, seen = protocol._update, []

        def counted(w, c, n_plus, n_minus):
            seen.append((bool(np.all((c >= 0.0) & (c <= 1.0))), n_plus + n_minus))
            return update(w, c, n_plus, n_minus)

        monkeypatch.setattr(protocol, "_update", counted)
        traj = run_adaptive(dataclasses.replace(reference_config(nbar=nbar, max_steps=30),
                                                lam=lam))
        assert not traj.aborted and len(seen) >= 30
        assert all(inside for inside, _ in seen)
        if lam == 0.003:
            assert max(nu for _, nu in seen) > 25


class TestEquality:
    def test_equality_is_identity(self):
        # the fields hold arrays: == between two runs of one config is False,
        # and raises nothing, and a run equals itself; so for their posteriors
        cfg = reference_config(nbar=10.0, max_steps=10)
        a, b = run_adaptive(cfg), run_adaptive(cfg)
        for x, y in ((a, b), (a.final_posterior, b.final_posterior)):
            assert (x == y) is False and (x != y) is True
            assert x == x and hash(x) == hash(x)


class TestEnsembleInvariants:
    def test_mean_uncertainty_contracts_after_settling(self, ensemble_nbar10):
        # single steps may widen the posterior on surprising data, but
        # only slightly and rarely; the 5-step trend is strictly downward
        dw = ensemble_nbar10.steps["mean_delta_omega"][5:]
        ratios = dw[1:] / dw[:-1]
        assert np.max(ratios) < 1.08
        assert np.sum(ratios > 1.0) <= 0.1 * len(ratios)
        assert np.all(np.diff(dw[::5]) < 0)
        assert dw[-1] < 1e-4 * dw[0]
