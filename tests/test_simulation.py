import dataclasses
import hashlib
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from one_problem import dataset_fim, dataset_jacobian
from walk_reference import generate_trajectory as reference_walk

from range_rte import simulation
from range_rte.estimators import ESTIMATORS, assemble_qcqp
from range_rte.fisher import det_fim_geometric, fim
from range_rte.geometry import LeverArm, Transform4DoF, quat_to_matrix, wrap_angle, yaw_quat
from range_rte.measurement import SIGMA_R_FLOOR, true_range
from range_rte.simulation import (
    LARGEST_LENGTH,
    LARGEST_LEVER_ARM,
    LARGEST_NOISE,
    SCENARIO_KINDS,
    DriftConfig,
    ErrorStats,
    ScenarioConfig,
    _drift_truth_series,
    drift_scenario,
    generate_trajectory,
    monte_carlo_run,
    sample_ground_truth,
    singular_scenario,
    synthesize_measurements,
    trial_data,
    trial_rng,
)


def synthesize_one(T, traj_a, traj_b, cfg, rng):
    """`synthesize_measurements` on one trial: a stack of one."""
    one = [(p[None], yaw[None]) for p, yaw in (traj_a, traj_b)]
    return synthesize_measurements((T.t[None], np.array([T.theta])), *one, cfg, [rng])


class TestGroundTruth:
    def test_norm_exact(self):
        rng = trial_rng(0, 0)
        for d0 in (0.5, 3.0, 50.0):
            T = sample_ground_truth(d0, rng)
            assert np.linalg.norm(T.t) == pytest.approx(d0, abs=1e-12)
        for d0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="d0 must be positive"):
                sample_ground_truth(d0, rng)

    def test_direction_uniformity(self):
        rng = trial_rng(1, 0)
        pts = np.array([sample_ground_truth(1.0, rng).t for _ in range(100_000)])
        assert np.all(np.abs(pts.mean(axis=0)) < 0.02)

    def test_heading_uniform_chi2(self):
        rng = trial_rng(2, 0)
        thetas = np.array([sample_ground_truth(1.0, rng).theta for _ in range(100_000)])
        counts, _ = np.histogram(thetas, bins=20, range=(-math.pi, math.pi))
        expected = len(thetas) / 20
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < scipy_stats.chi2.ppf(0.99, df=19)


class TestTrajectory:
    def test_bounds(self):
        rng = trial_rng(3, 0)
        positions, yaws = generate_trajectory(1.0, 20, rng)
        assert positions.shape == (20, 3) and yaws.shape == (20,)
        assert np.linalg.norm(positions, axis=1).max() <= 1.0 + 1e-12

    def test_degenerate_radius(self):
        rng = trial_rng(4, 0)
        positions, _ = generate_trajectory(1e-15, 10, rng)
        assert np.linalg.norm(positions, axis=1).max() <= 1e-14
        # but a walk needs a ball of positive radius and at least one pose
        for D, n_poses, message in ((0.0, 10, "D must be positive"), (-1.0, 10, "D must be positive"),
                                    (1.0, 0, "n_poses must be >= 1")):
            with pytest.raises(ValueError, match=message):
                generate_trajectory(D, n_poses, rng)

    def test_deterministic_given_seed(self):
        p1, y1 = generate_trajectory(2.0, 15, trial_rng(5, 3))
        p2, y2 = generate_trajectory(2.0, 15, trial_rng(5, 3))
        assert np.array_equal(p1, p2) and np.array_equal(y1, y2)

    def test_timestamps_uniform(self):
        # sample i of a trajectory is taken at i seconds
        _, ds = trial_data(ScenarioConfig(n_poses=8, trials=1, seed=6), 0)
        assert ds.t.tolist() == [float(i) for i in range(8)]


class TestWalkDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        D=st.floats(-12.0, 6.0).map(lambda e: 10.0**e),
        n_poses=st.integers(1, 30),
    )
    @example(seed=14, D=1e-9, n_poses=12)  # the D of TestStackedCell's failing cell
    @example(seed=0, D=1e-12, n_poses=30)
    @example(seed=5, D=1e6, n_poses=30)  # a step past 2 D: a reflection fraction is drawn
    def test_walk_equals_reference_bit_for_bit(self, seed, D, n_poses):
        rng, ref = trial_rng(seed, 0), trial_rng(seed, 0)
        positions, yaws = generate_trajectory(D, n_poses, rng)
        want_positions, want_yaws = reference_walk(D, n_poses, ref, simulation.STEP_SCALE)
        assert positions.tobytes() == want_positions.tobytes() and yaws.tobytes() == want_yaws.tobytes()
        assert rng.random() == ref.random()  # both consumed the same draws

    def test_heading_draw_equals_uniform(self):
        # -pi + 2 pi u rounds twice, as rng.uniform(-pi, pi) does for the same
        # u; a numpy whose uniform contracts into one fused multiply-add would
        # fail here, rather than shift the walks and the benchmark's inputs
        uniform, heading = trial_rng(0, 0), trial_rng(0, 0)
        want = uniform.uniform(-math.pi, math.pi, 10**5)
        got = np.array([simulation._heading(heading) for _ in range(10**5)])
        assert got.tobytes() == want.tobytes()
        assert uniform.random() == heading.random()


def reference_trajectory(D, n, rng, step_scale=0.5):
    """Per-step walk built pose by pose, as (position, quaternion) pairs:
    the draw order the arrays keep."""
    p, poses = np.zeros(3), []
    for i in range(n):
        poses.append((p.copy(), yaw_quat(rng.uniform(-math.pi, math.pi))))
        p = p + rng.standard_normal(3) * (step_scale * D)
        r = np.linalg.norm(p)
        if r > D:
            p = p * (2.0 * D - r) / r if r < 2.0 * D else p * (D / r) * rng.uniform(0.0, 1.0)
    return poses


class TestArraysEqualPerStepReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_trajectory_and_antenna_positions(self, seed):
        arms = (LeverArm([-0.02, 0.1, -0.05]), LeverArm([-0.05, 0.15, -0.15]))
        cfg = ScenarioConfig(n_poses=40, sigma_r=0.1, sigma_o=0.01, trials=1, seed=seed, lever_arms=arms)
        T, ds = trial_data(cfg, 0)
        rng = trial_rng(seed, 0)
        T_ref = sample_ground_truth(cfg.d0, rng)
        assert np.array_equal(T_ref.t, T.t) and T_ref.theta == T.theta
        ta, tb = (reference_trajectory(cfg.D, cfg.n_poses, rng) for _ in range(2))
        pa = np.array([p + quat_to_matrix(q) @ arms[0].r for p, q in ta])
        pb = np.array([p + quat_to_matrix(q) @ arms[1].r for p, q in tb])
        d = np.maximum(true_range(T, pa, pb) + cfg.sigma_r * rng.standard_normal(len(pa)), 1e-9)
        assert np.array_equal(ds.d, d)
        assert np.array_equal(ds.pa, pa + cfg.sigma_o * rng.standard_normal(pa.shape))
        assert np.array_equal(ds.pb, pb + cfg.sigma_o * rng.standard_normal(pb.shape))

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_drift_truth_series(self, seed):
        cfg = DriftConfig(d0=15.0, seed=seed, sigma_t=0.1, sigma_theta=0.1)
        n, dt = 500, 0.04
        T0, t, theta = _drift_truth_series(cfg, n, dt, trial_rng(seed, 0))
        rng = trial_rng(seed, 0)
        T_ref = sample_ground_truth(cfg.d0, rng)
        assert np.array_equal(T_ref.t, T0.t) and T_ref.theta == T0.theta
        # both walks summed step by step; the heading is wrapped once, after the sum
        ref_t, ref_theta, tk, th = [], [], T0.t.copy(), T0.theta
        for _ in range(n):
            ref_t.append(tk)
            ref_theta.append(float(wrap_angle(th)))
            tk = tk + 0.1 * math.sqrt(dt) * rng.standard_normal(3)
            th = th + 0.1 * math.sqrt(dt) * rng.standard_normal()
        assert np.array_equal(t, ref_t) and np.array_equal(theta, ref_theta)


class TestSynthesize:
    def test_zero_noise_exact(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=15, sigma_r=0.0, sigma_o=0.0, trials=1, seed=7)
        rng = trial_rng(7, 0)
        T = sample_ground_truth(cfg.d0, rng)
        ta = generate_trajectory(cfg.D, cfg.n_poses, rng)
        tb = generate_trajectory(cfg.D, cfg.n_poses, rng)
        one = synthesize_one(T, ta, tb, cfg, rng)
        assert np.allclose(one.d[0], true_range(T, one.pa[0], one.pb[0]), atol=1e-14)

    def test_range_noise_level(self):
        cfg = ScenarioConfig(d0=5.0, D=0.001, n_poses=10_000, sigma_r=0.1, sigma_o=0.0, trials=1, seed=8)
        rng = trial_rng(8, 0)
        T = sample_ground_truth(cfg.d0, rng)
        ta = generate_trajectory(cfg.D, cfg.n_poses, rng)
        tb = generate_trajectory(cfg.D, cfg.n_poses, rng)
        one = synthesize_one(T, ta, tb, cfg, rng)
        resid = one.d[0] - true_range(T, one.pa[0], one.pb[0])
        assert np.std(resid) == pytest.approx(0.1, rel=0.03)

    def test_lever_arm_range_bound(self):
        from range_rte.geometry import LeverArm

        arms = (LeverArm([-0.02, 0.1, -0.05]), LeverArm([-0.05, 0.15, -0.15]))
        cfg0 = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.0, sigma_o=0.0, trials=1, seed=9)
        cfg1 = ScenarioConfig(
            d0=3.0, D=1.0, n_poses=20, sigma_r=0.0, sigma_o=0.0, trials=1, seed=9, lever_arms=arms
        )
        rng0, rng1 = trial_rng(9, 0), trial_rng(9, 0)
        T = sample_ground_truth(3.0, rng0)
        ta = generate_trajectory(1.0, 20, rng0)
        tb = generate_trajectory(1.0, 20, rng0)
        _ = sample_ground_truth(3.0, rng1)  # keep streams aligned
        ta1 = generate_trajectory(1.0, 20, rng1)
        tb1 = generate_trajectory(1.0, 20, rng1)
        d_plain = synthesize_one(T, ta, tb, cfg0, rng0).d
        d_armed = synthesize_one(T, ta1, tb1, cfg1, rng1).d
        bound = 2 * (np.linalg.norm(arms[0].r) + np.linalg.norm(arms[1].r))
        assert np.all(np.abs(d_armed - d_plain) <= bound)

    def test_d0_is_first_range(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=10, sigma_r=0.1, sigma_o=0.0, trials=1, seed=10)
        T, ds = trial_data(cfg, 0)
        assert ds.d0 == ds.d[0]

    def test_no_d0_when_antennas_start_off_origin(self):
        # with a lever arm the first range is ||t + C pb0 - pa0||, not ||t||
        from range_rte.geometry import LeverArm

        arms = (LeverArm([0.1, 0.0, 0.0]), LeverArm())
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=10, sigma_r=0.1, sigma_o=0.0, trials=1, seed=10, lever_arms=arms)
        assert trial_data(cfg, 0)[1].d0 is None
        rng = np.random.default_rng(10)
        _, ds = singular_scenario("planar_linear", ScenarioConfig(d0=3.0, D=1.0, n_poses=10, trials=1), rng)
        assert ds.d0 is None

    def test_frame_origins_in_some_trials_only_rejected(self):
        # the host's first position is off its origin in the second trial
        # only: the first range is d0 in one trial, so a stack of both fails
        cfg = ScenarioConfig(n_poses=5, trials=2, seed=4)
        target = np.zeros((2, 5, 3))
        target[:, 1:] = np.random.default_rng(4).normal(scale=0.3, size=(2, 4, 3))
        host, yaw = target[::-1].copy(), np.zeros((2, 5))
        host[1, 0] = (0.2, 0.0, 0.0)
        t, theta = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]]), np.array([0.5, -1.0])
        with pytest.raises(ValueError, match="frame origins in some trials only"):
            synthesize_measurements((t, theta), (host, yaw), (target, yaw), cfg, [trial_rng(4, i) for i in range(2)])
        for i, has_d0 in ((0, True), (1, False)):
            one = synthesize_measurements(
                (t[i : i + 1], theta[i : i + 1]), (host[i : i + 1], yaw[i : i + 1]), (target[i : i + 1], yaw[i : i + 1]),
                cfg, [trial_rng(4, i)],
            )
            assert (one.d0 is not None) == has_d0


class TestSingularScenarios:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_rank_deficient_noiseless(self, kind):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.0, sigma_o=0.0, trials=1, seed=0)
        for i in range(5):
            T, ds = singular_scenario(kind, cfg, trial_rng(20, i))
            assert dataset_fim(T, ds).rank[0] < 4

    def test_parallel_determinant_zero(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=12, sigma_r=0.1, sigma_o=0.0, trials=1, seed=0)
        T, ds = singular_scenario("parallel", cfg, trial_rng(21, 0))
        Tn, obs = trial_data(ScenarioConfig(d0=3.0, D=1.0, n_poses=12, sigma_r=0.1, sigma_o=0.0, trials=1, seed=3), 0)
        baseline = det_fim_geometric(Tn, obs)
        assert det_fim_geometric(T, ds) <= 1e-10 * baseline

    def test_static_target_phi_zero(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=12, sigma_r=0.1, sigma_o=0.0, trials=1, seed=0)
        T, ds = singular_scenario("static_target", cfg, trial_rng(22, 0))
        J = dataset_jacobian(T, ds)
        assert np.allclose(J[:, 3], 0.0, atol=1e-12)

    def test_static_host_rank(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.0, sigma_o=0.0, trials=1, seed=0)
        T, ds = singular_scenario("static_host", cfg, trial_rng(23, 0))
        assert dataset_fim(T, ds).rank[0] < 4

    def test_flags_persist_as_k_grows(self):
        # near-singular data: flagged parameters stay flagged as more
        # measurements arrive (no information accumulates for them)
        base = ScenarioConfig(d0=3.0, D=1.0, n_poses=60, sigma_r=0.1, sigma_o=1e-6, trials=1, seed=0)
        T, ds = singular_scenario("static_target", base, trial_rng(24, 0))
        stack = ds.stack()  # d0 is the first range, no extra row
        for k in (20, 40, 60):
            rep = fim(T.t[None], np.array([T.theta]), stack.pa[:, :k], stack.pb[:, :k], stack.sigma_r)
            assert rep.unobservable.tolist()[0][3] is True

    def test_unknown_kind_rejected(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=10, sigma_r=0.1, sigma_o=0.0, trials=1, seed=0)
        with pytest.raises(ValueError):
            singular_scenario("sideways", cfg, trial_rng(0, 0))


class TestFarField:
    def test_sin_alpha_max_bounded_by_ratio(self):
        # well separated agents: the largest angle between relative
        # position vectors obeys sin(alpha_max) ~ D / d0
        cfg = ScenarioConfig(d0=40.0, D=2.0, n_poses=30, sigma_r=0.0, sigma_o=0.0, trials=1, seed=11)
        T, ds = trial_data(cfg, 0)
        U = dataset_jacobian(T, ds)[:, :3]
        worst = 0.0
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                worst = max(worst, float(np.linalg.norm(np.cross(U[i], U[j]))))
        assert worst <= 2 * cfg.D / cfg.d0 + 0.02


class TestMonteCarlo:
    def test_noise_to_zero_errors_to_zero(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=15, sigma_r=0.0, sigma_o=0.0, trials=5, seed=12)
        stats = monte_carlo_run(cfg, estimator="qcqp")
        assert stats.rmse_t < 1e-6 and stats.rmse_theta < 1e-6
        assert not stats.failures

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noiseless_default_cell_recovered_to_solver_tolerance(self, seed):
        # the default cell (d0 = 3 m, D = 1 m, 20 poses) without noise: a
        # refinement that takes its cost from x' P0 x stalls at that form's
        # rounding floor, ~1e-8 m away from the truth
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.0, sigma_o=0.0, trials=10, seed=seed)
        stats = monte_carlo_run(cfg, estimator="qcqp")
        assert not stats.failures
        assert np.max(stats.e_t) <= 1e-9 and np.max(stats.e_theta) <= 1e-9

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator 'lm'"):
            monte_carlo_run(ScenarioConfig(trials=1), estimator="lm")

    def test_failures_recorded_not_dropped(self):
        # a static-host style degenerate cell: estimation may fail or err,
        # but every trial must be accounted for
        cfg = ScenarioConfig(d0=3.0, D=1e-9, n_poses=12, sigma_r=0.1, sigma_o=0.0, trials=3, seed=14)
        stats = monte_carlo_run(cfg, estimator="qcqp")
        assert len(stats.e_t) == 3

    @pytest.mark.parametrize("estimator", ["qcqp", "sdp"])
    def test_overflowing_lifted_cost_is_a_failed_trial(self, estimator):
        # d0 1e153 m: every range is admitted, but the weighted products of
        # its d^2 terms overflow P0; each trial fails on its own, without a
        # floating-point warning (pytest turns one into an error)
        cfg = ScenarioConfig(d0=1e153, sigma_r=0.01, trials=3, seed=1)
        stats = monte_carlo_run(cfg, estimator=estimator)
        assert stats.failures == tuple(f"trial {i}: DegenerateSolutionError: the lifted cost is not finite" for i in range(3))
        assert np.isnan(stats.e_t).all() and np.isnan(stats.e_theta).all()

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_solve_ms_is_the_registry_wall_time(self, monkeypatch, estimator):
        # a clock that steps 1 s per read: the registry reads it twice around
        # the point stage, and nothing else in the estimate reads it
        cfg = ScenarioConfig(n_poses=12, trials=4, seed=2)
        _, cell = trial_data(cfg, range(cfg.trials))
        _, dataset = trial_data(cfg, 0)
        clock = iter(range(10**6))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
        _, scalars, _ = ESTIMATORS[estimator](cell)
        assert scalars["wall_ms"].tolist() == [250.0] * 4
        assert ESTIMATORS[estimator](dataset).solver["wall_ms"] == 1000.0
        assert monte_carlo_run(cfg, estimator).solve_ms.tolist() == [250.0] * 4

    @pytest.mark.parametrize("estimator", ["qcqp", "sdp"])
    def test_far_cells_end_without_floating_point_warnings(self, estimator):
        # d0 1e80 to 1e150 m: P0 is finite, but the sdp unscaling, the
        # sweep's parabola test and its secular Newton step overflow. Each
        # trial has a finite error or fails on its own, with no warning
        for d0 in (1e80, 1e100, 1e120, 1e150):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                stats = monte_carlo_run(ScenarioConfig(d0=d0, sigma_r=0.01, trials=3, seed=1), estimator=estimator)
            failed = {int(m.split(":")[0].removeprefix("trial ")) for m in stats.failures}
            assert all("DegenerateSolutionError" in m for m in stats.failures), stats.failures
            assert all(np.isfinite(stats.e_t[i]) != (i in failed) for i in range(3)), (d0, stats.failures)

    def test_diverged_nls_refinement_is_a_failed_trial(self):
        # d0 1e153 m: every nls refinement from zero ends non_finite, which
        # leaves no estimate, so each trial fails and has no error
        cfg = ScenarioConfig(d0=1e153, sigma_r=0.01, trials=3, seed=1)
        stats = monte_carlo_run(cfg, estimator="nls")
        assert stats.failures == tuple(f"trial {i}: DegenerateSolutionError: the refinement diverged" for i in range(3))
        assert np.isnan(stats.e_t).all() and np.isnan(stats.e_theta).all()

    def test_error_stats_table_is_read_only_and_aggregates_ok_trials(self):
        nan = math.nan
        stats = ErrorStats([(3.0, 0.1, 4.0, 0.5, 1.0), (nan, nan, nan, 0.7, 2.0), (1.0, 0.3, 2.0, nan, 3.0)], ["x"])
        assert stats.table.shape == (3, 5)
        assert np.array_equal(stats.solve_ms, [1.0, 2.0, 3.0])
        assert stats.mse_t == pytest.approx(5.0) and stats.rmse_t == pytest.approx(math.sqrt(5.0))
        assert stats.mse_theta == pytest.approx(0.05)
        assert stats.crlb_t_mean == pytest.approx(3.0) and stats.crlb_theta_mean == pytest.approx(0.6)
        assert stats.failures == ("x",)
        with pytest.raises(ValueError):
            stats.e_t[0] = 0.0
        with pytest.raises(AttributeError):
            stats.extra = 1
        all_failed = ErrorStats([(nan, nan, nan, nan, 1.0)])
        assert math.isnan(all_failed.rmse_t) and math.isnan(all_failed.crlb_t_mean)

    def test_mse_respects_bound_statistically(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=40, sigma_r=0.1, sigma_o=0.001, trials=40, seed=15)
        stats = monte_carlo_run(cfg, estimator="qcqp")
        assert stats.mse_theta >= stats.crlb_theta_mean * (1 - 0.2)
        assert stats.mse_t >= stats.crlb_t_mean * (1 - 0.2)


def reference_cell(cfg, estimator):
    """Columns e_t..crlb_theta and the failure messages of a cell, trial by
    trial: the estimator on each trial alone and the FIM at its truth."""
    rows, failures = [], []
    for i in range(cfg.trials):
        T, ds = simulation.trial_data(cfg, i)
        bound = dataset_fim(T, ds)
        try:
            T_hat = ESTIMATORS[estimator](ds).theta_hat
            errs = float(np.linalg.norm(T_hat.t - T.t)), abs(float(wrap_angle(T_hat.theta - T.theta)))
        except Exception as exc:  # noqa: BLE001 - the loop records failures as monte_carlo_run does
            errs = math.nan, math.nan
            failures.append(f"trial {i}: {type(exc).__name__}: {exc}")
        rows.append((*errs, bound.crlb_t[0], bound.crlb_theta[0]))
    return np.array(rows, dtype=float), tuple(failures)


def spoil_trials(monkeypatch):
    """Ranges of trial 1 scaled by 1e153 (P0 is not finite) and of trial 2
    by 1e140 (no finite refinement start), d0 with them:
    two failing trials. The seam is the cell arrays, which `trial_data`
    makes for a range of trials; a single trial is row 0 of its own range,
    so the per-trial reference loop sees the same spoilt trials."""
    trial_data = simulation.trial_data

    def spoilt(cfg, trials):
        if isinstance(trials, int):
            return trial_data(cfg, trials)
        truth, cell = trial_data(cfg, trials)
        scale = np.array([{1: 1e153, 2: 1e140}.get(trial, 1.0) for trial in trials])
        d0 = None if cell.d0 is None else cell.d0 * scale
        return truth, dataclasses.replace(cell, d=cell.d * scale[:, None], d0=d0)

    monkeypatch.setattr(simulation, "trial_data", spoilt)


class TestStackedCell:
    """`monte_carlo_run` solves the `qcqp` and `sdp` trials of a cell in
    one stacked pass; each trial must come out as its estimator on it alone."""

    CELLS = {
        "default": {},
        "d0 20 m": {"d0": 20.0},
        "n 8": {"n_poses": 8},
        "lever arms": {"lever_arms": (LeverArm([-0.02, 0.1, -0.05]), LeverArm([-0.05, 0.15, -0.15]))},  # no d0
        "failing": {"D": 1e-9, "n_poses": 12, "sigma_o": 0.0},  # a static host, and two spoilt trials
    }

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("estimator,trials", [("qcqp", 12), ("sdp", 6)])
    def test_cell_equals_per_trial_loop(self, estimator, trials, cell, monkeypatch):
        cfg = ScenarioConfig(**self.CELLS[cell], trials=trials, seed=14)
        if cell == "failing":
            spoil_trials(monkeypatch)
        with np.errstate(all="ignore"):
            want, want_failures = reference_cell(cfg, estimator)
            stats = monte_carlo_run(cfg, estimator)
        assert stats.table[:, :4].tobytes() == want.tobytes()
        assert stats.failures == want_failures
        assert len(want_failures) == (2 if cell == "failing" else 0)
        assert np.isfinite(stats.solve_ms).all()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d0=st.floats(1.0, 50.0),
        n=st.integers(8, 30),
        sigma_r=st.floats(0.01, 0.5),
        arms=st.booleans(),
        trials=st.integers(1, 6),
    )
    def test_nls_cell_equals_per_trial_loop(self, seed, d0, n, sigma_r, arms, trials):
        # one lockstep refinement of every trial from zero: each trial gets
        # the estimate and solver scalars of `nls` on its dataset alone
        lever_arms = self.CELLS["lever arms"]["lever_arms"] if arms else (LeverArm(), LeverArm())
        cfg = ScenarioConfig(d0=d0, n_poses=n, sigma_r=sigma_r, lever_arms=lever_arms, trials=trials, seed=seed)
        want, want_failures = reference_cell(cfg, "nls")
        stats = monte_carlo_run(cfg, "nls")
        assert stats.table[:, :4].tobytes() == want.tobytes()
        assert stats.failures == want_failures == ()
        estimates, scalars, errors = ESTIMATORS["nls"](trial_data(cfg, range(trials))[1])
        assert not errors
        for i in range(trials):
            ref = ESTIMATORS["nls"](trial_data(cfg, i)[1])
            assert estimates[i].tobytes() == ref.theta_hat.as_vector().tobytes(), i
            solver = {"method": "nls", **{name: values.tolist()[i] for name, values in scalars.items()}}
            assert {**solver, "wall_ms": 0} == {**ref.solver, "wall_ms": 0}, i


@pytest.mark.parametrize(
    "cell",
    [
        {},
        {"lever_arms": (LeverArm([-0.02, 0.1, -0.05]), LeverArm([-0.05, 0.15, -0.15]))},
        {"sigma_r": 0.0},
        {"sigma_o": 0.0},
        {"sigma_r": 0.0, "sigma_o": 0.0, "lever_arms": (LeverArm([0.1, 0.0, 0.0]), LeverArm())},
    ],
)
def test_cell_rows_equal_single_trials(cell):
    # the cell arrays are made in one batch; row i must be trial i made alone
    cfg = ScenarioConfig(**cell, n_poses=9, trials=7, seed=21)
    (t, theta), stack = trial_data(cfg, range(cfg.trials))
    assert (stack.d0 is not None) == ("lever_arms" not in cell)
    for i in range(cfg.trials):
        T, ds = trial_data(cfg, i)
        assert T.t.tobytes() == t[i].tobytes() and T.theta == theta[i]
        assert ds.t.tobytes() == np.arange(float(cfg.n_poses)).tobytes() and ds.sigma_r == stack.sigma_r
        for got, want in ((stack.d[i], ds.d), (stack.pa[i], ds.pa), (stack.pb[i], ds.pb)):
            assert got.tobytes() == want.tobytes()
        assert ds.d0 == (ds.d[0] if stack.d0 is not None else None)
        assert stack.d0 is None or stack.d0[i] == ds.d[0]


# float32 digests of trial_data: (seed, trial, cell) -> first 16 hex digits
TRIAL_DIGESTS = {
    (11, 0, "default"): "591a9c184f04f736",
    (11, 99, "default"): "935069418dd01150",
    (3, 7, "d0 20 m"): "e6d87b8ffa78ce9b",
    (5, 2, "n 8, sigma_r 0.5 m, sigma_o 1 cm"): "6e73baffd6c8641e",
    (1, 4, "D 0.3 m, lever arms"): "6a7e7c3f4f12df6b",
}
DIGEST_CELLS = {
    "default": {},
    "d0 20 m": {"d0": 20.0},
    "n 8, sigma_r 0.5 m, sigma_o 1 cm": {"n_poses": 8, "sigma_r": 0.5, "sigma_o": 0.01},
    "D 0.3 m, lever arms": {"D": 0.3, "lever_arms": (LeverArm([-0.02, 0.1, -0.05]), LeverArm([-0.05, 0.15, -0.15]))},
}


def trial_digest(seed, trial, cell):
    T, ds = trial_data(ScenarioConfig(**DIGEST_CELLS[cell], trials=trial + 1, seed=seed), trial)
    h = hashlib.sha256()
    for a in (T.t, [T.theta], ds.d, ds.pa, ds.pb):
        h.update(np.asarray(a, dtype=np.float32).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("key", TRIAL_DIGESTS)
def test_trial_data_pinned(key):
    # the Monte-Carlo inputs of the benchmark and of the paper tables: a
    # change of the draws or of their order changes these digests. They
    # hash float32 roundings, so that a last-bit difference of another
    # CPU's BLAS kernels in the float64 values almost never fails them
    assert trial_digest(*key) == TRIAL_DIGESTS[key]


# float32 digests of P0 and B of assemble_qcqp on a trial_data dataset with
# d0 as its first range, off it by 5 cm or absent: (seed, trial, cell, d0)
# -> first 16 hex digits. A change of the rows a problem fits fails them
PROBLEM_DIGESTS = {
    (11, 0, "default", "first"): "97155a229287403e",
    (3, 7, "d0 20 m", "off"): "513a1863d4be32fc",
    (5, 2, "n 8, sigma_r 0.5 m, sigma_o 1 cm", "absent"): "5dfae6c1d38cb1ac",
    (1, 4, "D 0.3 m, lever arms", "off"): "0cdd4fad66ad9e7b",
}


@pytest.mark.parametrize("key", PROBLEM_DIGESTS)
def test_assembled_problem_pinned(key):
    seed, trial, cell, variant = key
    _, ds = trial_data(ScenarioConfig(**DIGEST_CELLS[cell], trials=trial + 1, seed=seed), trial)
    prob = assemble_qcqp(dataclasses.replace(ds, d0={"first": ds.d[0], "off": ds.d[0] + 0.05, "absent": None}[variant]))
    assert prob.B.shape[0] == len(ds) + (variant == "off")
    h = hashlib.sha256()
    for a in (prob.P0, prob.B):
        h.update(np.asarray(a, dtype=np.float32).tobytes())
    assert h.hexdigest()[:16] == PROBLEM_DIGESTS[key]


@pytest.mark.parametrize("estimator", ["qcqp", "sdp"])
def test_cell_with_overflowing_ranges_is_rejected(estimator):
    # 1e200 m apart: the true ranges overflow to inf, which the cell's stack
    # rejects, where the relaxation once crashed in its eigendecomposition
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="positive and finite"):
        monte_carlo_run(ScenarioConfig(d0=1e200, trials=4, seed=2), estimator)


class TestDrift:
    def test_zero_drift_baseline_near_zero(self):
        cfg = DriftConfig(d0=5.0, sigma_r=0.05, sigma_o=0.0, seed=16, sigma_t=0.0, sigma_theta=0.0, duration=30.0, window=50, rate=10.0)
        res = drift_scenario(cfg, estimator="sdp")
        assert res.nc_rmse < 1e-9
        assert res.corrected_rmse < 0.5

    def test_correction_improves_under_drift(self):
        cfg = DriftConfig(
            d0=5.0, sigma_r=0.1, sigma_o=0.001, seed=17, sigma_t=0.05, sigma_theta=math.radians(0.05), duration=60.0, window=50, rate=10.0
        )
        res = drift_scenario(cfg, estimator="qcqp")
        assert res.corrected_rmse < res.nc_rmse

    @pytest.mark.parametrize(
        "bad",
        [
            {"d0": 0.0},
            {"d0": math.inf},
            {"sigma_r": -0.1},
            {"sigma_o": math.nan},
            {"sigma_t": -0.1},
            {"sigma_theta": math.inf},
            # a length past the largest that synthesis represents; d0 1e160 once overflowed in np.linalg.norm
            {"d0": math.nextafter(LARGEST_LENGTH, math.inf)},
            {"d0": 1e160},
            {"d0": True},
            {"sigma_r": True},
            # a noise level past the largest that synthesis represents
            {"sigma_r": math.nextafter(LARGEST_NOISE, math.inf)},
            {"sigma_o": 1e300},
        ],
    )
    def test_scenario_and_walk_levels_checked(self, bad):
        with pytest.raises(ValueError):
            DriftConfig(**bad)

    def test_stream_has_the_configured_sample_count(self):
        cfg = DriftConfig(duration=12.2, rate=25.0, window=50, seed=3)
        assert cfg.n_samples == 305
        # 305 samples hold six windows of 50; the last stops at sample 300
        track = drift_scenario(cfg).windows
        assert len(track) == 6 and track.stop[-1] == 300


class _Captured(Exception):
    pass


def drift_stream(cfg, monkeypatch):
    """The synced stream that `drift_scenario` builds for cfg, caught where
    it enters the window estimator."""
    seen = []

    def capture(stream, **kwargs):
        seen.append(stream)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(simulation, "sliding_window_estimate", capture)
        with pytest.raises(_Captured):
            drift_scenario(cfg)
    return seen[0]


# float32 digests of the (d, pa, pb) of drift_scenario's stream: config ->
# first 16 hex digits. A change of the drift draws, of their order or of
# the geometry fails them
DRIFT_DIGESTS = {
    "defaults": "17d9b7966bf8b162",
    "sigma_r 0": "226bfded7dbea474",
    "sigma_o 0": "f1076fe094f21d45",
}
DRIFT_DIGEST_CONFIGS = {"defaults": {}, "sigma_r 0": {"sigma_r": 0.0}, "sigma_o 0": {"sigma_o": 0.0}}


@pytest.mark.parametrize("name", DRIFT_DIGESTS)
def test_drift_stream_pinned(name, monkeypatch):
    cfg = DriftConfig(**DRIFT_DIGEST_CONFIGS[name])
    stream = drift_stream(cfg, monkeypatch)
    # the host starts at (0, 5 sin 1.3, 4 sin 2.1), off its origin, so no range is d0
    assert len(stream) == cfg.n_samples and stream.d0 is None
    assert stream.sigma_r == max(cfg.sigma_r, SIGMA_R_FLOOR)
    h = hashlib.sha256()
    for a in (stream.d, stream.pa, stream.pb):
        h.update(np.asarray(a, dtype=np.float32).tobytes())
    assert h.hexdigest()[:16] == DRIFT_DIGESTS[name]


def test_lengths_at_the_bound_are_synthesized(monkeypatch):
    # d0 and D at LARGEST_LENGTH: every range is one that a stack takes and
    # every squared walk position is finite, with no warning, and the walks
    # still fill their balls (at D 1e300 every walk once parked at its origin)
    cfg = ScenarioConfig(d0=LARGEST_LENGTH, D=LARGEST_LENGTH, trials=20, seed=3)
    _, cell = trial_data(cfg, range(cfg.trials))
    assert np.linalg.norm(cell.pa, axis=-1).max() > 0.5 * cfg.D
    stream = drift_stream(DriftConfig(d0=LARGEST_LENGTH, duration=12.0, seed=3), monkeypatch)
    assert np.isfinite(stream.d).all()
    # so are the noise levels at LARGEST_NOISE and the lever arms at
    # LARGEST_LEVER_ARM in every component, on top of those lengths
    arms = (LeverArm(np.full(3, LARGEST_LEVER_ARM)), LeverArm(np.full(3, -LARGEST_LEVER_ARM)))
    noisy = dataclasses.replace(cfg, sigma_r=LARGEST_NOISE, sigma_o=LARGEST_NOISE, lever_arms=arms)
    _, cell = trial_data(noisy, range(noisy.trials))
    assert cell.d0 is None and np.abs(cell.d - trial_data(cfg, range(cfg.trials))[1].d).max() > LARGEST_NOISE
    stream = drift_stream(DriftConfig(d0=LARGEST_LENGTH, sigma_r=LARGEST_NOISE, sigma_o=LARGEST_NOISE, duration=12.0, seed=3),
                          monkeypatch)
    assert np.isfinite(stream.d).all() and np.isfinite(stream.pb).all()
    # numbers.Real admits a bool, which once built a cell at d0 1 m
    with pytest.raises(ValueError, match="d0 must be positive and finite"):
        ScenarioConfig(d0=True)


def test_dataset_determinism_bitwise():
    cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.1, sigma_o=0.001, trials=1, seed=18)
    T1, d1 = trial_data(cfg, 4)
    T2, d2 = trial_data(cfg, 4)
    assert np.array_equal(T1.t, T2.t) and T1.theta == T2.theta
    assert np.array_equal(d1.d, d2.d)
    assert np.array_equal(d1.pa, d2.pa)
