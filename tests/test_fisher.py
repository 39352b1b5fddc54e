import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from one_problem import dataset_fim, dataset_jacobian

from range_rte.estimators import ESTIMATORS
from range_rte.fisher import (
    DEFAULT_KAPPA_THRESHOLD,
    DET_SUBSET_CAP,
    STD_CEILING,
    ExpansionTooLargeError,
    InsufficientDataError,
    SingularGeometryError,
    confidence_intervals,
    det_fim_geometric,
    fim,
    fim_arrays,
)
from range_rte.geometry import Transform4DoF
from range_rte.measurement import SyncedDataset, true_range
from range_rte.simulation import SCENARIO_KINDS, ScenarioConfig, singular_scenario, trial_data, trial_rng

qcqp_estimate = ESTIMATORS["qcqp"]


def random_dataset(rng, k=8, sigma_r=0.1, spread=1.0, d0_offset=3.0):
    pa = rng.normal(0.0, spread, size=(k, 3))
    pb = rng.normal(0.0, spread, size=(k, 3))
    pb[:, 0] += d0_offset  # keep ranges bounded away from zero
    d = [1.0 + rng.uniform(0, 2) for _ in range(k)]
    return SyncedDataset(t=np.arange(float(k)), d=d, pa=pa, pb=pb, sigma_r=sigma_r)


def finite_difference_row(T, pa, pb, h=1e-6):
    v0 = T.as_vector()
    g = np.zeros(4)
    for i in range(4):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += h
        vm[i] -= h
        dp = true_range(Transform4DoF(t=vp[:3], theta=vp[3]), pa, pb)
        dm = true_range(Transform4DoF(t=vm[:3], theta=vm[3]), pa, pb)
        g[i] = (dp - dm) / (2 * h)
    return g


coordinates = st.floats(-5.0, 5.0, allow_nan=False)


class TestRangeJacobian:
    """`_jacobian_stack`, the one Jacobian of the package."""

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.tuples(coordinates, coordinates, coordinates),
        theta=st.floats(-math.pi, math.pi),
        pa=st.lists(st.tuples(coordinates, coordinates, coordinates), min_size=1, max_size=6),
        pb_seed=st.integers(0, 2**32 - 1),
        d0=st.one_of(st.none(), st.floats(0.5, 20.0)),
    )
    def test_matches_finite_differences(self, t, theta, pa, pb_seed, d0):
        # one row per range, plus the row of a d0 other than the first
        # range: the range between the two frame origins, ||t||
        T = Transform4DoF(t=np.array(t), theta=theta)
        pa = np.array(pa)
        pb = np.random.default_rng(pb_seed).uniform(-5.0, 5.0, pa.shape)
        ranges = true_range(T, pa, pb)
        assume(ranges.min() > 0.5 and (d0 is None or np.linalg.norm(T.t) > 0.5))
        ds = SyncedDataset(t=np.arange(float(len(pa))), d=ranges + 1.0, pa=pa, pb=pb, sigma_r=0.1, d0=d0)
        J = dataset_jacobian(T, ds)
        if d0 is not None:
            pa, pb = np.vstack([pa, np.zeros(3)]), np.vstack([pb, np.zeros(3)])
        assert J.shape == (len(pa), 4)
        for row, a, b in zip(J, pa, pb):
            np.testing.assert_allclose(row, finite_difference_row(T, a, b), atol=1e-6)

    def test_stationary_target_kills_heading_term(self):
        rng = np.random.default_rng(0)
        ds = SyncedDataset(t=np.arange(10.0), d=np.ones(10), pa=rng.normal(size=(10, 3)), pb=np.zeros((10, 3)), sigma_r=0.1)
        T = Transform4DoF(t=rng.normal(size=3) + 2.0, theta=rng.uniform(-math.pi, math.pi))
        assert np.all(dataset_jacobian(T, ds)[:, 3] == 0.0)

    def test_axis_aligned_example(self):
        ds = SyncedDataset(t=[0.0], d=[1.0], pa=np.zeros((1, 3)), pb=np.zeros((1, 3)), sigma_r=0.1)
        J = dataset_jacobian(Transform4DoF(t=[1.0, 0.0, 0.0], theta=0.0), ds)
        assert np.array_equal(J, [[1.0, 0.0, 0.0, 0.0]])

    def test_zero_range_raises(self):
        ds = SyncedDataset(t=[0.0], d=[1.0], pa=np.zeros((1, 3)), pb=np.zeros((1, 3)), sigma_r=0.1)
        with pytest.raises(SingularGeometryError):
            dataset_jacobian(Transform4DoF(t=np.zeros(3), theta=0.0), ds)


class TestFim:
    def test_rank_bound_with_three_samples(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, k=3)
        T = Transform4DoF(t=[3.0, 0.5, -0.2], theta=0.3)
        rep = dataset_fim(T, ds)
        assert rep.rank[0] <= 3
        assert np.isnan(rep.crlb[0]).all()
        assert np.isnan(rep.crlb_t[0])

    def test_invariant_under_common_world_offset(self):
        # translate the whole world (host trajectory and the target frame
        # origin) by one offset; local target coordinates are untouched
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, k=8)
        T = Transform4DoF(t=[3.0, 0.5, -0.2], theta=0.3)
        rep1 = dataset_fim(T, ds)
        c = rng.normal(size=3)
        T2 = Transform4DoF(t=T.t + c, theta=T.theta)
        shifted = dataclasses.replace(ds, pa=ds.pa + c)
        rep2 = dataset_fim(T2, shifted)
        assert np.allclose(rep1.F, rep2.F, rtol=1e-9, atol=1e-9)

    def test_noise_scaling(self):
        rng = np.random.default_rng(4)
        ds1 = random_dataset(rng, k=8, sigma_r=0.1)
        ds2 = dataclasses.replace(ds1, sigma_r=0.2)
        T = Transform4DoF(t=[3.0, 0.5, -0.2], theta=0.3)
        rep1, rep2 = dataset_fim(T, ds1), dataset_fim(T, ds2)
        assert np.allclose(rep2.F, rep1.F / 4.0)
        assert rep2.crlb_t[0] == pytest.approx(rep1.crlb_t[0] * 4.0)
        assert rep2.crlb_theta[0] == pytest.approx(rep1.crlb_theta[0] * 4.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, k=7)
        T = Transform4DoF(t=[2.5, 0.0, 0.5], theta=-0.4)
        perm = rng.permutation(7)
        permuted = dataclasses.replace(ds, d=ds.d[perm], pa=ds.pa[perm], pb=ds.pb[perm])
        assert np.allclose(dataset_fim(T, ds).F, dataset_fim(T, permuted).F, rtol=1e-12)

    def test_crlb_blocks(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, k=12)
        T = Transform4DoF(t=[3.0, 1.0, 0.2], theta=0.9)
        rep = dataset_fim(T, ds)
        inv = np.linalg.inv(rep.F[0])
        assert rep.crlb_t[0] == pytest.approx(np.trace(inv[:3, :3]), rel=1e-9)
        assert rep.crlb_theta[0] == pytest.approx(inv[3, 3], rel=1e-9)

    def test_explicit_d0_adds_origin_row(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, k=8)
        T = Transform4DoF(t=[3.0, 0.5, -0.2], theta=0.3)
        base = dataset_fim(T, ds).F
        row = np.append(T.t / np.linalg.norm(T.t), 0.0)
        with_d0 = dataset_fim(T, dataclasses.replace(ds, d0=2.5)).F
        assert np.allclose(with_d0, base + np.outer(row, row) / ds.sigma_r**2, rtol=1e-12, atol=1e-12)
        # a d0 read off the first range is already a row: F stays bit-identical
        assert np.array_equal(dataset_fim(T, dataclasses.replace(ds, d0=float(ds.d[0]))).F, base)
        with pytest.raises(SingularGeometryError):
            dataset_fim(Transform4DoF(t=np.zeros(3), theta=0.3), dataclasses.replace(ds, d0=2.5))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), W=st.integers(1, 6), k=st.integers(1, 12))
    def test_stack_rows_equal_each_problem_alone(self, seed, W, k):
        # each problem of a stack gets the information it gets in a stack of one, bit for bit
        rng = np.random.default_rng(seed)
        t, theta = rng.normal(0.0, 5.0, (W, 3)), rng.uniform(-math.pi, math.pi, W)
        pa, pb = rng.normal(size=(W, k, 3)), rng.normal(size=(W, k, 3))
        stacked = fim(t, theta, pa, pb, 0.1)
        for i in range(W):
            alone = fim(t[i : i + 1], theta[i : i + 1], pa[i : i + 1], pb[i : i + 1], 0.1)
            for name in ("F", "crlb", "kappa", "std_errors", "singular"):
                assert getattr(stacked, name)[i].tobytes() == getattr(alone, name)[0].tobytes(), name

    def test_rows_past_the_float_range_give_no_bound(self):
        # antennas 1e150 m out overflow det(F), 1e153 m out F itself: those
        # rows have no bound, without a warning (an error under tier-1's
        # filter), and the regular rows keep the bits they have alone
        rng = np.random.default_rng(12)
        t, theta = rng.normal(0.0, 5.0, (4, 3)), rng.uniform(-math.pi, math.pi, 4)
        scale = np.array([1.0, 1e150, 1e153, 1.0])[:, None, None]
        pa, pb = rng.normal(size=(4, 8, 3)) * scale, rng.normal(size=(4, 8, 3)) * scale
        info = fim(t, theta, pa, pb, 0.1)
        assert np.isinf(info.det_f[1]) and np.isfinite(info.F[1]).all() and not np.isfinite(info.F[2]).all()
        for i in (1, 2):
            assert not info.invertible[i] and info.unobservable[i].all()
            assert np.isnan(info.crlb[i]).all() and np.isnan([info.crlb_t[i], info.crlb_theta[i]]).all()
        assert info.kappa[2] == math.inf and info.rank[2] == 0
        for i in (0, 3):
            alone = fim(t[i : i + 1], theta[i : i + 1], pa[i : i + 1], pb[i : i + 1], 0.1)
            for name in ("F", "crlb", "crlb_t", "det_f", "kappa", "rank", "std_errors", "singular", "unobservable"):
                assert getattr(info, name)[i].tobytes() == getattr(alone, name)[0].tobytes(), name


class TestDetGeometric:
    def test_matches_direct_determinant(self):
        rng = np.random.default_rng(7)
        for k in range(4, 11):
            ds = random_dataset(rng, k=k)
            T = Transform4DoF(t=[3.0, -0.5, 0.7], theta=1.1)
            rep = dataset_fim(T, ds)
            det_geo = det_fim_geometric(T, ds)
            assert det_geo == pytest.approx(rep.det_f[0], rel=1e-8)

    def test_insufficient_data(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, k=3)
        with pytest.raises(InsufficientDataError):
            det_fim_geometric(Transform4DoF(t=[3, 0, 0], theta=0.0), ds)

    def test_parallel_motion_vanishes(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=10, sigma_r=0.1, sigma_o=0.0, trials=1, seed=0)
        T, ds = singular_scenario("parallel", cfg, trial_rng(0, 0))
        rng = np.random.default_rng(9)
        baseline = det_fim_geometric(T, random_dataset(rng, k=10))
        assert det_fim_geometric(T, ds) <= 1e-10 * abs(baseline)

    def test_static_host_vanishes(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=10, sigma_r=0.1, sigma_o=0.0, trials=1, seed=0)
        T, ds = singular_scenario("static_host", cfg, trial_rng(1, 0))
        rng = np.random.default_rng(10)
        baseline = det_fim_geometric(T, random_dataset(rng, k=10))
        assert det_fim_geometric(T, ds) <= 1e-10 * abs(baseline)

    def test_subsampling_cap(self):
        # the expansion is the exact determinant up to the cap, and above it
        # is not evaluated at all: no subsample stands in for the full sum
        rng = np.random.default_rng(11)
        T = Transform4DoF(t=[3.0, 0.0, 0.0], theta=0.2)
        ds = random_dataset(rng, k=DET_SUBSET_CAP + 1)
        at_cap = ds.select(np.arange(len(ds)) < DET_SUBSET_CAP)
        assert det_fim_geometric(T, at_cap) == pytest.approx(dataset_fim(T, at_cap).det_f[0], rel=1e-8)
        with pytest.raises(ExpansionTooLargeError):
            det_fim_geometric(T, ds)

    def test_counts_the_rows_fim_counts(self):
        # a d0 other than the first range is one more row of F, and of
        # the determinant expansion
        T, ds = trial_data(ScenarioConfig(seed=3, trials=1, n_poses=12), 0)
        extra = dataclasses.replace(ds, d0=float(np.linalg.norm(T.t)) + 0.05)
        rep = dataset_fim(T, extra)
        assert len(dataset_jacobian(T, extra)) == len(ds) + 1
        assert det_fim_geometric(T, extra) == pytest.approx(np.linalg.det(rep.F[0]), rel=1e-9)
        # ds takes d0 off its first range, which is no extra row
        assert len(dataset_jacobian(T, ds)) == len(ds)
        assert det_fim_geometric(T, ds) == pytest.approx(dataset_fim(T, ds).det_f[0], rel=1e-9)
        assert not det_fim_geometric(T, ds) == pytest.approx(rep.det_f[0], rel=1e-3)


def report_of(F):
    """`fim_arrays` of one FIM: a stack of one."""
    return fim_arrays(np.asarray(F, dtype=float)[None])


class TestSingularityReport:
    def test_identity_not_singular(self):
        rep = report_of(np.eye(4))
        assert rep.singular.tolist() == [False]
        assert rep.unobservable.tolist() == [[False] * 4]

    def test_rank_deficient_flags_heading(self):
        rep = report_of(np.diag([1.0, 1.0, 1.0, 0.0]))
        assert rep.singular.tolist() == [True]
        assert rep.unobservable.tolist()[0][3] is True

    def test_planar_scenario_flagged(self):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.1, sigma_o=0.0, trials=1, seed=0)
        T, ds = singular_scenario("planar_linear", cfg, trial_rng(2, 0))
        rep = dataset_fim(T, ds)
        ref = report_of(rep.F[0])
        assert np.array_equal(rep.singular, ref.singular) and np.array_equal(rep.unobservable, ref.unobservable)
        assert rep.singular.tolist() == [True]
        assert any(rep.unobservable[0, :3])

    def test_selective_flag_with_invertible_fim(self):
        # one parameter much worse than the rest, but still invertible
        rep = report_of(np.diag([1.0, 1.0, 1.0, 1e-4]))
        assert rep.singular.tolist() == [False]  # kappa = 1e4
        assert rep.unobservable.tolist() == [[False, False, False, True]]

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            fim_arrays(np.diag([1.0, 1.0, 1.0, -0.5])[None])

    def test_rejects_asymmetric_or_unstacked(self):
        for F in (np.triu(np.ones((4, 4)))[None], np.eye(4)):
            with pytest.raises(ValueError):
                fim_arrays(F)

    def test_subnormal_eigenvalue_gives_infinite_kappa_without_warning(self):
        # lam_max / lam_min and 1 / lam_min overflow here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = fim_arrays(np.diag([1.9e3, 45.4, 39.7, 1e-310])[None])
        assert rep.kappa.tolist() == [math.inf]
        assert rep.singular.tolist() == [True]
        assert np.isnan(rep.std_errors).all() and np.isnan(rep.crlb).all() and np.isnan(rep.crlb_t).all()
        assert rep.unobservable.tolist() == [[True] * 4]


class TestSingularityVerdicts:
    """kappa of the FIM at the `qcqp` estimate is the one singularity test.
    Measured over 20000 seeds: the static target at sigma_o 1 mm, the
    weakest singular kind, has kappa >= 4.75e5, and the d0 50 m cell, the
    worst-conditioned regular one, kappa <= 1.67e5."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(SCENARIO_KINDS), seed=st.integers(0, 2**32 - 1), sigma_o=st.floats(0.0, 1e-3))
    @example(kind="static_target", seed=0, sigma_o=4.971553772859486e-160)  # lam_min 2.4e-315
    def test_singular_kinds_flagged_at_small_odometry_noise(self, kind, seed, sigma_o):
        cfg = ScenarioConfig(sigma_o=sigma_o, trials=1)
        _, ds = singular_scenario(kind, cfg, np.random.default_rng(seed))
        rep = qcqp_estimate(ds)
        assert rep.flags.configuration_singular, rep.fim.kappa
        assert rep.flags.kappa_threshold == DEFAULT_KAPPA_THRESHOLD

    @settings(max_examples=40, deadline=None)
    @given(
        cell=st.sampled_from([{}, {"n_poses": 8}, {"D": 0.3}, {"d0": 50.0}]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_regular_cells_never_flagged(self, cell, seed):
        _, ds = trial_data(ScenarioConfig(**cell, trials=1, seed=seed), 0)
        rep = qcqp_estimate(ds)
        assert not rep.flags.configuration_singular, rep.fim.kappa


class TestConfidenceIntervals:
    def test_scaled_identity(self):
        ci = confidence_intervals(np.zeros((1, 4)), report_of(4.0 * np.eye(4)))[0]
        assert np.allclose(ci[:, 0], -0.98)
        assert np.allclose(ci[:, 1], 0.98)

    def test_half_width(self):
        T = Transform4DoF(t=[1.0, 2.0, 3.0], theta=0.5)
        ci = confidence_intervals(T.as_vector()[None], report_of(100.0 * np.eye(4)))[0]
        widths = ci[:, 1] - ci[:, 0]
        assert np.allclose(widths, 2 * 0.196)
        assert np.allclose(ci.mean(axis=1), T.as_vector())

    def test_singular_row_gives_nan_intervals_and_flags(self):
        # in a stack, the row whose FIM is not invertible has NaN intervals
        # and every parameter flagged; the invertible row keeps its own
        rep = fim_arrays(np.stack([np.diag([1.0, 1.0, 1.0, 0.0]), 4.0 * np.eye(4)]))
        ci = confidence_intervals(np.zeros((2, 4)), rep)
        assert ci.shape == (2, 4, 2)
        assert np.isnan(ci[0]).all() and np.allclose(ci[1], [-0.98, 0.98])
        assert rep.singular.tolist() == [True, False]
        assert rep.unobservable.tolist() == [[True] * 4, [False] * 4]

    def test_std_errors_intervals_and_flags_share_one_crlb(self):
        # standard errors, 95 % half-widths and per-parameter flags all
        # read the one CRLB diagonal, bit for bit, on regular and singular draws
        cases = [trial_data(ScenarioConfig(trials=1, seed=seed), 0)[1] for seed in range(30)]
        rng = np.random.default_rng(17)
        cases += [singular_scenario(kind, ScenarioConfig(trials=1), rng)[1] for kind in SCENARIO_KINDS for _ in range(3)]
        checked = 0
        for ds in cases:
            est = qcqp_estimate(ds)
            rep = est.fim
            assert est.flags.configuration_singular is rep.singular.tolist()[0]
            assert est.flags.per_param_unobservable == tuple(rep.unobservable.tolist()[0])
            center = est.theta_hat.as_vector()
            ci = confidence_intervals(center[None], rep)[0]
            if not rep.invertible[0]:
                assert np.isnan(rep.std_errors).all() and np.isnan(ci).all()
                assert est.flags.per_param_unobservable == (True,) * 4
                continue
            checked += 1
            se = np.sqrt(np.diag(rep.crlb[0]))
            assert np.array_equal(rep.std_errors[0], se)
            assert np.array_equal(ci, np.column_stack([center - 1.96 * se, center + 1.96 * se]))
            assert est.flags.per_param_unobservable == tuple(se > STD_CEILING * np.median(se))
        assert checked >= 30


def test_jacobian_matrix_consistent_with_rows():
    # the FIM is the noise-weighted Gram matrix of exactly these rows
    rng = np.random.default_rng(16)
    ds = random_dataset(rng, k=6)
    T = Transform4DoF(t=[3.0, 0.2, -0.1], theta=0.8)
    for data in (ds, dataclasses.replace(ds, d0=2.5)):
        J = dataset_jacobian(T, data)
        assert len(J) == len(ds) + (data.d0 is not None)
        np.testing.assert_allclose(J.T @ J / ds.sigma_r**2, dataset_fim(T, data).F[0], rtol=1e-12)
