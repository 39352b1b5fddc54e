import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lm_reference import lift_jacobian, lm_least_squares, lm_refine
from sweep_reference import clear_decisions, reference_sweep

from range_rte.estimators import (
    ESTIMATORS,
    SWEEP_CANDIDATES,
    SWEEP_CHUNK,
    SWEEP_HEADINGS,
    WINDOW_KAPPA_LIMIT,
    _CONSTRAINT_MATRICES,
    DegenerateSolutionError,
    WindowTrack,
    _SWEEP_THETA,
    _eigh3_planes,
    _factor_lift,
    _headings,
    _information,
    _lift,
    _lifted_cost,
    _nls_points,
    _rank_one_states,
    _scaled_rows,
    _sqrt_factor,
    _sweep,
    _sweep_stack,
    align_target_trajectory,
    assemble_qcqp,
    build_data_rows,
    sliding_window_estimate,
    solve_sdp_relaxation,
)
from range_rte.fisher import DEFAULT_KAPPA_THRESHOLD, confidence_intervals, fim, fim_arrays
from range_rte.geometry import Transform4DoF, wrap_angle
from range_rte.measurement import SyncedDataset, debias_squared, true_range
from range_rte.solvers import CONVERGED, _gram, lockstep_newton
from range_rte.simulation import DriftConfig, ScenarioConfig, trial_data, trial_rng

qcqp_estimate, sdp_estimate, nls_estimate = (ESTIMATORS[name] for name in ("qcqp", "sdp", "nls"))


def noiseless_instance(seed, d0=3.0, D=1.0, n=20):
    return trial_data(ScenarioConfig(d0=d0, D=D, n_poses=n, sigma_r=0.0, sigma_o=0.0, trials=1, seed=seed), 0)


def noisy_instance(seed, d0=3.0, D=1.0, n=30, sigma_r=0.1, sigma_o=0.001):
    return trial_data(ScenarioConfig(d0=d0, D=D, n_poses=n, sigma_r=sigma_r, sigma_o=sigma_o, trials=1, seed=seed), 0)


def lift(T: Transform4DoF) -> np.ndarray:
    """The lifted 9-vector of a transform: `_lift` at its translation and
    the cosine and sine of its heading."""
    return _lift(*T.t, math.cos(T.theta), math.sin(T.theta))


def lifted_cost(prob, T: Transform4DoF) -> float:
    """x' P0 x of one assembled problem at the lift x of T: `_lifted_cost`
    on a stack of one."""
    return float(_lifted_cost(prob.P0[None], T.as_vector()[None])[0])


def relax(ds) -> tuple[np.ndarray, str]:
    """X (9, 9) and the status of a dataset's relaxation:
    `solve_sdp_relaxation` on its stack of one."""
    stack = ds.stack()
    X, diag = solve_sdp_relaxation(assemble_qcqp(stack).P0, stack.d0)
    return X[0], diag.status[0]


def fim_at(estimates, stack):
    """`fim` of the problems of a stack at their estimates (W, 4)."""
    return fim(estimates[:, :3], estimates[:, 3], stack.pa, stack.pb, stack.sigma_r)


def near_planar_instance(seed, n=20):
    """Both antennas at fixed heights (host 0, target pb_z), odometry noise
    up to 3 cm: near the mirror ambiguity of t_z about -pb_z."""
    rng = np.random.default_rng(seed)
    d0, sigma_o, pb_z = rng.uniform(2.0, 30.0), rng.uniform(0.0, 0.03), rng.uniform(-1.0, 1.0)
    v = rng.normal(size=3)
    T = Transform4DoF(t=d0 * v / np.linalg.norm(v), theta=rng.uniform(-math.pi, math.pi))
    pa = np.column_stack([np.cumsum(rng.normal(0.0, 0.5, (n, 2)), axis=0), np.zeros(n)])
    pb = np.column_stack([np.cumsum(rng.normal(0.0, 0.5, (n, 2)), axis=0), np.full(n, pb_z)])
    d = np.abs(true_range(T, pa, pb) + 0.05 * rng.standard_normal(n))
    pa, pb = pa + sigma_o * rng.standard_normal(pa.shape), pb + sigma_o * rng.standard_normal(pb.shape)
    return T, SyncedDataset(t=np.arange(float(n)), d=d, pa=pa, pb=pb, sigma_r=0.05), pb_z


def random_stream(rng, n, sigma_r=0.1):
    """n ranges between two random-walking agents under a random transform."""
    v = rng.normal(size=3)
    T = Transform4DoF(t=rng.uniform(2.0, 20.0) * v / np.linalg.norm(v), theta=rng.uniform(-math.pi, math.pi))
    pa = np.cumsum(rng.normal(0.0, 0.5, (n, 3)), axis=0)
    pb = np.cumsum(rng.normal(0.0, 0.5, (n, 3)), axis=0)
    d = np.maximum(np.abs(true_range(T, pa, pb) + sigma_r * rng.standard_normal(n)), 1e-3)
    return SyncedDataset(t=np.arange(float(n)), d=d, pa=pa, pb=pb, sigma_r=sigma_r)


def park(stream, start, stop):
    """The stream with both agents parked over rows [start, stop): one range
    repeated, so a window inside those rows has a rank-one FIM."""
    pa, pb, d = stream.pa.copy(), stream.pb.copy(), stream.d.copy()
    pa[start:stop], pb[start:stop], d[start:stop] = pa[start], pb[start], d[start]
    return dataclasses.replace(stream, pa=pa, pb=pb, d=d)


def errors(T_hat, T):
    return (
        float(np.linalg.norm(T_hat.t - T.t)),
        abs(float(wrap_angle(T_hat.theta - T.theta))),
    )


class TestLift:
    """`_lift` and the heading readout of normalized lifted states (`_headings`)."""

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            T = Transform4DoF(t=rng.normal(size=3), theta=rng.uniform(-math.pi, math.pi))
            x = lift(T)
            assert x[8] == 1.0
            assert x[3] ** 2 + x[4] ** 2 == pytest.approx(1.0)
            assert x[7] == pytest.approx(float(T.t @ T.t))
            theta, errors = _headings(x[None])
            assert not errors
            assert np.allclose(x[:3], T.t)
            assert theta[0] == pytest.approx(T.theta)

    def test_extract_renormalizes_heading(self):
        x = lift(Transform4DoF(t=[1.0, 2.0, 3.0], theta=math.atan2(0.8, 0.6)))
        x[3], x[4] = 0.59, 0.81  # slightly off the unit circle
        theta, errors = _headings(x[None])
        assert not errors and theta[0] == pytest.approx(math.atan2(0.81, 0.59))

    def test_extract_wraps_pi(self):
        # the readout gives atan2's +pi, which the point stage wraps, as `_sdp_points` does
        x = lift(Transform4DoF(t=np.zeros(3), theta=-math.pi))
        theta, errors = _headings(x[None])
        assert not errors and -math.pi <= wrap_angle(theta)[0] < math.pi

    def test_heading_undefined(self):
        # the problem with no heading gets a NaN heading and its error; the others keep theirs
        x = np.array([lift(Transform4DoF(t=[1.0, 0.0, 0.0], theta=th)) for th in (0.0, 0.5)])
        x[0, 3] = x[0, 4] = 1e-9
        theta, errors = _headings(x)
        assert list(errors) == [0] and isinstance(errors[0], DegenerateSolutionError)
        assert str(errors[0]) == "cos/sin block too small to define a heading"
        assert math.isnan(theta[0]) and theta[1] == pytest.approx(0.5)


class TestDataRow:
    def test_origin_sample(self):
        row = build_data_rows([np.zeros(3)], [np.zeros(3)], [4.0])[0]
        assert np.allclose(row, [0, 0, 0, 0, 0, 0, 0, 1, -4.0])

    def test_hand_computed_row(self):
        row = build_data_rows([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [0.0])[0]
        assert np.allclose(row, [-2, 0, 0, 0, 2, 0, 2, 1, 2])

    def test_row_identity_on_lift(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            T = Transform4DoF(t=rng.normal(size=3), theta=rng.uniform(-math.pi, math.pi))
            pa, pb = rng.normal(size=3), rng.normal(size=3)
            d2 = float(true_range(T, pa, pb)) ** 2
            s_val = rng.uniform(0.5, 4.0)
            row = build_data_rows([pa], [pb], [s_val])[0]
            assert row @ lift(T) == pytest.approx(d2 - s_val, rel=1e-12, abs=1e-12)

    def test_rows_equal_row_by_row_reference(self):
        def reference_row(pa, pb, s_i):
            pax, pay, paz = pa
            pbx, pby, pbz = pb
            eps = float(pa @ pa + pb @ pb - 2.0 * paz * pbz - s_i)
            return np.array(
                [
                    -2.0 * pax,
                    -2.0 * pay,
                    2.0 * (pbz - paz),
                    -2.0 * (pax * pbx + pay * pby),
                    2.0 * (pax * pby - pbx * pay),
                    2.0 * pbx,
                    2.0 * pby,
                    1.0,
                    eps,
                ]
            )

        rng = np.random.default_rng(2)
        pa, pb = rng.normal(0.0, 5.0, size=(200, 3)), rng.normal(0.0, 50.0, size=(200, 3))
        s = rng.uniform(0.0, 50.0, 200)
        expected = np.array([reference_row(pa[i], pb[i], s[i]) for i in range(200)])
        assert np.array_equal(build_data_rows(pa, pb, s), expected)


def constraints(ds):
    """(P_i, r_i) of a dataset's one problem: the four structural
    constraints, then ||t||^2 = d0^2 when its stack has d0."""
    d0 = ds.stack().d0
    rhs = (1.0, 0.0, 0.0, 0.0) if d0 is None else (1.0, 0.0, 0.0, 0.0, float(d0[0]) ** 2)
    return list(zip(_CONSTRAINT_MATRICES, rhs))


class TestAssemble:
    def test_unit_circle_constraint(self):
        T, ds = noiseless_instance(0)
        P1, r1 = constraints(ds)[0]
        for phi in np.linspace(-math.pi, math.pi, 7):
            x = np.zeros(9)
            x[3], x[4] = math.cos(phi), math.sin(phi)
            assert x @ P1 @ x == pytest.approx(r1)

    def test_lifted_state_satisfies_all_constraints(self):
        T, ds = noiseless_instance(1)
        # build a transform whose norm matches the recorded first distance
        rng = np.random.default_rng(2)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        T2 = Transform4DoF(t=ds.d0 * direction, theta=0.7)
        assert ds.stack().d0.tolist() == [ds.d0] and len(constraints(ds)) == 5
        x = lift(T2)
        for P, r in constraints(ds):
            assert x @ P @ x == pytest.approx(r, abs=1e-12 * max(1.0, abs(r)))

    def test_noiseless_cost_zero_at_truth(self):
        T, ds = noiseless_instance(2)
        prob = assemble_qcqp(ds)
        x = lift(T)
        cost = float(x @ prob.P0 @ x)
        assert cost <= 1e-10 * np.abs(prob.P0).max()

    def test_constraint_count_without_d0(self):
        T, ds = noiseless_instance(3)
        no_d0 = dataclasses.replace(ds, d0=None)
        assert no_d0.stack().d0 is None and len(constraints(no_d0)) == 4

    def test_cost_equals_direct_weighted_residuals(self):
        T, ds = noisy_instance(4)
        prob = assemble_qcqp(ds)
        s, variance = debias_squared(ds)
        rng = np.random.default_rng(5)
        for _ in range(5):
            Tq = Transform4DoF(t=rng.normal(size=3) * 2, theta=rng.uniform(-math.pi, math.pi))
            W = Tq.t + ds.pb @ Tq.rotation().T - ds.pa
            e_s = np.einsum("ij,ij->i", W, W) - s
            direct = float(e_s @ (e_s / variance))
            assert lifted_cost(prob, Tq) == pytest.approx(direct, rel=1e-10)


class TestOneProblemType:
    """A dataset, a stream's windows and a cell are all `SyncedStack`s; a
    dataset's problem and information are those of its stack of one."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), variant=st.sampled_from(["absent", "first", "off"]))
    def test_dataset_equals_its_stack_of_one(self, seed, n, variant):
        T, ds = noisy_instance(seed, n=n)
        ds = dataclasses.replace(ds, d0={"absent": None, "first": ds.d[0], "off": ds.d[0] + 0.05}[variant])
        stack = ds.stack()
        one, stacked = assemble_qcqp(ds), assemble_qcqp(stack)
        assert one.B.shape[0] == len(ds) + (variant == "off")
        for name in ("P0", "B", "weights"):
            assert getattr(one, name).tobytes() == getattr(stacked, name)[0].tobytes()
        # the relaxation's norm constraint reads the stack's d0
        assert stack.d0 is None if variant == "absent" else stack.d0.tolist() == [ds.d0]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 30), stride=st.integers(1, 20), W=st.integers(1, 8))
    def test_window_stack_equals_each_window(self, seed, length, stride, W):
        stream = random_stream(np.random.default_rng(seed), length + stride * (W - 1))
        starts = np.arange(W) * stride
        windows = stream.windows(starts, length)
        stacked = assemble_qcqp(windows)
        assert windows.d0 is None
        for i, a in enumerate(starts.tolist()):
            one = assemble_qcqp(stream.windows([a], length))
            for name in ("P0", "B", "weights"):
                assert getattr(one, name)[0].tobytes() == getattr(stacked, name)[i].tobytes()
        # windows of no rows hold no problem to assemble
        with pytest.raises(ValueError, match="need at least one synced sample"):
            assemble_qcqp(stream.windows(starts, 0))


class TestSdpRelaxation:
    def test_noiseless_rank_one_and_recovery(self):
        T, ds = noiseless_instance(6)
        X, _ = relax(ds)
        lam = np.linalg.eigvalsh(X)
        assert lam[-2] / lam[-1] <= 1e-6
        assert lam[0] >= -1e-8 * lam[-1]
        et, eth = errors(sdp_estimate(ds).theta_hat, T)
        assert et <= 1e-6 and eth <= 1e-6
        # constraint feasibility of the returned matrix
        for P, r in constraints(ds):
            assert abs(np.tensordot(P, X) - r) <= 1e-7 * max(1.0, abs(r))

    def test_scale_similarity(self):
        T, ds = noiseless_instance(7)
        c = 2.5
        scaled = SyncedDataset(t=ds.t, d=c * ds.d, pa=c * ds.pa, pb=c * ds.pb, sigma_r=ds.sigma_r, d0=c * ds.d0)
        T1, T2 = sdp_estimate(ds).theta_hat, sdp_estimate(scaled).theta_hat
        assert np.allclose(T2.t, c * T1.t, atol=1e-5)
        assert T2.theta == pytest.approx(T1.theta, abs=1e-5)

    def test_singular_configuration_rank_exceeds_one(self):
        from range_rte.simulation import singular_scenario

        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.0, sigma_o=0.0, trials=1, seed=0)
        T, ds = singular_scenario("parallel", cfg, trial_rng(3, 0))
        X, _ = relax(ds)
        lam = np.maximum(np.linalg.eigvalsh(X)[::-1], 0.0)
        assert lam[1] / lam[0] > 1e-6  # relaxation not tight: ambiguity survives

    def test_sdp_is_lower_bound_over_feasible_lifts(self):
        T, ds = noisy_instance(8)
        prob = assemble_qcqp(ds)
        X, _ = relax(ds)
        opt = float(np.tensordot(prob.P0, X))
        rng = np.random.default_rng(9)
        for _ in range(25):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            Tf = Transform4DoF(t=ds.d0 * direction, theta=rng.uniform(-math.pi, math.pi))
            assert opt <= lifted_cost(prob, Tf) + 1e-6 * (1 + abs(opt))

    @pytest.mark.parametrize("trial", [1, 2, 3, 4, 6, 13])
    def test_far_relaxation_without_d0_is_solved(self, trial):
        # 50 m apart with no range pinning ||t||: an NT-scaled interior-point
        # method ended these `numerical`, with Tr(P0 X) 84-464x the qcqp cost
        _, ds = trial_data(ScenarioConfig(d0=50.0, D=20.0, trials=1, seed=21), trial)
        ds = ds.select(np.arange(len(ds)) > 0, keep_d0=False)
        prob = assemble_qcqp(ds)
        X, status = relax(ds)
        assert status == "optimal"
        lam = np.linalg.eigvalsh(X)
        assert lam[0] >= -1e-8 * lam[-1]
        for P, r in constraints(ds):
            assert abs(np.tensordot(P, X) - r) <= 1e-7 * max(1.0, abs(r))
        # a relaxation's optimum is no higher than any feasible point's cost
        assert np.tensordot(prob.P0, X) <= (1 + 1e-6) * qcqp_estimate(ds).solver["final_cost"]

    def test_unsolved_relaxation_raises(self, monkeypatch):
        from range_rte import estimators
        from range_rte.simulation import monte_carlo_run

        monkeypatch.setattr(estimators, "SDP_MAX_ITER", 3)
        _, ds = noisy_instance(8)
        with pytest.raises(DegenerateSolutionError, match="max_iter"):
            sdp_estimate(ds)
        stats = monte_carlo_run(ScenarioConfig(trials=2, seed=1), "sdp")
        assert len(stats.failures) == 2


def rank_one_states(*X):
    """`_rank_one_states` of the dominant eigenpair of each PSD matrix X (9, 9)."""
    lam, Q = np.linalg.eigh(np.array(X))
    return _rank_one_states(lam[:, -1], Q[:, :, -1])


class TestRankOne:
    def test_exact_rank_one(self):
        x = lift(Transform4DoF(t=[1.0, -2.0, 0.5], theta=0.9))
        got, errors = rank_one_states(np.outer(x, x))
        assert not errors and np.allclose(got[0], x, atol=1e-9)

    def test_sign_fixed(self):
        x = lift(Transform4DoF(t=[1.0, -2.0, 0.5], theta=0.9))
        got, errors = rank_one_states(np.outer(-x, -x))
        assert not errors and np.allclose(got[0], x, atol=1e-9)

    def test_dominant_direction(self):
        x = lift(Transform4DoF(t=[1.0, 0.0, 0.0], theta=0.3))
        y = np.zeros(9)
        y[2] = np.linalg.norm(x)  # orthogonal direction with smaller weight
        X = 0.9 * np.outer(x, x) + 0.1 * np.outer(y, y)
        got, errors = rank_one_states(X)
        assert not errors and np.allclose(got[0] / np.linalg.norm(got[0]), x / np.linalg.norm(x), atol=1e-9)

    def test_degenerate_is_an_error(self):
        # the zero matrix has no positive spectrum: its error is recorded, and the other matrix keeps its state
        x = lift(Transform4DoF(t=[1.0, -2.0, 0.5], theta=0.9))
        got, errors = rank_one_states(np.zeros((9, 9)), np.outer(x, x))
        assert list(errors) == [0] and isinstance(errors[0], DegenerateSolutionError)
        assert str(errors[0]) == "matrix has no positive spectrum"
        assert np.allclose(got[1], x, atol=1e-9)


class TestSolveQcqp:
    def test_noiseless_exact(self):
        for seed in range(3):
            T, ds = noiseless_instance(20 + seed)
            rep = qcqp_estimate(ds)
            et, eth = errors(rep.theta_hat, T)
            assert et <= 1e-6 and eth <= 1e-6

    def test_refinement_never_worse_than_sdp_point(self):
        T, ds = noisy_instance(21, D=0.3, n=20)  # short-arc style instance
        prob = assemble_qcqp(ds)
        T_sdp = sdp_estimate(ds).theta_hat
        # the refinement starts from the feasible projection of the SDP
        # point (||t|| pinned to the measured inter-origin distance)
        t_proj = T_sdp.t * (ds.d0 / np.linalg.norm(T_sdp.t))
        T_start = Transform4DoF(t=t_proj, theta=T_sdp.theta)
        rep = qcqp_estimate(ds)
        assert rep.solver["final_cost"] <= lifted_cost(prob, T_start) + 1e-9
        # and without the norm constraint the raw point itself is the start
        ds_free = dataclasses.replace(ds, d0=None)
        prob_free = assemble_qcqp(ds_free)
        T_sdp2 = sdp_estimate(ds_free).theta_hat
        rep2 = qcqp_estimate(ds_free)
        assert rep2.solver["final_cost"] <= lifted_cost(prob_free, T_sdp2) + 1e-9

    def test_mirror_solutions_equal_cost_on_planar_instance(self):
        # both agents on lines in the world z = 0 plane (so the true t_z is
        # zero): the vertical mirror of any candidate has identical cost
        rng = np.random.default_rng(22)
        T = Transform4DoF(t=[2.0, 1.0, 0.0], theta=0.5)
        n = 12
        pa = np.column_stack([np.linspace(0, 1, n), np.zeros(n), np.zeros(n)])
        C = T.rotation()
        wb = np.column_stack([np.linspace(1, 0.2, n), np.linspace(3, 3.5, n), np.zeros(n)])
        pb = (wb - T.t) @ C  # target local frame shares the plane
        d = true_range(T, pa, pb)
        ds = SyncedDataset(t=np.arange(float(n)), d=d, pa=pa, pb=pb, sigma_r=0.1, d0=None)
        prob = assemble_qcqp(ds)
        for dz in (0.3, 0.7, 1.4):
            cand = Transform4DoF(t=[2.1, 0.9, dz], theta=0.45)
            mirror = Transform4DoF(t=[2.1, 0.9, -dz], theta=0.45)
            assert lifted_cost(prob, mirror) == pytest.approx(lifted_cost(prob, cand), rel=1e-9)
        rep = qcqp_estimate(ds)
        assert rep.flags.configuration_singular

    @pytest.mark.parametrize("pb_z", [0.0, 0.4])
    def test_planar_agents_recover_height(self, pb_z):
        # antennas at fixed heights in both frames: the data fix t_z only up
        # to its mirror about -pb_z, and every sweep heading is in the hard
        # case of the constrained least squares
        T = Transform4DoF(t=[2.0, 1.0, 1.5], theta=0.5)
        rng = np.random.default_rng(24)
        n = 30
        pa = np.column_stack([rng.normal(0.0, 2.0, (n, 2)), np.zeros(n)])
        pb = np.column_stack([rng.normal(0.0, 2.0, (n, 2)), np.full(n, pb_z)])
        ds = SyncedDataset(t=np.arange(float(n)), d=true_range(T, pa, pb), pa=pa, pb=pb, sigma_r=1e-6)
        rep = qcqp_estimate(ds)
        assert np.allclose(rep.theta_hat.t[:2], T.t[:2], atol=1e-6)
        assert abs(rep.theta_hat.t[2] + pb_z) == pytest.approx(T.t[2] + pb_z, abs=1e-6)
        assert float(wrap_angle(rep.theta_hat.theta - T.theta)) == pytest.approx(0.0, abs=1e-6)

    def test_near_planar_cost_not_above_refined_truth_or_its_mirror(self):
        # the two mirror basins have close costs; the grid's best heading
        # may sit in the worse one while the better one hides between two
        # grid headings
        for seed in range(60, 120):
            T, ds, pb_z = near_planar_instance(seed)
            rep = qcqp_estimate(ds)
            prob = assemble_qcqp(ds)
            mirror = Transform4DoF(t=T.t * [1.0, 1.0, -1.0] - [0.0, 0.0, 2.0 * pb_z], theta=T.theta)
            reference = min(lm_refine(prob, T0)[1] for T0 in (T, mirror))
            assert rep.solver["final_cost"] <= reference * (1 + 1e-9), seed

    def test_explicit_d0_enters_as_origin_row(self):
        T, ds = noisy_instance(42)
        free = dataclasses.replace(ds, d0=None)
        d0 = 0.5 * float(np.linalg.norm(T.t))  # not the first range
        extra = dataclasses.replace(ds, d0=d0)
        prob, prob_free = assemble_qcqp(extra), assemble_qcqp(free)
        assert prob.B.shape[0] == len(ds) + 1 and prob_free.B.shape[0] == len(ds)
        var_r = ds.sigma_r**2
        origin_term = (float(T.t @ T.t) - (d0**2 - var_r)) ** 2 / (var_r * (4.0 * d0**2 + 2.0 * var_r))
        assert lifted_cost(prob, T) == pytest.approx(lifted_cost(prob_free, T) + origin_term, rel=1e-10)
        # the short d0 pulls ||t|| down, in qcqp and in nls (started at the truth) alike
        for estimate, starts in ((qcqp_estimate, ()), (nls_estimate, (T.as_vector()[None],))):
            t_extra, t_free = (estimate(data.stack(), *starts)[0][0, :3] for data in (extra, free))
            assert np.linalg.norm(t_extra) < np.linalg.norm(t_free)

    def test_rigid_motion_equivariance(self):
        T, ds = noiseless_instance(23)
        rep1 = qcqp_estimate(ds)
        psi = 0.8
        R = Transform4DoF(t=np.zeros(3), theta=psi).rotation()
        rotated = dataclasses.replace(ds, pa=ds.pa @ R.T)
        rep2 = qcqp_estimate(rotated)
        assert np.allclose(rep2.theta_hat.t, R @ rep1.theta_hat.t, atol=1e-6)
        assert float(wrap_angle(rep2.theta_hat.theta - rep1.theta_hat.theta)) == pytest.approx(
            psi, abs=1e-6
        )

    def test_report_fields(self):
        T, ds = noisy_instance(24)
        rep = qcqp_estimate(ds)
        assert rep.fim.invertible.tolist() == [True] and rep.fim.std_errors.shape == (1, 4)
        assert rep.fim.kappa[0] > 1.0
        assert "final_cost" in rep.solver and "wall_ms" in rep.solver

    def test_report_carries_the_fim_it_was_built_from(self):
        T, ds = noisy_instance(24)
        extra = dataclasses.replace(ds, d0=0.8 * float(np.linalg.norm(T.t)))
        runs = (
            (qcqp_estimate, ds),
            (qcqp_estimate, extra),
            (lambda d: nls_estimate(d, T.as_vector()[None]), ds),
            (sdp_estimate, ds),
        )
        for estimate, data in runs:
            rep = estimate(data)
            ref = fim_at(rep.theta_hat.as_vector()[None], data.stack())
            assert np.array_equal(rep.fim.F, ref.F) and rep.fim.kappa[0] == ref.kappa[0]
            assert np.array_equal(rep.fim.std_errors[0], np.sqrt(np.diag(ref.crlb[0])))
            # the flags are row 0 of the report's FIM, of fim there and of fim_arrays of F
            assert rep.flags.kappa_threshold == DEFAULT_KAPPA_THRESHOLD
            for info in (rep.fim, ref, fim_arrays(ref.F)):
                assert rep.flags.configuration_singular is info.singular.tolist()[0]
                assert rep.flags.per_param_unobservable == tuple(info.unobservable.tolist()[0])
            center = rep.theta_hat.as_vector()[None]
            ci = confidence_intervals(center, rep.fim)
            assert np.array_equal(ci, confidence_intervals(center, ref))

    def test_noiseless_exact_without_d0(self):
        for seed in range(3):
            T, ds = noiseless_instance(40 + seed)
            rep = qcqp_estimate(dataclasses.replace(ds, d0=None))
            et, eth = errors(rep.theta_hat, T)
            assert et <= 1e-9 and eth <= 1e-9

    def test_d0_does_not_change_estimate(self):
        # a first range taken at both frame origins is already row 0 of B
        T, ds = noisy_instance(41)
        assert ds.d0 is not None
        rep = qcqp_estimate(ds)
        free = qcqp_estimate(dataclasses.replace(ds, d0=None))
        assert np.array_equal(rep.theta_hat.t, free.theta_hat.t)
        assert rep.theta_hat.theta == free.theta_hat.theta
        assert rep.solver["final_cost"] == free.solver["final_cost"]
        assert np.array_equal(rep.fim.std_errors, free.fim.std_errors)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d0=st.floats(1.0, 50.0),
        n=st.integers(8, 30),
        sigma_r=st.floats(0.01, 0.5),
        keep_d0=st.booleans(),
    )
    # large residual, few rows: Gauss-Newton steps needed ~150 evaluations here
    @example(seed=422089, d0=24.0, n=8, sigma_r=0.421875, keep_d0=False)
    def test_cost_not_above_multistart_refinement(self, seed, d0, n, sigma_r, keep_d0):
        T, ds = noisy_instance(seed, d0=d0, n=n, sigma_r=sigma_r)
        if not keep_d0:
            ds = dataclasses.replace(ds, d0=None)
        rep = qcqp_estimate(ds)
        # the reference refines over all four parameters, ||t|| free
        prob = assemble_qcqp(dataclasses.replace(ds, d0=None))
        rng = np.random.default_rng(seed)
        starts = [T] + [
            Transform4DoF(t=d0 * rng.standard_normal(3), theta=rng.uniform(-math.pi, math.pi)) for _ in range(10)
        ]
        reference = min(lm_refine(prob, T0)[1] for T0 in starts)
        assert rep.solver["final_cost"] <= reference * (1 + 1e-9)


class TestQcqpInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d0=st.floats(1.0, 30.0),
        n=st.integers(8, 30),
        shift=st.floats(-1e6, 1e6),
    )
    def test_row_order_and_time_shift(self, seed, d0, n, shift):
        _, ds = noisy_instance(seed, d0=d0, n=n)
        # without d0: moving row 0 would turn a first-range d0 into an extra range
        ds = dataclasses.replace(ds, d0=None)
        rep = qcqp_estimate(ds)
        shifted = qcqp_estimate(dataclasses.replace(ds, t=ds.t + shift))
        assert np.array_equal(shifted.theta_hat.t, rep.theta_hat.t)
        assert shifted.theta_hat.theta == rep.theta_hat.theta
        perm = np.random.default_rng(seed).permutation(n)
        permuted = qcqp_estimate(dataclasses.replace(ds, d=ds.d[perm], pa=ds.pa[perm], pb=ds.pb[perm]))
        prob = assemble_qcqp(ds)
        x = lift(rep.theta_hat)
        rounding = np.finfo(float).eps * float(prob.weights @ (np.abs(prob.B) @ np.abs(x)) ** 2)
        cost = rep.solver["final_cost"]
        assert permuted.solver["final_cost"] == pytest.approx(cost, rel=1e-9, abs=4.0 * rounding)
        assert np.allclose(permuted.theta_hat.t, rep.theta_hat.t, rtol=1e-6, atol=1e-6)
        assert abs(float(wrap_angle(permuted.theta_hat.theta - rep.theta_hat.theta))) <= 1e-6


class TestSqrtFactor:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), n=st.integers(1, 4))
    def test_equals_qr_mode_r_bit_for_bit(self, seed, rows, n):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, rows, 9)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1, 9))
        w = rng.uniform(0.1, 10.0, size=(n, rows))
        R = np.linalg.qr(_scaled_rows(B, w), mode="r")
        want = np.concatenate([R, np.zeros((n, 9 - R.shape[1], 9))], axis=1)  # zero rows below fewer than 9
        got = _sqrt_factor(B, w)
        assert got.shape == (n, 9, 9) and got.tobytes() == want.tobytes()


SPECTRA = ("generic", "lower_pair", "upper_pair", "equal", "zero", "rank_one", "planar")


def spectral_matrix(rng, kind: str) -> np.ndarray:
    """Symmetric Q diag(lam) Q' with the eigenvalue pattern `kind` on a random
    orthogonal basis; "planar" rotates about z only, so z is decoupled."""
    lam = np.sort(rng.normal(size=3))
    if kind == "lower_pair":
        lam[1] = lam[0]
    elif kind == "upper_pair":
        lam[2] = lam[1]
    elif kind == "equal":
        lam[:] = lam[0]
    elif kind == "zero":
        lam[:] = 0.0
    elif kind == "rank_one":
        lam[:2] = 0.0
    if kind == "planar":
        phi = rng.uniform(-math.pi, math.pi)
        Q = np.array([[math.cos(phi), -math.sin(phi), 0.0], [math.sin(phi), math.cos(phi), 0.0], [0.0, 0.0, 1.0]])
    else:
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def eigh3(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_eigh3_planes` on a stack of symmetric 3x3 matrices: the
    eigenvalues (..., 3), ascending, and the unit eigenvectors as columns
    (..., 3, 3), from the six unique entries of each matrix."""
    shape = A.shape[:-2]
    mu, U = _eigh3_planes(*A.reshape(-1, 9).T[[0, 4, 8, 1, 2, 5]])
    return np.stack(mu, axis=-1).reshape(shape + (3,)), np.stack(U, axis=-1).reshape(shape + (3, 3))


class TestEigh3:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(SPECTRA), min_size=1, max_size=8),
        log_scale=st.floats(-8.0, 8.0),
    )
    def test_matches_lapack(self, seed, kinds, log_scale):
        rng = np.random.default_rng(seed)
        A = np.array([spectral_matrix(rng, kind) for kind in kinds]) * 10.0**log_scale
        eps = np.finfo(float).eps
        norm = np.linalg.norm(A, axis=(1, 2))
        mu, U = eigh3(A)
        assert np.all(np.diff(mu, axis=1) >= 0.0)
        assert np.all(np.linalg.norm(A @ U - U * mu[:, None, :], axis=(1, 2)) <= 8 * eps * norm)
        assert np.all(np.linalg.norm(U.swapaxes(1, 2) @ U - np.eye(3), axis=(1, 2)) <= 8 * eps)
        assert np.all(np.abs(mu - np.linalg.eigh(A)[0]) <= 8 * eps * norm[:, None])
        # elementwise over the stack: a matrix alone gives the same bits
        i = int(rng.integers(len(A)))
        alone = eigh3(A[i : i + 1])
        assert alone[0].tobytes() == mu[i : i + 1].tobytes() and alone[1].tobytes() == U[i : i + 1].tobytes()

    def test_nearly_equal_eigenvalues_still_ascend(self):
        # spreads of 1e-17 to 1e-13 around 1: rounding can put the
        # trigonometric eigenvalue inside the rotated pair, about 5 in
        # 1e5 of these matrices
        rng = np.random.default_rng(0)
        n = 100_000
        Q = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        lam = 1.0 + rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-17.0, -13.0, size=(n, 1))
        A = (Q * lam[:, None, :]) @ Q.swapaxes(1, 2)
        mu, _ = eigh3(0.5 * (A + A.swapaxes(1, 2)))
        assert np.all(np.diff(mu, axis=1) >= 0.0)

    def test_non_finite_matrix_spoils_only_itself(self):
        rng = np.random.default_rng(3)
        A = np.array([spectral_matrix(rng, "generic") for _ in range(3)])
        A[1, 0, 2] = A[1, 2, 0] = np.nan
        with np.errstate(all="ignore"):
            bad = A.copy()
            bad[2] = np.inf
            mu, U = eigh3(bad)
        assert not np.isfinite(mu[1]).any() and not np.isfinite(mu[2]).any()
        good = eigh3(A[:1])
        assert good[0].tobytes() == mu[:1].tobytes() and good[1].tobytes() == U[:1].tobytes()


def sqrt_factor(ds) -> np.ndarray:
    """The refinement's 9x9 triangle: ||R x||^2 = x' P0 x / max w."""
    prob = assemble_qcqp(ds)
    return np.linalg.qr(_scaled_rows(prob.B, prob.weights), mode="r")


class TestLockstepNewton:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        t=st.lists(st.floats(-30.0, 30.0), min_size=12, max_size=12),
        theta=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    )
    def test_gradient_and_hessian_match_central_differences(self, seeds, t, theta):
        # one start per seed, each on its own window's factor; headings
        # outside [-pi, pi) included
        n = len(seeds)
        R = np.array([sqrt_factor(noisy_instance(seed, d0=10.0, D=3.0)[1]) for seed in seeds])
        p = np.column_stack([np.reshape(t, (4, 3))[:n], theta[:n]])

        def model(q):
            # f, g and H as the refinement takes them from the products of its residual rows
            M = _gram(_factor_lift(q, R), 4)
            return 0.5 * M[:, 0, 0], M[:, 1:5, 0], M[:, 1:5, 1:] + M[:, 5:, 0].reshape(-1, 4, 4)

        f, g, H = model(p)
        for i in range(n):
            r = R[i] @ lift(Transform4DoF(t=p[i, :3], theta=p[i, 3]))
            assert f[i] == pytest.approx(0.5 * float(r @ r), rel=1e-12)
        np.testing.assert_array_equal(H, H.swapaxes(1, 2))
        h = 1e-5 * np.maximum(1.0, np.abs(p))
        fd_g, fd_H = np.empty_like(g), np.empty_like(H)
        for k in range(4):
            step = np.zeros_like(p)
            step[:, k] = h[:, k]
            (f_hi, g_hi, _), (f_lo, g_lo, _) = model(p + step), model(p - step)
            fd_g[:, k] = (f_hi - f_lo) / (2.0 * h[:, k])
            fd_H[:, :, k] = (g_hi - g_lo) / (2.0 * h[:, k, None])
        for i in range(n):
            np.testing.assert_allclose(g[i], fd_g[i], rtol=1e-6, atol=1e-8 * (f[i] + np.abs(g[i]).max()))
            np.testing.assert_allclose(H[i], fd_H[i], rtol=1e-6, atol=1e-7 * np.abs(H[i]).max())

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        others=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        at=st.integers(0, 6),
    )
    def test_start_alone_equals_start_in_a_stack(self, seed, others, at):
        # lockstep: a start's sequence does not depend on the other starts,
        # however many iterations they need
        starts = []
        for s in [seed, *others]:
            T, ds = noisy_instance(s, d0=float(np.random.default_rng(s).uniform(1.0, 40.0)), n=10, sigma_r=0.4)
            cand = sweep_candidates(assemble_qcqp(ds))[-1]
            starts.append((sqrt_factor(ds), cand.as_vector()))
        at = min(at, len(others))
        stack = starts[1:]
        stack.insert(at, starts[0])
        alone = lockstep_newton(_factor_lift, starts[0][1][None], max_iter=60, data=(starts[0][0][None],))
        got = lockstep_newton(_factor_lift, np.array([p for _, p in stack]), max_iter=60, data=(np.array([R for R, _ in stack]),))
        for field in ("p", "cost", "iterations", "evals", "status"):
            np.testing.assert_array_equal(getattr(got, field)[at], getattr(alone, field)[0], err_msg=field)

    def test_large_residual_window_converges_in_few_steps(self):
        # few rows, large residual: Gauss-Newton steps, without the
        # curvature term, take 122 accepted steps here; Newton takes 6
        T, ds = noisy_instance(422089, d0=24.0, n=8, sigma_r=0.421875)
        rep = qcqp_estimate(dataclasses.replace(ds, d0=None))
        assert rep.solver["restarts"] == 1 and rep.solver["iterations"] <= 12

    def test_noiseless_truth_start_stays_at_the_truth(self):
        # zero residual at the start, up to rounding: the gradient test or
        # the negligible-decrease test stops it at once
        T, ds = noiseless_instance(5)
        R = sqrt_factor(dataclasses.replace(ds, d0=None))
        res = lockstep_newton(_factor_lift, T.as_vector()[None], data=(R[None],))
        assert res.status[0] == CONVERGED and res.evals[0] <= 2
        assert np.allclose(res.p[0], T.as_vector(), atol=1e-9)


# a window whose largest range is 1e141 m leaves the refinement no finite
# start; 6e153 m, whose 4 d^2 is still finite as the dataset requires,
# leaves the sweep no finite grid cost
SPOILT_SCALES = [1e141, 6e153]


class TestStackedWindows:
    """`sliding_window_estimate` solves its qcqp and sdp windows in one
    stacked pass; each window of its track must come out as `qcqp_estimate`
    or `sdp_estimate` of that window alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(10, 40),
        stride=st.integers(1, 45),
        n_windows=st.integers(1, 20),
        parked=st.one_of(st.none(), st.integers(0, 19)),
    )
    def test_stack_equals_stack_of_one(self, seed, window, stride, n_windows, parked):
        # `parked` parks both agents over one window, which the kappa gate skips
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, window + stride * (n_windows - 1) + int(rng.integers(0, stride)))
        if parked is not None:
            a = stride * (parked % n_windows)
            stream = park(stream, a, a + window)
        track = sliding_window_estimate(stream, window=window, stride=stride)
        assert isinstance(track, WindowTrack)
        assert track.start.tolist() == [stride * i for i in range(n_windows)]
        for i, (a, b) in enumerate(zip(track.start.tolist(), track.stop.tolist())):
            one = stream.windows([a], b - a)
            estimates, scalars, _ = points = qcqp_estimate(one)
            info = _information(points, one)
            assert track.estimate[i].tobytes() == estimates[0].tobytes(), i
            assert track.cost[i] == scalars["final_cost"][0]
            assert track.kappa[i] == info.kappa[0]
            assert track.skipped[i] == (not info.kappa[0] <= WINDOW_KAPPA_LIMIT)
            assert track.t_end[i] == stream.t[b - 1]

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(10, 40),
        stride=st.integers(1, 45),
        n_windows=st.integers(1, 8),
        parked=st.one_of(st.none(), st.integers(0, 7)),
    )
    def test_sdp_stack_equals_sdp_estimate(self, seed, window, stride, n_windows, parked):
        # the sdp windows are one lockstep relaxation: each must come out as
        # `sdp_estimate` of that window alone, bit for bit, errors included
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, window + stride * (n_windows - 1))
        if parked is not None:
            a = stride * (parked % n_windows)
            stream = park(stream, a, a + window)
        refs = []
        try:
            for start in range(0, stride * n_windows, stride):
                one = stream.windows([start], window)
                points = sdp_estimate(one)
                refs.append((points, _information(points, one)))  # which raises the window's error
        except DegenerateSolutionError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                sliding_window_estimate(stream, window=window, stride=stride, estimator="sdp")
            return
        track = sliding_window_estimate(stream, window=window, stride=stride, estimator="sdp")
        assert len(track) == len(refs) == n_windows
        for i, ((estimates, scalars, _), info) in enumerate(refs):
            assert track.estimate[i].tobytes() == estimates[0].tobytes(), i
            assert track.cost[i] == scalars["final_cost"][0]
            assert track.kappa[i] == info.kappa[0]
            assert track.skipped[i] == (not info.kappa[0] <= WINDOW_KAPPA_LIMIT)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(10, 40),
        stride=st.integers(1, 45),
        n_windows=st.integers(1, 10),
        parked=st.one_of(st.none(), st.integers(0, 9)),
        estimator=st.sampled_from(["qcqp", "sdp", "nls"]),
    )
    def test_track_information_is_the_fim_at_each_estimate(self, seed, window, stride, n_windows, parked, estimator):
        # kappa and the CRLB of every window, skipped or not, are those of
        # `fim` at the window's estimate on the window alone, bit for bit;
        # NaN where that CRLB does not exist
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, window + stride * (n_windows - 1))
        if parked is not None:
            a = stride * (parked % n_windows)
            stream = park(stream, a, a + window)
        try:
            track = sliding_window_estimate(stream, window=window, stride=stride, estimator=estimator)
        except DegenerateSolutionError:
            assert estimator == "sdp"  # a loose relaxation: the sdp test above covers its error
            return
        for i, (a, b) in enumerate(zip(track.start.tolist(), track.stop.tolist())):
            ref = fim_at(track.estimate[i : i + 1], stream.windows([a], b - a))
            assert track.kappa[i] == ref.kappa[0], i
            assert track.crlb[i].tobytes() == ref.crlb[0].tobytes(), i

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(10, 30),
        stride=st.integers(1, 35),
        n_windows=st.integers(2, 20),
        bad=st.lists(st.integers(0, 19), min_size=2, max_size=2),
        scales=st.permutations(SPOILT_SCALES),
    )
    def test_degenerate_window_raises_what_one_by_one_raises(self, seed, window, stride, n_windows, bad, scales):
        # two windows spoilt apart tell whose error is raised
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, window + stride * (n_windows - 1))
        d = stream.d.copy()
        for j, scale in zip(bad, scales):
            a = stride * (j % n_windows)
            d[a : a + window] = stream.d[a : a + window] * (scale / stream.d[a : a + window].max())
        stream = dataclasses.replace(stream, d=d)
        expected = None
        with np.errstate(all="ignore"):
            for start in range(0, stride * n_windows, stride):
                one = stream.windows([start], window)
                try:
                    _information(qcqp_estimate(one), one)  # raises the window's error
                except Exception as exc:  # noqa: BLE001 - the first error of the loop is the reference
                    expected = exc
                    break
            assert expected is not None
            with pytest.raises(type(expected)) as got:
                sliding_window_estimate(stream, window=window, stride=stride)
        assert str(got.value) == str(expected)


    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(10, 30),
        stride=st.integers(1, 35),
        n_windows=st.integers(2, 12),
        bad=st.lists(st.integers(0, 11), min_size=2, max_size=2),
        scales=st.permutations(SPOILT_SCALES),
        estimator=st.sampled_from(["qcqp", "sdp"]),
    )
    def test_point_stage_records_every_problems_own_error(self, seed, window, stride, n_windows, bad, scales, estimator):
        # the point stage runs every problem of the stack, failing or not:
        # each problem's error, estimate and solver scalars are those of the
        # estimator on that problem alone, and a failed problem's estimate is NaN
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, window + stride * (n_windows - 1))
        d = stream.d.copy()
        for j, scale in zip(bad, scales):
            a = stride * (j % n_windows)
            d[a : a + window] = stream.d[a : a + window] * (scale / stream.d[a : a + window].max())
        stream = dataclasses.replace(stream, d=d)
        starts = np.arange(n_windows) * stride
        with np.errstate(all="ignore"):
            estimates, scalars, errors = ESTIMATORS[estimator](stream.windows(starts, window))
            assert errors and estimates.shape == (n_windows, 4)
            for i, start in enumerate(starts.tolist()):
                ref_estimates, ref_scalars, ref_errors = ESTIMATORS[estimator](stream.windows([start], window))
                if ref_errors:  # the estimator's own error is the reference
                    exc = ref_errors[0]
                    assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc), i
                    assert np.isnan(estimates[i]).all()
                    continue
                assert i not in errors
                assert estimates[i].tobytes() == ref_estimates[0].tobytes(), i
                solver = {name: values.tolist()[i] for name, values in scalars.items()}
                ref = {name: values.tolist()[0] for name, values in ref_scalars.items()}
                assert {**solver, "wall_ms": 0} == {**ref, "wall_ms": 0}


def sweep_candidates(prob) -> list[Transform4DoF]:
    """The sweep's candidates of one assembled problem, lowest cost first:
    `_sweep_stack` on a stack of one, which must record no error."""
    t, heading, count, errors = _sweep_stack(prob.P0[None])
    assert not errors
    return [Transform4DoF(t=t[0, i], theta=float(_SWEEP_THETA[heading[0, i]])) for i in range(count[0])]


class TestYawSweep:
    @pytest.mark.parametrize("keep_d0", [True, False])
    def test_noiseless_candidate_brackets_true_heading(self, keep_d0):
        # the noiseless profile cost is 0 at the true heading, so a grid
        # minimum sits on one of the two grid headings around it
        step = 2.0 * math.pi / SWEEP_HEADINGS
        for seed in range(20):
            T, ds = noiseless_instance(60 + seed, d0=1.0 + 2.5 * seed)
            if not keep_d0:
                ds = dataclasses.replace(ds, d0=None)
            cands = sweep_candidates(assemble_qcqp(ds))
            assert 1 <= len(cands) <= SWEEP_CANDIDATES
            assert min(abs(float(wrap_angle(c.theta - T.theta))) for c in cands) < step

    def test_candidate_minimises_cost_at_its_heading(self):
        # the best candidate solves its heading's constrained problem
        # globally: no refinement of t alone, from any start, gets lower
        # (a mirror candidate is only a local minimum at its heading)
        T, ds = noisy_instance(81, d0=15.0, n=12, sigma_r=0.3)
        prob = assemble_qcqp(dataclasses.replace(ds, d0=None))
        Bw = prob.B * np.sqrt(prob.weights)[:, None]
        rng = np.random.default_rng(81)
        cand = sweep_candidates(prob)[0]
        th = cand.theta

        def residuals(t):
            return Bw @ lift(Transform4DoF(t=t, theta=th))

        def jac(t):
            return Bw @ lift_jacobian(t, th)[:, :3]

        for t0 in [T.t, *(15.0 * rng.standard_normal((10, 3)))]:
            res = lm_least_squares(residuals, jac, t0)
            local = lifted_cost(prob, Transform4DoF(t=res.x, theta=th))
            assert lifted_cost(prob, cand) <= local * (1 + 1e-9)

    def test_static_agents_give_candidates_on_the_range_sphere(self):
        # static data puts every heading in the hard case: the candidates
        # must still meet the ranges, not collapse to t = 0 at the origins
        n = 10
        for pa, pb in [(np.zeros((n, 3)), np.zeros((n, 3))), (np.ones((n, 3)), np.tile([0.0, 2.0, 0.0], (n, 1)))]:
            ds = SyncedDataset(t=np.arange(float(n)), d=np.linspace(2.9, 3.1, n), pa=pa, pb=pb, sigma_r=0.1)
            cands = sweep_candidates(assemble_qcqp(ds))
            assert 1 <= len(cands) <= SWEEP_CANDIDATES
            for c in cands:
                assert np.all(np.isfinite(c.t)) and math.isfinite(c.theta)
                assert float(true_range(c, pa[0], pb[0])) == pytest.approx(3.0, abs=0.01)

    def test_candidates_sorted_by_cost(self):
        T, ds = noisy_instance(80, d0=20.0, sigma_r=0.4)
        prob = assemble_qcqp(ds)
        costs = [lifted_cost(prob, c) for c in sweep_candidates(prob)]
        assert costs == sorted(costs)


# multiple of eps times the reference's first-order rounding bounds within
# which the sweep's grid costs and translations must agree with the
# reference's; on 10^4 problems of each kind below the translations differ
# by at most 1.6 of their bound
SWEEP_MARGIN = 16.0


def sweep_problem(kind: str, seed: int) -> np.ndarray:
    """P0 of one sweep test problem of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "static":  # every heading in the hard case, and every grid cost tied
        n = int(rng.integers(3, 20))
        pa, pb = np.tile(rng.normal(size=3), (n, 1)), np.tile(rng.normal(size=3), (n, 1))
        d = rng.uniform(1.0, 20.0) + 0.1 * rng.standard_normal(n)
        ds = SyncedDataset(t=np.arange(float(n)), d=d, pa=pa, pb=pb, sigma_r=0.1)
    elif kind == "near_planar":
        ds = near_planar_instance(seed)[1]
    else:  # "noisy", or "few": fewer rows than the lift has entries
        n = int(rng.integers(9, 31)) if kind == "noisy" else int(rng.integers(3, 9))
        ds = noisy_instance(seed, d0=rng.uniform(1.0, 40.0), n=n, sigma_r=rng.uniform(0.01, 0.5))[1]
        if kind == "few":
            ds = dataclasses.replace(ds, d0=None)
    return assemble_qcqp(ds).P0


class TestSweepAgainstReference:
    """The sweep on coefficient planes against the per-heading reference sweep."""

    @settings(max_examples=40, deadline=None)
    @given(
        problems=st.lists(
            st.tuples(st.sampled_from(["noisy", "few", "near_planar", "static"]), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=20,
        ),
        spoil=st.none() | st.tuples(st.integers(0, 19), st.sampled_from([math.nan, math.inf])),
    )
    def test_candidates_match_the_reference(self, problems, spoil):
        P0 = np.array([sweep_problem(kind, seed) for kind, seed in problems])
        W, rows, eps = len(P0), np.arange(len(P0)), np.finfo(float).eps
        ref = reference_sweep(P0)
        t, heading, count, errors = _sweep_stack(P0)
        assert not errors and np.all(count >= 1) and np.all(ref.count >= 1)
        tol = SWEEP_MARGIN * eps * ref.cost_rounding
        # b: which of the two reference points at its heading each candidate is
        b =np.argmin(np.linalg.norm(ref.points.transpose(0, 2, 1, 3)[rows[:, None], heading] - t[:, :, None], axis=-1), axis=-1)
        # the first candidate holds the lowest grid cost, up to the margins, near-ties included
        best = np.argmin(ref.cost.reshape(W, -1), axis=1)
        first = ref.cost[rows, b[:, 0], heading[:, 0]] - ref.cost.reshape(W, -1)[rows, best]
        assert np.all(first <= tol[rows, b[:, 0], heading[:, 0]] + tol.reshape(W, -1)[rows, best])
        # where no comparison is within the margins, the same candidates in the same order
        for i in np.flatnonzero(clear_decisions(ref, SWEEP_MARGIN)):
            k = count[i]
            assert k == ref.count[i] and np.array_equal(heading[i, :k], ref.heading[i, :k]), problems[i]
            bound = SWEEP_MARGIN * eps * ref.t_rounding[i, b[i, :k], heading[i, :k]]
            assert np.all(np.linalg.norm(t[i, :k] - ref.t[i, :k], axis=-1) <= bound), problems[i]
        # elementwise across the stack: a problem alone gives the same bits
        i = len(problems) // 2
        alone = _sweep_stack(P0[i : i + 1])
        for got, want in zip(alone[:3], (t, heading, count)):
            assert got.tobytes() == want[i : i + 1].tobytes()
        if spoil is not None:
            # one non-finite problem gets no candidate and leaves the others as they were
            i = spoil[0] % W
            bad = P0.copy()
            bad[i, 0, 8] = bad[i, 8, 0] = spoil[1]
            with np.errstate(all="ignore"):
                t_bad, heading_bad, count_bad, errors_bad = _sweep_stack(bad)
            assert count_bad[i] == 0 and list(errors_bad) == [i]
            keep = rows != i
            for got, want in zip((t_bad, heading_bad, count_bad), (t, heading, count)):
                assert got[keep].tobytes() == want[keep].tobytes()


class TestSweepChunks:
    """`_sweep_stack` across chunk boundaries, and the planes a chunk holds at once."""

    def test_problems_across_chunk_boundaries_match_each_alone(self):
        # three chunks, the last one partial: every problem gets the bits it gets alone
        kinds = ["noisy", "few", "near_planar", "static"]
        W = 2 * SWEEP_CHUNK + 3
        P0 = np.array([sweep_problem(kinds[i % len(kinds)], 7000 + i) for i in range(W)])
        t, heading, count, errors = _sweep_stack(P0)
        assert not errors and t.shape == (W, SWEEP_CANDIDATES, 3)
        for i in range(W):
            alone = _sweep_stack(P0[i : i + 1])
            for got, want in zip(alone[:3], (t, heading, count)):
                assert got.tobytes() == want[i : i + 1].tobytes(), i

    def test_peak_memory_is_the_live_planes_of_the_rotation(self):
        # the SWEEP_CHUNK comment's budget per problem: at the sweep's peak, in
        # the 2x2 rotation of `_eigh3_planes`, the live (SWEEP_HEADINGS,)
        # planes are M's 15, 2 w, the Schur complement's 6 and the
        # eigensolver's 28: the mean m, K's diagonal (3), lam, v (3), the
        # complement basis a, b (6), the projected block (3), the rotation's
        # dl, den, t, c, s, t ga, lo, hi and its two results with -c (3).
        # Bool planes are 1/8 of a float plane: top and one dl < 0
        budget = (15 + 1 + 6 + 28 + 2 / 8) * SWEEP_HEADINGS * np.dtype(float).itemsize
        P0 = np.array([sweep_problem("noisy", i) for i in range(SWEEP_CHUNK)])
        peaks = []
        for stack in (P0[:1], P0):
            _sweep(stack)  # first-call allocations are not the sweep's
            tracemalloc.start()
            try:
                _sweep(stack)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # what does not grow with the stack (Python objects, scalars) cancels
        assert peaks[1] - peaks[0] <= (SWEEP_CHUNK - 1) * budget


class TestNls:
    def test_truth_start_noiseless(self):
        T, ds = noiseless_instance(25)
        # nominal sigma keeps ulp-level residuals below the gradient tolerance
        ds = dataclasses.replace(ds, sigma_r=0.1)
        rep = nls_estimate(ds, T.as_vector()[None])
        assert rep.solver["iterations"] <= 2
        assert rep.solver["final_cost"] <= 1e-12
        et, eth = errors(rep.theta_hat, T)
        assert et <= 1e-9 and eth <= 1e-9

    def test_perturbed_start_converges_back(self):
        T, ds = noisy_instance(26, sigma_r=0.01, sigma_o=0.0)
        T0 = Transform4DoF(t=T.t + 0.1, theta=T.theta + 0.1)
        rep = nls_estimate(ds, T0.as_vector()[None])
        assert rep.solver["iterations"] <= 10
        et, eth = errors(rep.theta_hat, T)
        assert et <= 0.05 and eth <= 0.05

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d0=st.floats(35.0, 45.0), n=st.integers(8, 30))
    def test_ill_conditioned_instance_ends_within_rounding_of_another_start(self, seed, d0, n):
        # ~40 m ranges measured to 1 cm over ~1 m of motion: the rows of the
        # Jacobian nearly agree. From the truth and from the qcqp estimate
        # nls reaches one minimum, and the two final costs differ by no more
        # than the rounding of the cost, eps * sum_i |r_i| (d_i + d_meas_i) / sigma
        T, ds = noisy_instance(seed, d0=d0, n=n, sigma_r=0.01)
        a = nls_estimate(ds, T.as_vector()[None])
        b = nls_estimate(ds, qcqp_estimate(ds).theta_hat.as_vector()[None])
        assert a.solver["converged"] and b.solver["converged"]
        assert np.linalg.norm(a.theta_hat.t - b.theta_hat.t) <= 1e-3
        rows = ds.stack()
        pa, pb, d = rows.pa[0], rows.pb[0], rows.d[0]
        dist = np.linalg.norm(b.theta_hat.t + pb @ b.theta_hat.rotation().T - pa, axis=1)
        rounding = np.finfo(float).eps * float(np.abs(dist - d) @ (dist + d)) / ds.sigma_r**2
        assert abs(a.solver["final_cost"] - b.solver["final_cost"]) <= 4.0 * rounding

    def test_only_nls_takes_a_start(self):
        # the global qcqp and sdp search every heading: a start given to them
        # is an error, not silently dropped; nls reads its start, from zero by default
        T, ds = noisy_instance(28)
        stack, start = ds.stack(), T.as_vector()[None]
        for estimate in (qcqp_estimate, sdp_estimate):
            for data in (ds, stack):
                with pytest.raises(TypeError):
                    estimate(data, start)
        for starts in ((start,), (None,), ()):
            estimates, scalars, _ = nls_estimate(stack, *starts)
            want, want_scalars, _ = _nls_points(stack, *starts)
            assert estimates.tobytes() == want.tobytes()
            assert scalars["iterations"].tolist() == want_scalars["iterations"].tolist()
        assert nls_estimate(stack, None)[0].tobytes() == nls_estimate(stack, np.zeros((1, 4)))[0].tobytes()
        assert nls_estimate(ds, start).theta_hat.as_vector().tobytes() == nls_estimate(stack, start)[0][0].tobytes()

    def test_zero_init_hard_instance_reports_outcome(self):
        # large separation, wide motion: a zero initial guess may settle in
        # a poor local minimum; the report must say so rather than fail
        T, ds = noisy_instance(27, d0=50.0, D=20.0, n=20)
        rep = nls_estimate(ds)
        assert rep.solver["method"] == "nls"
        assert "converged" in rep.solver

    def test_slow_zero_start_converges_within_the_refinement_budget(self):
        # Gauss-Newton steps converge only linearly on this default-cell
        # trial's large residuals: from zero it takes 197 accepted steps
        _, ds = trial_data(ScenarioConfig(seed=5137, trials=1), 0)
        rep = nls_estimate(ds)
        assert rep.solver["status"] == "converged"
        assert rep.solver["iterations"] > 100


def per_sample_alignment(stream, track):
    """Reference of `align_target_trajectory`: each sample mapped by the
    latest non-skipped window ending at or before it, one sample at a time;
    of windows ending together, the last one in the track. A sample before
    every estimate stays NaN."""
    done = sorted((i for i in range(len(track)) if not track.skipped[i]), key=lambda i: track.stop[i])
    ref, current, j = np.full((len(stream), 3), np.nan), None, 0
    for i in range(len(stream)):
        while j < len(done) and track.stop[done[j]] <= i + 1:
            current = Transform4DoF(t=track.estimate[done[j], :3], theta=track.estimate[done[j], 3])
            j += 1
        if current is not None:
            ref[i] = current.t + current.rotation() @ stream.pb[i]
    return ref


def window_estimate(track, i):
    return Transform4DoF(t=track.estimate[i, :3], theta=track.estimate[i, 3])


def random_transform(rng):
    return Transform4DoF(t=rng.normal(0.0, 5.0, 3), theta=rng.uniform(-math.pi, math.pi))


class TestSlidingWindow:
    def _constant_truth_stream(self, seed, n=200):
        cfg = ScenarioConfig(d0=3.0, D=1.0, n_poses=n, sigma_r=0.05, sigma_o=0.0, trials=1, seed=seed)
        T, ds = trial_data(cfg, 0)
        return T, dataclasses.replace(ds, d0=None)

    def test_constant_truth_estimates_stay_put(self):
        T, stream = self._constant_truth_stream(30)
        track = sliding_window_estimate(stream, window=50, stride=50)
        done = np.flatnonzero(~track.skipped).tolist()
        assert len(done) >= 3
        for i in done:
            et, eth = errors(window_estimate(track, i), T)
            assert et < 0.5 and eth < 0.3

    def test_unknown_estimator_rejected(self):
        _, stream = self._constant_truth_stream(30, n=60)
        with pytest.raises(ValueError, match="unknown estimator 'lm'"):
            sliding_window_estimate(stream, window=50, estimator="lm")

    def test_hovering_segment_skipped(self):
        _, stream = self._constant_truth_stream(31, n=100)
        # both agents hover over the second half
        track = sliding_window_estimate(park(stream, 49, 100), window=50, stride=25)
        # the all-hover window's ranges are all alike: its FIM has rank 1
        assert track.skipped[-1] and not track.kappa[-1] <= WINDOW_KAPPA_LIMIT
        assert not track.skipped[:2].all()

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_window_cost_not_above_previous_estimate_starts(self, seed, monkeypatch):
        # windows get no warm start: the sweep must do at least as well as
        # LM from the previous estimate, its heading flip and its z-mirror
        from range_rte import simulation

        streams = []

        def recording(stream, **kwargs):
            streams.append(stream)
            return sliding_window_estimate(stream, **kwargs)

        monkeypatch.setattr(simulation, "sliding_window_estimate", recording)
        cfg = DriftConfig(d0=15.0, sigma_r=0.1, sigma_o=0.001, seed=seed, duration=30.0, rate=25.0)
        track = simulation.drift_scenario(cfg).windows
        prev, checked = None, 0
        for i, (a, b) in enumerate(zip(track.start.tolist(), track.stop.tolist())):
            if prev is not None:
                stacked = assemble_qcqp(streams[0].windows([a], b - a))
                prob = dataclasses.replace(stacked, P0=stacked.P0[0], B=stacked.B[0], weights=stacked.weights[0])
                starts = (
                    prev,
                    Transform4DoF(t=prev.t, theta=prev.theta + math.pi),
                    Transform4DoF(t=prev.t * [1.0, 1.0, -1.0], theta=prev.theta),
                )
                reference = min(lm_refine(prob, T0)[1] for T0 in starts)
                assert track.cost[i] <= reference * (1 + 1e-9), i
                checked += 1
            if not track.skipped[i]:
                prev = window_estimate(track, i)
        assert checked >= 10

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(10, 40),
        stride=st.integers(1, 45),
        n_windows=st.integers(2, 8),
        parked=st.one_of(st.none(), st.integers(0, 7)),
    )
    def test_nls_windows_start_from_the_previous_estimate(self, seed, window, stride, n_windows, parked):
        # nls windows run in order: each starts from the estimate of the
        # last window that was not skipped, the first one from zero;
        # `parked` parks both agents over one window, which the kappa gate skips
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, window + stride * (n_windows - 1))
        if parked is not None:
            a = stride * (parked % n_windows)
            stream = park(stream, a, a + window)
        track = sliding_window_estimate(stream, window=window, stride=stride, estimator="nls")
        assert len(track) == n_windows
        prev = None
        for i, (a, b) in enumerate(zip(track.start.tolist(), track.stop.tolist())):
            one = stream.windows([a], b - a)
            estimates, scalars, _ = points = nls_estimate(one, prev)
            info = _information(points, one)
            assert track.estimate[i].tobytes() == estimates[0].tobytes(), i
            assert track.cost[i] == scalars["final_cost"][0]
            assert track.kappa[i] == info.kappa[0]
            assert track.skipped[i] == (not info.kappa[0] <= WINDOW_KAPPA_LIMIT)
            if not track.skipped[i]:
                prev = estimates

    def test_alignment_equals_per_sample_reference(self):
        _, stream = self._constant_truth_stream(33, n=200)
        track = sliding_window_estimate(stream, window=50, stride=30)
        got = align_target_trajectory(stream, track)
        ref = per_sample_alignment(stream, track)
        assert np.isnan(ref).any()  # the samples before the first estimate
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=8 * np.finfo(float).eps * np.nanmax(np.abs(ref)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_gathered_alignment_equals_per_sample_reference(self, data):
        # synthetic window estimates, no solver: any stream length, strides
        # below, at and above the window, any skipped subset, repeated
        # windows (ties in stop) and any order
        n = data.draw(st.integers(1, 120), label="n")
        window = data.draw(st.integers(1, 40), label="window")
        shift = data.draw(st.integers(1, 10), label="shift")
        stride = data.draw(st.sampled_from([max(window - shift, 1), window, window + shift]), label="stride")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        starts = range(0, n - window + 1, stride)
        skipped = data.draw(st.lists(st.booleans(), min_size=len(starts), max_size=len(starts)), label="skipped")
        rows = [(a, skip, random_transform(rng).as_vector()) for a, skip in zip(starts, skipped)]
        repeated = data.draw(st.lists(st.sampled_from(rows), max_size=3), label="repeated") if rows else []
        rows += [(a, skip, random_transform(rng).as_vector()) for a, skip, _ in repeated]
        rows = data.draw(st.permutations(rows), label="order")
        start = np.array([a for a, _, _ in rows], dtype=int)
        skipped = np.array([skip for _, skip, _ in rows], dtype=bool)
        W = len(rows)
        track = WindowTrack(
            start=start,
            stop=start + window,
            t_end=(start + window - 1).astype(float),
            estimate=np.array([est for _, _, est in rows]).reshape(W, 4),
            cost=np.zeros(W),
            kappa=np.where(skipped, math.inf, 1.0),
            crlb=np.zeros((W, 4, 4)),
            skipped=skipped,
        )
        stream = SyncedDataset(t=np.arange(float(n)), d=np.ones(n), pa=np.zeros((n, 3)), pb=rng.normal(0.0, 10.0, (n, 3)), sigma_r=0.1)
        got = align_target_trajectory(stream, track)
        ref = per_sample_alignment(stream, track)
        assert got.shape == (n, 3)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        scale = np.nanmax(np.abs(ref), initial=1.0)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=8 * np.finfo(float).eps * scale)

    def test_window_minimum_size(self):
        T, stream = self._constant_truth_stream(32, n=30)
        with pytest.raises(ValueError):
            sliding_window_estimate(stream, window=5)
        for stride in (0, -1):
            with pytest.raises(ValueError):
                sliding_window_estimate(stream, window=10, stride=stride)
