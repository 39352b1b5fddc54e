import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from range_rte.geometry import (
    LeverArm,
    Transform4DoF,
    apply_transform,
    heading_rotation,
    quat_to_matrix,
    yaw_quat,
)
from range_rte.measurement import (
    NoOverlapError,
    SyncedDataset,
    SyncedStack,
    at_frame_origins,
    debias_squared,
    ingest_logs,
    odometry_log,
    range_log,
    range_rate_outliers,
    true_range,
)


def make_dataset(pa, pb, d, sigma_r=0.1, d0=None):
    return SyncedDataset(t=np.arange(float(len(d))), d=d, pa=pa, pb=pb, sigma_r=sigma_r, d0=d0)


class TestTrueRange:
    def test_pure_translation(self):
        T = Transform4DoF(t=[3.0, 0.0, 0.0], theta=0.0)
        assert true_range(T, np.zeros(3), np.zeros(3)) == pytest.approx(3.0)

    def test_rotation_preserves_norm(self):
        pb = np.array([1.0, 2.0, -0.5])
        for theta in np.linspace(-math.pi, math.pi, 9):
            T = Transform4DoF(t=np.zeros(3), theta=theta)
            assert true_range(T, np.zeros(3), pb) == pytest.approx(np.linalg.norm(pb))

    def test_matches_compose_then_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            T = Transform4DoF(t=rng.normal(size=3), theta=rng.uniform(-math.pi, math.pi))
            pa, pb = rng.normal(size=3), rng.normal(size=3)
            expected = np.linalg.norm(apply_transform(T, pb) - pa)
            assert true_range(T, pa, pb) == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(1)
        T = Transform4DoF(t=rng.normal(size=3), theta=0.4)
        pa, pb = rng.normal(size=3), rng.normal(size=3)
        d0 = true_range(T, pa, pb)
        # move the host frame: rotate by psi about the origin and shift
        psi, shift = 0.8, rng.normal(size=3)
        R = heading_rotation(psi)
        T2 = Transform4DoF(t=R @ T.t + shift, theta=T.theta + psi)
        assert true_range(T2, R @ pa + shift, pb) == pytest.approx(float(d0), rel=1e-12)


class TestIngest:
    def _odom(self, n, dt, offset=0.0, vel=(0.0, 0.0, 0.0)):
        t = offset + np.arange(n) * dt
        return odometry_log(t, t[:, None] * np.asarray(vel), yaw_quat(0.0))

    def test_range_on_odometry_timestamp_uses_pose(self):
        odom_a = self._odom(5, 1.0)
        odom_b = self._odom(5, 1.0)
        ranges = range_log([2.0], [5.0])
        ds, dropped = ingest_logs(odom_a, odom_b, ranges, sigma_r=0.1)
        assert dropped == 0
        assert np.array_equal(ds.pa[0], odom_a["p"][2])

    def test_static_agents(self):
        odom_a = odometry_log(np.arange(4.0), np.zeros((4, 3)))
        odom_b = odometry_log(np.arange(4.0), np.tile([5.0, 0.0, 0.0], (4, 1)))
        ranges = range_log([1.5], [5.0])
        ds, _ = ingest_logs(odom_a, odom_b, ranges)
        assert np.allclose(ds.pa[0], [0.0, 0.0, 0.0])
        assert np.allclose(ds.pb[0], [5.0, 0.0, 0.0])

    def test_37hz_against_200hz_over_10s(self):
        odom_a = self._odom(2001, 1.0 / 200.0)
        odom_b = self._odom(2001, 1.0 / 200.0)
        t = np.array([i / 37.0 for i in range(1000) if i / 37.0 <= 12.0])
        ranges = range_log(t[t < 10.5], 3.0)
        ds, dropped = ingest_logs(odom_a, odom_b, ranges)
        # odometry covers [0, 10]; 37 Hz ranges land 370 +- 1 samples inside
        assert abs(len(ds) - 370) <= 1
        assert len(ds) + dropped == len(ranges)

    def test_uncovered_ranges_dropped(self):
        odom_a = self._odom(11, 1.0)
        odom_b = self._odom(11, 1.0, offset=2.0)  # covers [2, 12]
        ranges = range_log([0.5, 1.5, 3.0, 9.0, 11.0], 1.0)
        ds, dropped = ingest_logs(odom_a, odom_b, ranges)
        assert dropped == 3  # 0.5, 1.5 before overlap; 11.0 after host coverage... host covers [0,10]
        assert ds.t.tolist() == [3.0, 9.0]

    def test_no_overlap_raises(self):
        odom_a = self._odom(5, 1.0)
        odom_b = self._odom(5, 1.0, offset=100.0)
        with pytest.raises(NoOverlapError):
            ingest_logs(odom_a, odom_b, range_log([2.0], [1.0]))

    def test_lever_arm_applied(self):
        pose = odometry_log(np.arange(3.0), np.tile([1.0, 0.0, 0.0], (3, 1)), yaw_quat(math.pi / 2))
        arm = LeverArm([0.1, 0.0, 0.0])
        ds, _ = ingest_logs(pose, pose, range_log([1.0], [1.0]), arm_a=arm, arm_b=LeverArm())
        # 90 degree yaw turns the +x arm into +y
        assert np.allclose(ds.pa[0], [1.0, 0.1, 0.0], atol=1e-12)
        assert np.allclose(ds.pb[0], [1.0, 0.0, 0.0])

    def test_output_timestamps_subset_of_input(self):
        odom = self._odom(20, 0.5)
        ranges = range_log(0.3 + 0.7 * np.arange(12), 2.0)
        ds, dropped = ingest_logs(odom, odom, ranges)
        in_times = set(ranges["t"].tolist())
        assert all(t in in_times for t in ds.t)

    def test_d0_defaults_to_first_range(self):
        odom = self._odom(5, 1.0)
        ds, _ = ingest_logs(odom, odom, range_log([1.0, 2.0], [4.2, 4.4]))
        assert ds.d0 == pytest.approx(4.2)

    def test_d0_unset_when_antennas_off_origin(self):
        # the first range is ||t + C pb0 - pa0||, not ||t||
        odom = self._odom(5, 1.0, vel=(1.0, 0.0, 0.0))
        ds, _ = ingest_logs(odom, odom, range_log([1.0, 2.0], [4.2, 4.4]))
        assert ds.d0 is None
        arm = LeverArm([0.1, 0.0, 0.0])
        ds, _ = ingest_logs(self._odom(5, 1.0), self._odom(5, 1.0), range_log([1.0], [4.2]), arm_a=arm)
        assert ds.d0 is None


def reference_slerp(qa, qb, s):
    """Scalar spherical-linear interpolation, one quaternion pair at a time."""
    dot = float(np.dot(qa, qb))
    if dot < 0.0:
        qb, dot = -qb, -dot
    if dot > 1.0 - 1e-12:
        out = qa + s * (qb - qa)
        return out / np.linalg.norm(out)
    ang = math.acos(min(dot, 1.0))
    out = math.sin((1.0 - s) * ang) / math.sin(ang) * qa + math.sin(s * ang) / math.sin(ang) * qb
    return out / np.linalg.norm(out)


def reference_ingest(odom_a, odom_b, ranges, arm_a, arm_b):
    """Per-range loop: bracket each range in both logs, take a pose on a
    coinciding stamp as it is, otherwise lerp the position and interpolate
    the attitude with `reference_slerp`; then add the rotated lever arm.
    Returns (t, d, pa, pb, dropped, d0)."""
    lo = max(odom_a["t"][0], odom_b["t"][0])
    hi = min(odom_a["t"][-1], odom_b["t"][-1])

    def antenna(odom, arm, t):
        j = int(np.searchsorted(odom["t"], t, side="right"))
        a = odom[j - 1]
        if a["t"] == t:
            p, q = a["p"], a["q"]
        else:
            b = odom[j]
            s = (t - a["t"]) / (b["t"] - a["t"])
            p, q = a["p"] + s * (b["p"] - a["p"]), reference_slerp(a["q"], b["q"], s)
        return p + quat_to_matrix(q) @ arm.r

    rows = [(r["t"], r["d"], antenna(odom_a, arm_a, r["t"]), antenna(odom_b, arm_b, r["t"]))
            for r in ranges if lo <= r["t"] <= hi]
    t, d, pa, pb = (np.array(col) for col in zip(*rows))
    d0 = float(d[0]) if at_frame_origins(pa[0], pb[0]) else None
    return t, d, pa, pb, len(ranges) - len(rows), d0


@st.composite
def log_sets(draw):
    """Two odometry logs at random rates, offsets and attitudes, and a range
    log whose stamps fall on odometry stamps, between them and outside the
    common coverage. Lever arms are zero or random."""
    logs = []
    for _ in range(2):
        n = draw(st.integers(2, 40))
        dt = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25]))
        offset = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3]))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((n, 4))
        if draw(st.booleans()):  # neighbouring attitudes nearly equal: the linear branch
            q = q[0] + 1e-7 * q
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        t = offset + dt * np.arange(n)
        logs.append(odometry_log(t, np.cumsum(rng.normal(0.0, 2.0, (n, 3)), axis=0), q))
    stamps = np.concatenate([logs[0]["t"], logs[1]["t"]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_stamps = rng.choice(stamps, size=draw(st.integers(0, 10)))
    free = rng.uniform(stamps.min() - 0.5, stamps.max() + 0.5, size=draw(st.integers(1, 30)))
    t = np.unique(np.concatenate([on_stamps, free]))
    ranges = range_log(t, rng.uniform(0.5, 20.0, len(t)))
    arms = [LeverArm(rng.uniform(-0.3, 0.3, 3)) if draw(st.booleans()) else LeverArm() for _ in range(2)]
    return logs[0], logs[1], ranges, arms


class TestIngestEqualsPerRangeReference:
    @settings(max_examples=200, deadline=None)
    @given(log_sets())
    def test_batched_ingest_equals_reference_loop(self, logs):
        odom_a, odom_b, ranges, (arm_a, arm_b) = logs
        lo = max(odom_a["t"][0], odom_b["t"][0])
        hi = min(odom_a["t"][-1], odom_b["t"][-1])
        if not ((ranges["t"] >= lo) & (ranges["t"] <= hi)).any():
            with pytest.raises(NoOverlapError):
                ingest_logs(odom_a, odom_b, ranges, arm_a, arm_b)
            return
        ds, dropped = ingest_logs(odom_a, odom_b, ranges, arm_a, arm_b)
        t, d, pa, pb, ref_dropped, ref_d0 = reference_ingest(odom_a, odom_b, ranges, arm_a, arm_b)
        assert dropped == ref_dropped and ds.d0 == ref_d0
        assert np.array_equal(ds.t, t) and np.array_equal(ds.d, d)
        # the batched arithmetic may round differently in the last place:
        # a few eps of the largest coordinate
        scale = max(np.abs(pa).max(), np.abs(pb).max(), 1.0)
        assert np.abs(ds.pa - pa).max() <= 4 * np.finfo(float).eps * scale
        assert np.abs(ds.pb - pb).max() <= 4 * np.finfo(float).eps * scale
        # on a coinciding stamp the logged pose is taken as it is
        for odom, arm, got, ref in ((odom_a, arm_a, ds.pa, pa), (odom_b, arm_b, ds.pb, pb)):
            on_stamp = np.isin(t, odom["t"])
            if not np.any(arm.r):
                assert np.array_equal(got[on_stamp], odom["p"][np.searchsorted(odom["t"], t[on_stamp])])
                assert np.array_equal(got[on_stamp], ref[on_stamp])


class TestDebias:
    def test_formulas_match_monte_carlo(self):
        # antithetic draws (eta, -eta) cancel the odd term of
        # nu = 2 d eta + eta^2 exactly, so the sample mean and variance
        # resolve the formulas well inside 1% at 10^6 draws
        rng = np.random.default_rng(2024)
        d, sigma = 1.0, 0.1
        half = rng.normal(0.0, sigma, size=5 * 10**5)
        eta = np.concatenate([half, -half])
        nu = 2 * d * eta + eta**2
        assert np.mean(nu) == pytest.approx(sigma**2, rel=0.01)
        assert np.var(nu) == pytest.approx(sigma**2 * (4 * d**2 + 2 * sigma**2), rel=0.01)

    def test_example_values(self):
        ds = make_dataset(pa=[np.zeros(3)], pb=[np.zeros(3) + 1], d=[1.0], sigma_r=0.1)
        stats = debias_squared(ds)
        assert stats.s[0] == pytest.approx(0.99)
        assert stats.sigma_s_diag[0] == pytest.approx(0.0402)

    def test_noiseless_limit(self):
        ds = make_dataset(pa=[np.zeros(3)], pb=[np.ones(3)], d=[2.0], sigma_r=1e-12)
        stats = debias_squared(ds)
        assert stats.s[0] == pytest.approx(4.0, abs=1e-12)
        assert stats.sigma_s_diag[0] < 1e-20

    def test_elementwise_independence(self):
        ds = make_dataset(pa=[np.zeros(3)] * 2, pb=[np.ones(3)] * 2, d=[3.0, 3.0], sigma_r=0.2)
        stats = debias_squared(ds)
        assert stats.s[0] == stats.s[1]
        assert stats.sigma_s_diag[0] == stats.sigma_s_diag[1]

    def test_debias_unbiased_under_model(self):
        # E[d~^2 - sigma^2] = d^2 within 3 standard errors
        rng = np.random.default_rng(55)
        d, sigma, n = 2.5, 0.3, 200_000
        d_tilde = d + rng.normal(0.0, sigma, size=n)
        s = d_tilde**2 - sigma**2
        se = np.std(s) / math.sqrt(n)
        assert abs(np.mean(s) - d**2) < 3 * se



def moving_dataset(n=200, sigma_r=0.1, seed=0, T=None):
    """Random-walk agents with noisy ranges under a fixed transform."""
    rng = np.random.default_rng(seed)
    T = T or Transform4DoF(t=[4.0, -2.0, 1.0], theta=0.7)
    pa = np.cumsum(rng.normal(0.0, 0.3, size=(n, 3)), axis=0)
    pb = np.cumsum(rng.normal(0.0, 0.3, size=(n, 3)), axis=0)
    d = true_range(T, pa, pb) + sigma_r * rng.standard_normal(n)
    return make_dataset(pa, pb, d, sigma_r=sigma_r)


class TestRangeRateGate:
    @settings(max_examples=50, deadline=None)
    @given(
        t=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
        theta=st.floats(-math.pi, math.pi),
        seed=st.integers(0, 2**32 - 1),
        step=st.floats(0.0, 2.0),
    )
    def test_identity_on_noiseless_data_for_any_transform(self, t, theta, seed, step):
        rng = np.random.default_rng(seed)
        pa = np.cumsum(rng.normal(0.0, step, size=(30, 3)), axis=0)
        pb = np.cumsum(rng.normal(0.0, step, size=(30, 3)), axis=0)
        d = np.maximum(true_range(Transform4DoF(t=t, theta=theta), pa, pb), 1e-6)
        ds = make_dataset(pa, pb, d, sigma_r=1e-9)
        assert not range_rate_outliers(ds).any()

    def test_identity_on_clean_moving_data(self):
        ds = moving_dataset()
        assert not range_rate_outliers(ds).any()

    @pytest.mark.parametrize("spikes", [[40], [0], [0, 199]], ids=["middle", "first", "both_ends"])
    def test_spikes_removed_and_nothing_else(self, spikes):
        # a spike at sample 0 must not make the gate reject what follows
        ds = moving_dataset()
        d = ds.d.copy()
        d[spikes] += 3.0
        outliers = range_rate_outliers(make_dataset(ds.pa, ds.pb, d))
        assert np.flatnonzero(outliers).tolist() == spikes

    def test_short_datasets(self):
        assert range_rate_outliers(moving_dataset(n=1)).tolist() == [False]
        ds = moving_dataset(n=2)
        assert range_rate_outliers(make_dataset(ds.pa, ds.pb, ds.d + [0.0, 5.0])).tolist() == [True, True]

    def test_select_keeps_d0_on_request(self):
        ds = make_dataset(np.zeros((3, 3)), np.ones((3, 3)), [2.0, 2.1, 2.2], d0=2.0)
        kept = ds.select([True, False, True])
        assert kept.d.tolist() == [2.0, 2.2] and kept.d0 == 2.0
        assert ds.select([False, True, True], keep_d0=False).d0 is None


class TestSyncedDataset:
    def _fields(self, k=3):
        rng = np.random.default_rng(k)
        return dict(
            t=np.arange(float(k)), d=rng.uniform(1.0, 3.0, k), pa=rng.normal(size=(k, 3)), pb=rng.normal(size=(k, 3))
        )

    def test_inputs_are_copied(self):
        fields = self._fields()
        ds = SyncedDataset(**fields, sigma_r=0.1)
        before = ds.pa.copy()
        fields["pa"][0, 0] += 1.0
        assert np.array_equal(ds.pa, before)

    @pytest.mark.parametrize("name", ["t", "d", "pa", "pb"])
    def test_arrays_are_read_only(self, name):
        ds = SyncedDataset(**self._fields(), sigma_r=0.1)
        with pytest.raises(ValueError):
            getattr(ds, name)[0] = 1.0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("t", [0.0, math.nan, 2.0]),
            ("d", [1.0, 2.0]),
            ("d", [1.0, 0.0, 2.0]),
            ("d", [1.0, math.inf, 2.0]),
            ("pb", [[0.0, 0.0, 0.0], [0.0, math.inf, 0.0], [1.0, 1.0, 1.0]]),
            ("d0", math.inf),
            ("d0", math.nan),
            ("d", [1.0, 1e200, 2.0]),
            ("d0", 1e200),
        ],
        ids=["nan_timestamp", "mismatched_length", "non_positive_range", "infinite_range", "non_finite_pb",
             "infinite_d0", "nan_d0", "overflowing_range", "overflowing_d0"],
    )
    def test_invalid_inputs_rejected(self, name, value):
        fields = self._fields()
        fields[name] = value
        with pytest.raises(ValueError):
            SyncedDataset(**fields, sigma_r=0.1)

    @pytest.mark.parametrize("d0, extra", [(None, False), ("first", False), (2.5, True)])
    def test_stack_adds_an_origin_row_for_a_d0_off_the_first_range(self, d0, extra):
        fields = self._fields()
        ds = SyncedDataset(**fields, sigma_r=0.1, d0=fields["d"][0] if d0 == "first" else d0)
        stack = ds.stack()
        k = len(ds) + extra
        assert stack.d.shape == (1, k) and stack.pa.shape == stack.pb.shape == (1, k, 3)
        assert stack.sigma_r == ds.sigma_r
        assert np.array_equal(stack.d[0, : len(ds)], ds.d) and np.array_equal(stack.pa[0, : len(ds)], ds.pa)
        if extra:
            assert stack.d[0, -1] == d0 and not stack.pa[0, -1].any() and not stack.pb[0, -1].any()
        assert (stack.d0 is None) if d0 is None else stack.d0.tolist() == [ds.d0]

    def test_windows_slice_rows_and_drop_d0(self):
        ds = SyncedDataset(**self._fields(12), sigma_r=0.1, d0=2.5)
        stack = ds.windows([0, 3, 7], 5)
        assert stack.d0 is None and stack.d.shape == (3, 5)
        for i, a in enumerate([0, 3, 7]):
            for name in ("d", "pa", "pb"):
                assert np.array_equal(getattr(stack, name)[i], getattr(ds, name)[a : a + 5])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(0, 8), d0=st.sampled_from([None, 2.5]), keep_d0=st.booleans())
    def test_window_and_select_slice_every_array(self, data, k, d0, keep_d0):
        ds = SyncedDataset(**self._fields(k), sigma_r=0.1, d0=d0)
        start = data.draw(st.integers(0, k))
        stop = data.draw(st.integers(start, k))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
        cases = [
            (ds.select(mask, keep_d0=keep_d0), mask, keep_d0),
            (ds.select(mask), mask, True),
        ]
        for sub, index, kept_d0 in cases:
            for name in ("t", "d", "pa", "pb"):
                assert np.array_equal(getattr(sub, name), getattr(ds, name)[index])
            assert sub.pa.shape == sub.pb.shape == (len(sub), 3)
            assert sub.sigma_r == ds.sigma_r
            assert sub.d0 == (d0 if kept_d0 else None)
        # the window of rows start:stop, a stack of one without d0
        window = ds.windows([start], stop - start)
        for name in ("d", "pa", "pb"):
            assert np.array_equal(getattr(window, name)[0], getattr(ds, name)[start:stop])
        assert window.sigma_r == ds.sigma_r and window.d0 is None

    def test_select_nothing_gives_empty_dataset(self):
        ds = SyncedDataset(**self._fields(), sigma_r=0.1, d0=2.0)
        empty = ds.select([False, False, False])
        assert len(empty) == 0
        assert empty.pa.shape == empty.pb.shape == (0, 3)


class TestSyncedStack:
    def _fields(self, W=2, k=3):
        rng = np.random.default_rng(k)
        return dict(d=rng.uniform(1.0, 3.0, (W, k)), pa=rng.normal(size=(W, k, 3)), pb=rng.normal(size=(W, k, 3)))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("d", np.ones(3)),
            ("pb", np.zeros((2, 4, 3))),
            ("d0", np.ones(3)),
            ("d", [[1.0, math.inf, 2.0], [1.0, 1.0, 1.0]]),
            ("d", [[1.0, 0.0, 2.0], [1.0, 1.0, 1.0]]),
            ("d0", np.array([2.0, math.inf])),
            ("d0", np.array([2.0, 0.0])),
            ("pa", np.full((2, 3, 3), math.nan)),
            ("d", [[1.0, 1e200, 2.0], [1.0, 1.0, 1.0]]),
            ("d0", np.array([2.0, 1e200])),
        ],
        ids=["flat_d", "pb_rows", "d0_length", "infinite_range", "zero_range", "infinite_d0", "zero_d0", "nan_pa",
             "overflowing_range", "overflowing_d0"],
    )
    def test_invalid_inputs_rejected(self, name, value):
        fields = self._fields()
        fields[name] = np.asarray(value, dtype=float)
        with pytest.raises(ValueError):
            SyncedStack(**fields, sigma_r=0.1)


def test_range_log_rejects_an_infinite_range():
    with pytest.raises(ValueError, match="row 1: measured range must be positive and finite"):
        range_log([0.0, 1.0], [1.0, math.inf])


def test_dataset_requires_increasing_timestamps():
    with pytest.raises(ValueError):
        SyncedDataset(t=[0.0, 0.0], d=[1.0, 1.0], pa=np.zeros((2, 3)), pb=np.ones((2, 3)), sigma_r=0.1)


def test_range_log_rejects_a_range_whose_square_overflows():
    with pytest.raises(ValueError, match="row 2: measured range must be positive and finite, and so must its square"):
        range_log([0.0, 1.0, 2.0], [1.0, 2.0, 1e200])


def test_the_largest_range_with_a_finite_debias_variance_is_accepted():
    # the fit squares every range and d0, and the debias variance takes 4
    # times that square: the last double whose 4 d^2 is finite passes, the
    # next one is rejected
    top = math.sqrt(np.finfo(float).max / 4.0)
    while math.isfinite(4.0 * (math.nextafter(top, math.inf) ** 2)):
        top = math.nextafter(top, math.inf)
    while not math.isfinite(4.0 * top * top):
        top = math.nextafter(top, 0.0)
    over = math.nextafter(top, math.inf)
    assert math.isfinite(4.0 * top * top) and not math.isfinite(4.0 * over * over)
    fields = dict(pa=np.zeros((1, 2, 3)), pb=np.zeros((1, 2, 3)), sigma_r=0.1)
    SyncedStack(d=np.array([[1.0, top]]), d0=np.array([top]), **fields)
    SyncedDataset(t=[0.0, 1.0], d=[1.0, top], pa=np.zeros((2, 3)), pb=np.zeros((2, 3)), sigma_r=0.1, d0=top)
    for d, d0 in (([1.0, over], top), ([1.0, top], over)):
        with pytest.raises(ValueError, match="so must"):
            SyncedStack(d=np.array([d]), d0=np.array([d0]), **fields)
        with pytest.raises(ValueError, match="so must"):
            SyncedDataset(t=[0.0, 1.0], d=d, pa=np.zeros((2, 3)), pb=np.zeros((2, 3)), sigma_r=0.1, d0=d0)
    with pytest.raises(ValueError, match="row 1: measured range must be positive and finite"):
        range_log([0.0, 1.0], [1.0, over])