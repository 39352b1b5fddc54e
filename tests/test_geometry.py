import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from range_rte.geometry import (
    LeverArm,
    Transform4DoF,
    apply_transform,
    heading_cos_sin,
    quat_to_matrix,
    wrap_angle,
    yaw_matrices,
    yaw_quat,
)
from range_rte.measurement import ingest_logs, odometry_log, poses_at, range_log


def heading_rotation(theta):
    return Transform4DoF(t=np.zeros(3), theta=theta).rotation()


def test_heading_rotation_identity():
    assert np.allclose(heading_rotation(0.0), np.eye(3))


def test_heading_rotation_quarter_turn():
    C = heading_rotation(math.pi / 2)
    assert np.allclose(C @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_heading_rotation_direct_entries():
    C = heading_rotation(0.3)
    assert C[0, 0] == pytest.approx(math.cos(0.3))
    assert C[1, 0] == pytest.approx(math.sin(0.3))
    assert C[2, 2] == 1.0


def test_heading_cos_sin_rounds_as_math_alone_and_in_a_stack():
    theta = wrap_angle(np.random.default_rng(5).uniform(-10.0, 10.0, 200))
    c, s = heading_cos_sin(theta)
    assert c.tolist() == [math.cos(th) for th in theta.tolist()]
    assert s.tolist() == [math.sin(th) for th in theta.tolist()]
    stacked = yaw_matrices(c, s)
    for i, th in enumerate(theta.tolist()):
        assert np.array_equal(stacked[i], heading_rotation(th))


@pytest.mark.parametrize("theta", np.linspace(-math.pi, math.pi, 17))
def test_heading_rotation_inverse(theta):
    assert np.allclose(heading_rotation(theta) @ heading_rotation(-theta), np.eye(3), atol=1e-12)


def test_apply_transform_identity():
    T = Transform4DoF(t=np.zeros(3), theta=0.0)
    assert np.allclose(apply_transform(T, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_apply_transform_half_turn_cancels():
    T = Transform4DoF(t=[1.0, 0.0, 0.0], theta=math.pi)
    assert np.allclose(apply_transform(T, [1.0, 0.0, 0.0]), np.zeros(3), atol=1e-15)


def test_apply_transform_matches_homogeneous_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = Transform4DoF(t=rng.normal(size=3), theta=rng.uniform(-math.pi, math.pi))
        p = rng.normal(size=3)
        H = np.eye(4)
        H[:3, :3] = T.rotation()
        H[:3, 3] = T.t
        expected = (H @ np.append(p, 1.0))[:3]
        assert np.allclose(apply_transform(T, p), expected, atol=1e-12)


def test_apply_transform_preserves_z_displacement():
    rng = np.random.default_rng(8)
    for _ in range(20):
        T = Transform4DoF(t=rng.normal(size=3), theta=rng.uniform(-math.pi, math.pi))
        p, q = rng.normal(size=3), rng.normal(size=3)
        dz = apply_transform(T, p)[2] - apply_transform(T, q)[2]
        assert dz == pytest.approx(p[2] - q[2], abs=1e-12)


def antenna_position(p, q, arm):
    """Host antenna position that ingest_logs gives for a range taken at the
    stamp of the pose (p, q)."""
    odom = odometry_log([0.0, 1.0], [p, p], [q, q])
    ds, _ = ingest_logs(odom, odom, range_log([0.0], [1.0]), arm_a=arm)
    return ds.pa[0]


def test_antenna_position_zero_arm():
    p = [1.0, 2.0, 3.0]
    assert np.allclose(antenna_position(p, yaw_quat(0.7), LeverArm()), p)


def test_antenna_position_identity_rotation():
    arm = LeverArm([0.1, 0.0, 0.0])
    assert np.allclose(antenna_position([1.0, 2.0, 3.0], yaw_quat(0.0), arm), [1.1, 2.0, 3.0])


def test_antenna_position_matches_scipy_rotation():
    # lever arm from the hardware calibration of the flight platform
    arm = LeverArm([-0.02, 0.1, -0.05])
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        p = rng.normal(size=3)
        expected = p + Rotation.from_quat(q).as_matrix() @ arm.r
        assert np.allclose(antenna_position(p, q, arm), expected, atol=1e-12)


def test_quat_to_matrix_matches_scipy():
    rng = np.random.default_rng(10)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert np.allclose(quat_to_matrix(q), Rotation.from_quat(q).as_matrix(), atol=1e-12)


def test_quat_to_matrix_rounds_as_entry_formulas():
    def entries(q):
        x, y, z, w = q
        return [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]

    rng = np.random.default_rng(13)
    q = rng.normal(size=(500, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    yaw_only = np.array([yaw_quat(y) for y in rng.uniform(-4.0, 4.0, 500)])
    for batch in (q, yaw_only):
        assert np.array_equal(quat_to_matrix(batch), np.array([entries(v) for v in batch]))
        assert np.array_equal(quat_to_matrix(batch[7]), entries(batch[7]))


class TestInterpolatePose:
    def test_endpoints_exact(self):
        odom = odometry_log([1.0, 2.0], [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [yaw_quat(0.1), yaw_quat(0.9)])
        p, q = poses_at(odom, [1.0, 2.0])
        assert np.array_equal(p, odom["p"]) and np.array_equal(q, odom["q"])

    def test_midpoint_position(self):
        odom = odometry_log([0.0, 1.0], [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        p, q = poses_at(odom, [0.5])
        assert np.allclose(p, [[1.0, 0.0, 0.0]])
        assert p.shape == (1, 3) and q.shape == (1, 4)  # one pose per query time

    def test_quarter_slerp_yaw(self):
        # axis-angle scaling oracle: a quarter of a 90 degree yaw is 22.5 degrees
        odom = odometry_log([0.0, 1.0], np.zeros((2, 3)), [yaw_quat(0.0), yaw_quat(math.pi / 2)])
        _, q = poses_at(odom, [0.25])
        yaw = Rotation.from_quat(q[0]).as_euler("zyx")[0]
        assert yaw == pytest.approx(math.radians(22.5), abs=1e-12)

    def test_out_of_range_raises(self):
        odom = odometry_log([0.0, 1.0], [np.zeros(3), np.ones(3)])
        with pytest.raises(ValueError):
            poses_at(odom, [1.5])
        with pytest.raises(ValueError):
            poses_at(odom, [-0.1])

    def test_continuity(self):
        rng = np.random.default_rng(11)
        qa, qb = rng.normal(size=4), rng.normal(size=4)
        odom = odometry_log([0.0, 1.0], rng.normal(size=(2, 3)), [qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)])
        p, q = poses_at(odom, np.append(0.0, np.linspace(0.001, 1.0, 200)))
        assert np.all(np.linalg.norm(np.diff(p, axis=0), axis=1) < 0.05)
        step = np.minimum(np.linalg.norm(np.diff(q, axis=0), axis=1), np.linalg.norm(q[1:] + q[:-1], axis=1))
        assert np.all(step < 0.05)


@pytest.mark.parametrize(
    "x, expected",
    [
        (0.0, 0.0),
        (3 * math.pi / 2, -math.pi / 2),
        (math.pi, -math.pi),
        (-math.pi, -math.pi),
        (2 * math.pi, 0.0),
    ],
)
def test_wrap_angle_values(x, expected):
    assert float(wrap_angle(x)) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_idempotent():
    xs = np.random.default_rng(12).uniform(-20, 20, size=200)
    w = wrap_angle(xs)
    assert np.allclose(wrap_angle(w), w)
    assert np.all(w >= -math.pi) and np.all(w < math.pi)
    # congruent mod 2 pi
    assert np.allclose(np.cos(w), np.cos(xs))
    assert np.allclose(np.sin(w), np.sin(xs))


def test_transform_wraps_theta():
    T = Transform4DoF(t=np.zeros(3), theta=-math.pi)
    assert T.theta == pytest.approx(-math.pi)
    T2 = Transform4DoF(t=np.zeros(3), theta=math.pi)
    assert T2.theta == pytest.approx(-math.pi)


def test_pose_rejects_bad_quaternion():
    with pytest.raises(ValueError):
        odometry_log([0.0], np.zeros((1, 3)), [0.0, 0.0, 0.0, 1.1])
    # and a translation or a lever arm that is not a 3-vector
    with pytest.raises(ValueError, match=r"translation must have shape \(3,\), got \(2,\)"):
        Transform4DoF(t=[1.0, 2.0], theta=0.0)
    with pytest.raises(ValueError, match=r"lever arm must have shape \(3,\), got \(1, 3\)"):
        LeverArm(np.zeros((1, 3)))
