"""Frames, poses and the 4-DoF (translation + heading) transform.

Both agents run gravity-aligned local odometry frames, so the transform
between their frames has exactly four observable degrees of freedom:
3D translation and the yaw angle about the common gravity axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into [-pi, pi)."""
    return (np.asarray(theta) + math.pi) % TWO_PI - math.pi


def heading_rotation(theta: float) -> np.ndarray:
    """Rotation matrix about the +z axis by `theta` (counterclockwise)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def yaw_matrices(c, s) -> np.ndarray:
    """Stacked rotations about +z, shape (n, 3, 3), from their cosines and sines."""
    R = np.zeros((len(c), 3, 3))
    R[:, 0, 0] = R[:, 1, 1] = c
    R[:, 1, 0] = s
    R[:, 0, 1] = np.negative(s)
    R[:, 2, 2] = 1.0
    return R


def _as_vec3(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class Pose:
    """Timestamped position and orientation of one agent in its local frame.

    Attributes:
        t: timestamp in seconds.
        p: position in the local frame, meters, shape (3,).
        q: unit quaternion (x, y, z, w) of the body frame in the local frame.
    """

    t: float
    p: np.ndarray
    q: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"pose timestamp must be finite, got {self.t}")
        object.__setattr__(self, "p", _as_vec3(self.p, "pose position"))
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"quaternion norm {norm} deviates from 1 by more than 1e-9")
        object.__setattr__(self, "q", q)

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.q)


@dataclass(frozen=True)
class Transform4DoF:
    """Relative frame transform: translation t and heading theta.

    theta is stored wrapped into [-pi, pi); measured counterclockwise
    about +z from the host frame to the target frame.
    """

    t: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "t", _as_vec3(self.t, "translation"))
        if not math.isfinite(self.theta):
            raise ValueError(f"heading must be finite, got {self.theta}")
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))

    def rotation(self) -> np.ndarray:
        return heading_rotation(self.theta)

    def as_vector(self) -> np.ndarray:
        """Parameter vector [t_x, t_y, t_z, theta]."""
        return np.append(self.t, self.theta)


@dataclass(frozen=True)
class LeverArm:
    """UWB antenna position in the body frame (from calibration), meters."""

    r: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "r", _as_vec3(self.r, "lever arm"))


def apply_transform(T: Transform4DoF, p) -> np.ndarray:
    """Express a point (or an (N, 3) batch of points) in the host frame."""
    p = np.asarray(p, dtype=float)
    return T.t + p @ T.rotation().T


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion stored (x, y, z, w)."""
    x, y, z, w = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def yaw_quat(yaw: float) -> np.ndarray:
    """Quaternion (x, y, z, w) for a pure rotation about +z."""
    return np.array([0.0, 0.0, math.sin(0.5 * yaw), math.cos(0.5 * yaw)])


def slerp(qa, qb, s: float) -> np.ndarray:
    """Spherical-linear interpolation between unit quaternions at fraction s."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:  # take the short arc
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-12:
        out = qa + s * (qb - qa)
        return out / np.linalg.norm(out)
    ang = math.acos(min(dot, 1.0))
    sa = math.sin((1.0 - s) * ang) / math.sin(ang)
    sb = math.sin(s * ang) / math.sin(ang)
    out = sa * qa + sb * qb
    return out / np.linalg.norm(out)


def antenna_world_position(pose: Pose, arm: LeverArm) -> np.ndarray:
    """Antenna position in the local odometry frame: p + R(q) r."""
    return pose.p + pose.rotation() @ arm.r


def interpolate_pose(a: Pose, b: Pose, t: float) -> Pose:
    """Interpolate between two bracketing poses at time t.

    Position is linear, orientation is spherical-linear. Endpoints are
    reproduced exactly. Raises ValueError when t lies outside [a.t, b.t].
    """
    if not a.t < b.t:
        raise ValueError(f"bracketing poses must satisfy a.t < b.t, got {a.t} >= {b.t}")
    if t < a.t or t > b.t:
        raise ValueError(f"time {t} outside bracketing interval [{a.t}, {b.t}]")
    if t == a.t:
        return a
    if t == b.t:
        return b
    s = (t - a.t) / (b.t - a.t)
    return Pose(t=t, p=a.p + s * (b.p - a.p), q=slerp(a.q, b.q, s))
