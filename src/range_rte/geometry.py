"""Frames, rotations and the 4-DoF (translation + heading) transform.

Both agents run gravity-aligned local odometry frames, so the transform
between their frames has exactly four observable degrees of freedom:
3D translation and the yaw angle about the common gravity axis.

Attitudes are unit quaternions stored scalar-last, (x, y, z, w). The
quaternion helpers work on stacks: q of shape (..., 4) gives rotation
matrices of shape (..., 3, 3), so a whole odometry log is converted in
one call.
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
    x, y, z = arr.tolist()  # three Python floats: ~6x cheaper than np.isfinite on the array
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


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
        # Python's float % rounds as numpy's remainder, so this is wrap_angle, bit for bit
        object.__setattr__(self, "theta", (float(self.theta) + math.pi) % TWO_PI - math.pi)

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


# R(q) = I + 2 M(q) for a unit quaternion q = (x, y, z, w); each entry of
# M is a signed sum of two products of q's components.
_QUAT_M = (
    ("-yy -zz", "+xy -zw", "+xz +yw"),
    ("+xy +zw", "-xx -zz", "+yz -xw"),
    ("+xz -yw", "+yz +xw", "-xx -yy"),
)


def _quat_products_to_matrix() -> np.ndarray:
    """(16, 9) map from the products q_i q_j (index 4 i + j) to the entries
    of 2 M, row-major."""
    out = np.zeros((16, 9))
    for k, entry in enumerate(e for row in _QUAT_M for e in row):
        for term in entry.split():
            i, j = ("xyzw".index(c) for c in term[1:])
            out[4 * i + j, k] = 2.0 if term[0] == "+" else -2.0
    return out


_QUAT_PRODUCTS_TO_MATRIX = _quat_products_to_matrix()


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices of unit quaternions (x, y, z, w), shape (..., 3, 3).

    One matmul maps the products q_i q_j to every entry. Each entry has two
    nonzero terms, so it rounds exactly as its own formula, e.g.
    1 - 2 (y y + z z); q must be finite.
    """
    q = np.asarray(q, dtype=float)
    products = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (16,))
    return (np.eye(3).ravel() + products @ _QUAT_PRODUCTS_TO_MATRIX).reshape(q.shape[:-1] + (3, 3))


def yaw_quat(yaw: float) -> np.ndarray:
    """Quaternion (x, y, z, w) for a pure rotation about +z."""
    return np.array([0.0, 0.0, math.sin(0.5 * yaw), math.cos(0.5 * yaw)])


def interpolate_quats(qa, qb, s) -> np.ndarray:
    """Spherical-linear interpolation from qa to qb at fractions s.

    qa and qb have shape (n, 4), s shape (n,). Each pair takes the short
    arc; nearly parallel pairs (cosine above 1 - 1e-12) are interpolated
    linearly. The results are normalised to unit length.
    """
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    s = np.asarray(s, dtype=float)[:, None]
    dot = np.einsum("ij,ij->i", qa, qb)
    qb = np.where(dot[:, None] < 0.0, -qb, qb)  # take the short arc
    dot = np.abs(dot)[:, None]
    near = dot > 1.0 - 1e-12
    ang = np.arccos(np.minimum(dot, 1.0))
    sin_ang = np.where(near, 1.0, np.sin(ang))
    arc = np.sin((1.0 - s) * ang) / sin_ang * qa + np.sin(s * ang) / sin_ang * qb
    out = np.where(near, qa + s * (qb - qa), arc)
    return out / np.linalg.norm(out, axis=1, keepdims=True)
