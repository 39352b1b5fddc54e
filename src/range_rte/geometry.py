"""Frames, rotations and headings.

Both agents run gravity-aligned local odometry frames, so the transform
between their frames has exactly four observable degrees of freedom:
3D translation and the yaw angle about the common gravity axis. A
transform is a row [t_x, t_y, t_z, theta], theta wrapped into [-pi, pi)
by `wrap_angle` and measured counterclockwise about +z from the host
frame to the target frame; W transforms are a (W, 4) array, or the pair
(t (W, 3), theta (W,)). A heading rotates through `yaw_matrices` of its
`heading_cos_sin`.

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


def heading_cos_sin(theta) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of an array of headings, each rounded by `math.cos` and
    `math.sin`: the one rule by which a heading becomes a rotation, in
    every stack of transforms, so that a heading rotates with the same
    bits alone and in any stack (np.cos and np.sin may round an array
    differently in the last bit)."""
    theta = np.asarray(theta).tolist()
    return np.array([math.cos(th) for th in theta]), np.array([math.sin(th) for th in theta])


def yaw_matrices(c, s) -> np.ndarray:
    """Stacked rotations about +z, shape (n, 3, 3), from their cosines and sines."""
    R = np.zeros((len(c), 3, 3))
    R[:, 0, 0] = R[:, 1, 1] = c
    R[:, 1, 0] = s
    R[:, 0, 1] = np.negative(s)
    R[:, 2, 2] = 1.0
    return R


@dataclass(frozen=True)
class LeverArm:
    """UWB antenna position in the body frame (from calibration), meters."""

    r: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (3,):
            raise ValueError(f"lever arm must have shape (3,), got {r.shape}")
        x, y, z = r.tolist()  # three Python floats: ~6x cheaper than np.isfinite on the array
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"lever arm must be finite, got {r}")
        object.__setattr__(self, "r", r)


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


def yaw_quat(yaw) -> np.ndarray:
    """Quaternions (x, y, z, w) of pure rotations about +z, shape (..., 4),
    from yaws of shape (...,)."""
    yaw = np.asarray(yaw, dtype=float)
    q = np.zeros(yaw.shape + (4,))
    q[..., 2], q[..., 3] = np.sin(0.5 * yaw), np.cos(0.5 * yaw)
    return q


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
