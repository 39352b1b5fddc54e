"""The range model, the FIM and the Jacobian of one problem at one
transform, a row [t_x, t_y, t_z, theta], for the tests: the stacked
functions on a stack of one."""

import numpy as np

from range_rte.fisher import fim, range_model
from range_rte.geometry import heading_cos_sin, yaw_matrices


def yaw_rotation(theta) -> np.ndarray:
    """The rotation (3, 3) about +z by the heading theta, as every stack of transforms rotates."""
    return yaw_matrices(*heading_cos_sin([theta]))[0]


def model_ranges(T, pa, pb) -> np.ndarray:
    """The ranges at the row T between antenna positions pa and pb, (k, 3)
    or (3,) each, broadcast: `range_model` on a stack of one, of shape (k,) or ()."""
    pa, pb = np.broadcast_arrays(np.asarray(pa, dtype=float), np.asarray(pb, dtype=float))
    (d,), _ = range_model(T[None, :3], T[None, 3], pa.reshape(1, -1, 3), pb.reshape(1, -1, 3))
    return d.reshape(pa.shape[:-1])


def dataset_fim(T, data):
    """`fim` at the row T of a dataset's problem, its stack of one."""
    stack = data.stack()
    return fim(T[None, :3], T[None, 3], stack.pa, stack.pb, stack.sigma_r)


def dataset_jacobian(T, data) -> np.ndarray:
    """The (k, 4) Jacobian at the row T of a dataset's problem: the rows of `range_model` on its stack of one."""
    stack = data.stack()
    _, (J,) = range_model(T[None, :3], T[None, 3], stack.pa, stack.pb)
    return J
