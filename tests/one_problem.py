"""The FIM and the Jacobian of one dataset's problem at one transform, for
the tests: the stacked functions on the dataset's stack of one."""

import numpy as np

from range_rte.fisher import _jacobian_stack, fim


def dataset_fim(T, data):
    """`fim` at the transform T of a dataset's problem, its stack of one."""
    stack = data.stack()
    return fim(T.t[None], np.array([T.theta]), stack.pa, stack.pb, stack.sigma_r)


def dataset_jacobian(T, data) -> np.ndarray:
    """The (k, 4) Jacobian at T of a dataset's problem: `_jacobian_stack` on its stack of one."""
    stack = data.stack()
    return _jacobian_stack(T.t[None], np.array([T.theta]), stack.pa, stack.pb)[0]
