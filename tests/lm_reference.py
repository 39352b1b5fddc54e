"""Independent reference refinement for the qcqp property tests.

MINPACK's Levenberg-Marquardt (`scipy.optimize.least_squares`,
method="lm") on the k-row residual B_w x(t, theta), with B_w the rows of
B scaled by sqrt(w / max w). It shares no code with the estimator's
batched Newton refinement beyond the lift, so a test that compares the
two checks one against the other.
"""

import math

import numpy as np
from scipy.optimize import least_squares

from range_rte.estimators import _lift
from range_rte.geometry import Transform4DoF

# MINPACK's stopping tolerances, a few eps: the reference runs down to the
# rounding floor of its residual cost instead of stopping 1e-8 short of it
LM_TOL = 1e-15


def lift_jacobian(t, theta: float) -> np.ndarray:
    """d lift / d (t_x, t_y, t_z, theta), shape (9, 4)."""
    tx, ty, tz = t
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, -s],
            [0.0, 0.0, 0.0, c],
            [c, s, 0.0, -tx * s + ty * c],
            [-s, c, 0.0, -ty * s - tx * c],
            [2.0 * tx, 2.0 * ty, 2.0 * tz, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def lm_least_squares(residuals, jacobian, x0):
    """`least_squares` with method="lm" and the reference's tolerances."""
    return least_squares(residuals, x0, jac=jacobian, method="lm", ftol=LM_TOL, xtol=LM_TOL, gtol=LM_TOL)


def lm_refine(problem, T0: Transform4DoF) -> tuple[Transform4DoF, float]:
    """Refined transform from T0 and its cost x' P0 x, taken from the residuals as 2 max w times their cost."""
    Bw = problem.B * np.sqrt(problem.weights / problem.weights.max())[:, None]

    def residuals(p):
        return Bw @ _lift(*p[:3], math.cos(p[3]), math.sin(p[3]))

    def jacobian(p):
        return Bw @ lift_jacobian(p[:3], p[3])

    res = lm_least_squares(residuals, jacobian, T0.as_vector())
    return Transform4DoF(t=res.x[:3], theta=res.x[3]), 2.0 * float(problem.weights.max()) * float(res.cost)
