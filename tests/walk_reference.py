"""Reference random walk for the walk property tests.

`simulation.generate_trajectory` as it was before its draws went through
`rng.random()` and its norm was skipped well inside the ball: the heading
from `rng.uniform(-pi, pi)`, the reflection fraction from
`rng.uniform(0, 1)`, and r taken at every step. A test that compares the
two shows that the faster walk keeps every draw and every bit.
"""

import math

import numpy as np


def generate_trajectory(
    D: float,
    n_poses: int,
    rng: np.random.Generator,
    step_scale: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded random walk inside the ball of radius D around the origin.

    Gaussian steps reflected at the ball boundary, random headings.
    Returns positions, shape (n_poses, 3), and headings, shape (n_poses,);
    sample i is taken at i seconds. D -> 0 degenerates to a
    parked agent. The draws stay scalar and in the order heading, step,
    then a reflection fraction only when one is needed, so a seed gives
    the same walk whatever the batch size.
    """
    if not D > 0:
        raise ValueError("D must be positive")
    if n_poses < 1:
        raise ValueError("n_poses must be >= 1")
    # the walk runs on Python floats, whose arithmetic rounds as numpy's
    # elementwise arithmetic does. r is np.linalg.norm's own computation
    # for a vector, the square root of a BLAS dot, which sums in its own
    # order: math.sqrt(x * x + y * y + z * z) would change most walks in
    # their last bits
    scale = step_scale * D
    x = y = z = 0.0
    positions, yaws = [], []
    for _ in range(n_poses):
        positions.append((x, y, z))
        yaws.append(rng.uniform(-math.pi, math.pi))
        dx, dy, dz = rng.standard_normal(3).tolist()
        x, y, z = x + dx * scale, y + dy * scale, z + dz * scale
        p = np.array((x, y, z))
        r = math.sqrt(p.dot(p))
        if r > D:  # reflect back inside
            if r < 2.0 * D:
                k = 2.0 * D - r
                x, y, z = x * k / r, y * k / r, z * k / r
            else:
                f, u = D / r, rng.uniform(0.0, 1.0)
                x, y, z = x * f * u, y * f * u, z * f * u
    return np.array(positions), np.array(yaws)
