"""Estimators for the relative frame transform.

The weighted least-squares cost on debiased squared distances is linear
in a 9-element lifted state

    x = [t_x, t_y, t_z, cos th, sin th,
         t_x cos th + t_y sin th, t_y cos th - t_x sin th, ||t||^2, 1],

so the cost is a quadratic form x' P0 x subject to four quadratic
consistency constraints tying the monomials together.

The default `qcqp` estimator needs no relaxation. For a fixed heading
the lifted state is linear in (t, tau = ||t||^2), so the cost is linear
least squares in (t, tau) under the one constraint tau = ||t||^2: the
squared-range localisation problem, which a Lagrange multiplier solves
exactly (variable projection, Golub & Pereyra 1973, with the inner
solve of Beck, Stoica & Li 2008). `_sweep` solves it on a fixed heading
grid in one batched pass and keeps the grid's lowest local minima; each
one is refined by damped Newton steps over the natural parameters
(t, theta), which satisfy the constraints by construction. The
refinement minimizes ||R x(t, theta)||^2, with R the 9x9 triangle of a
QR of the scaled rows of B: that is x' P0 x over max w, taken from
residuals, so it keeps its relative precision down to a zero residual
where the quadratic form itself has an absolute rounding floor. Its
gradient and exact Hessian come from the lift's first and second
derivatives, which are linear in a few monomials of (t, theta).
`qcqp` and `nls` do not pin ||t|| to the inter-origin distance d0: a d0
read off the first range is already a row of the cost, and any other d0
is fitted as one more range, taken between the two frame origins.

The `sdp` estimator keeps the paper's semidefinite relaxation, with
||t||^2 = d0^2 as a fifth constraint when d0 is known, and reads its
rank-one approximation off without refinement: one `solvers.sdp_solve`
call relaxes every problem in lockstep, and one batched eigh of the X
stack gives each problem its rank-one state, rank and eigenvalue ratio.
The relaxation is always feasible (lift(T) lift(T)' is, for every T), so
it has no infeasible exit. The `nls` baseline minimizes the raw range
residuals with the same damped engine, `solvers.lockstep_newton`, taking
Gauss-Newton steps from each problem's own start.

Every estimator reads its problems as a `measurement.SyncedStack`.
`assemble_qcqp` builds P0 for all W problems of a stack at once, and the
yaw sweep runs on P0 of shape (W, 9, 9) in chunks of SWEEP_CHUNK
problems. The sweep's heading matrices are quadratic in (cos, sin) of
the heading, so two matmuls with constant factors give all of them.
From there every stage is elementwise arithmetic on (W, 72) planes, one
array per scalar of the solve, with no LAPACK call and no matmul per
heading: the 3x3 eigenproblems in closed form (`_eigh3_planes`), the
roots bracketed by bisection and polished by Newton steps, the points
and their costs. Each stage is a helper whose planes die when it
returns, so a chunk holds about 50 planes per problem at once, and 64
problems, every window of a 120 s drift stream, sweep in one pass. One
problem's data cannot fail another's, and a problem gets the same bits
alone as in any chunk. Then the candidates of all problems are refined
together by one `solvers.lockstep_newton` call.

Every estimator has one contract. Its point stage (`_qcqp_points`,
`_sdp_points`, `_nls_points`) takes a stack of W problems, plus, for the
local `nls` alone, a (W, 4) array of starts, and returns arrays: the
estimates (W, 4) of (t_x, t_y, t_z, theta), theta wrapped into [-pi, pi)
as `Transform4DoF` wraps it and NaN rows where a problem failed, one (W,)
array per solver scalar, and the error of every problem that fails. A
problem gets the same bits as in a stack of one. Below the `ESTIMATORS`
entries every function takes that one form, a stack, and gives arrays:
the lift (`_lift`), its cost (`_lifted_cost`), the relaxation
(`solve_sdp_relaxation`), its rank-one readout (`_rank_one_states`,
`_headings`) and the FIM (`fisher.fim`). An entry is the one timer: it
times the point stage once and adds its time per problem as the solver
scalar wall_ms. A stack in gives the point stage. A dataset in gives its
`EstimateReport`: the point stage of `dataset.stack()`, a stack of one,
then `_report`, the only place that builds a `Transform4DoF`, a solver
dict and, through `fisher.singularity_flags`, the `SingularityFlags` of
row 0 of the stack's `fisher.FimArrays`, which raises the problem's
error. A Monte-Carlo cell (`simulation.monte_carlo_run`) stacks its
trials and reads the estimate array and wall_ms of their point stage,
whatever the estimator. The sliding-window runner for drift tracking
returns a `WindowTrack` of arrays: `qcqp` and `sdp` run the point stage
of every window at once, then one stacked Fisher pass (`fisher.fim`) at
every estimate gives the kappa that gates each window, and the CRLB;
`nls` starts each window from the previous kept estimate, window by
window, each window a stack of one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fisher import FimArrays, SingularityFlags, fim, singularity_flags
from .geometry import Transform4DoF, heading_cos_sin, wrap_angle
from .measurement import SyncedDataset, SyncedStack, debias_squared
from .solvers import CONVERGED, MAX_ITER, NON_FINITE, SolveDiagnostics, lockstep_newton, sdp_solve

SWEEP_HEADINGS = 72  # yaw grid of `_sweep`, 5 degree steps
SWEEP_CANDIDATES = 3  # grid minima handed to the local refinement
# problems per batched sweep. The sweep frees each (W, 72) plane after its
# last read, so its traced peak is 28.4 KB per problem (57.9 KB when every
# plane lived to the end): at the peak, in the 2x2 rotation of
# `_eigh3_planes`, 50 float planes per problem are alive (M's 15, 2 w, the
# Schur complement's 6 and 28 of the eigensolver's) and 2 bool planes.
# Time per problem falls up to ~48 problems and is flat to 128 (1900 bench
# problems); 64 sweeps the 60 windows of a 120 s drift stream in one pass,
# at a bench drift peak RSS of 44.5 MB (43.7 MB with 16 and no freeing)
SWEEP_CHUNK = 64
# lockstep iterations per refinement start (one solve and at most one
# evaluation each). With the exact Hessian the steps converge
# quadratically: bench drift starts and large-residual stress cases
# (8 rows, sigma_r 0.5 m) need at most ~22. `nls` takes Gauss-Newton
# steps, which converge only linearly on large residuals: zero starts
# need up to ~200 (197 on a default-cell trial)
REFINE_MAX_ITER = 200
# sliding windows whose information matrix at the estimate has a larger
# condition number are skipped: near-singular geometry gives junk
# updates. Stricter than fisher.DEFAULT_KAPPA_THRESHOLD: over 20 bench
# drift seeds (120 s each), skipping at 2e5 instead raises the median
# corrected RMSE from 7.25 to 7.36 m. A gate on each window's innovation
# against the random-walk model may replace both
WINDOW_KAPPA_LIMIT = 3e4
# duality-gap tolerance and iteration budget of the `sdp` relaxation
SDP_TOL = 1e-14
SDP_MAX_ITER = 200


class DegenerateSolutionError(RuntimeError):
    """No estimate can be read off a solution: the lifted cost P0 is not
    finite, the SDP relaxation ended other than optimal, rank-one recovery
    failed (non-positive spectrum or vanished scale), the (cos, sin) block
    of the lifted state has no usable direction, or every refinement start
    diverged. The CLI's exit code 4."""


def _lift(tx, ty, tz, c, s) -> np.ndarray:
    """Lifted 9-vectors, along the last axis, of translations and the
    cosines and sines of their headings: floats, or (W,) arrays for W."""
    x = [tx, ty, tz, c, s, tx * c + ty * s, ty * c - tx * s, tx * tx + ty * ty + tz * tz, np.ones_like(c)]
    return np.stack(x, axis=-1)


def build_data_rows(pa, pb, s) -> np.ndarray:
    """Rows B, shape (..., k, 9), with B[i] . x(T) = ||t + C pb_i - pa_i||^2 - s_i for every T.

    pa and pb have shape (..., k, 3) and s shape (..., k); leading axes
    stack independent problems.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    pax, pay, paz = pa[..., 0], pa[..., 1], pa[..., 2]
    pbx, pby, pbz = pb[..., 0], pb[..., 1], pb[..., 2]
    # row-wise dot products; the batched matmul rounds each like pa_i @ pa_i
    sq_a = (pa[..., None, :] @ pa[..., :, None])[..., 0, 0]
    sq_b = (pb[..., None, :] @ pb[..., :, None])[..., 0, 0]
    return np.stack(
        [
            -2.0 * pax,
            -2.0 * pay,
            2.0 * (pbz - paz),
            -2.0 * (pax * pbx + pay * pby),
            2.0 * (pax * pby - pbx * pay),
            2.0 * pbx,
            2.0 * pby,
            np.ones(pax.shape),
            sq_a + sq_b - 2.0 * paz * pbz - np.asarray(s, dtype=float),
        ],
        axis=-1,
    )


def _sym_from_triplets(triplets) -> np.ndarray:
    """Symmetric 9x9 read-only matrix from (i, j, value) triplets (0-indexed).

    Off-diagonal triplets split half/half across (i, j) and (j, i) so the
    quadratic form x' P x reproduces the stated bilinear relation.
    """
    P = np.zeros((9, 9))
    for i, j, v in triplets:
        if i == j:
            P[i, i] += v
        else:
            P[i, j] += 0.5 * v
            P[j, i] += 0.5 * v
    P.flags.writeable = False
    return P


# the constraints x' P_i x = r_i of the lift: four structural ones, r = (1,
# 0, 0, 0), then ||t||^2 = d0^2 for a problem with d0. Shared and read-only
_CONSTRAINT_MATRICES = tuple(
    _sym_from_triplets(triplets)
    for triplets in (
        [(3, 3, 1.0), (4, 4, 1.0)],
        [(0, 3, 1.0), (1, 4, 1.0), (8, 5, -1.0)],
        [(1, 3, 1.0), (0, 4, -1.0), (8, 6, -1.0)],
        [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (7, 8, -1.0)],
        [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
    )
)
@dataclass
class QcqpProblem:
    """Lifted quadratic cost, minimized subject to `_CONSTRAINT_MATRICES`.

    P0 = B' diag(1/sigma_s) B keeps the true weighted-least-squares
    scale; `weights` are the per-row inverse variances used to rebuild
    the cost row-wise during refinement. A stack of W problems carries a
    leading axis of W on P0, B and weights; the norm-constraint values
    are the stack's own d0.
    """

    P0: np.ndarray
    B: np.ndarray
    weights: np.ndarray


@dataclass
class EstimateReport:
    """Estimate plus uncertainty and solver diagnostics.

    `fim` is the information at the estimate, the `FimArrays` of a stack
    of one, and `flags` the verdicts of its row 0.
    """

    theta_hat: Transform4DoF
    solver: dict
    fim: FimArrays
    flags: SingularityFlags


def assemble_qcqp(data: SyncedDataset | SyncedStack) -> QcqpProblem:
    """Build the lifted quadratic program of a `SyncedStack`: the stack of
    its W problems, one row of B per range row.

    A dataset gives the one problem of `data.stack()`, without the
    leading axis: B has one row per range, plus a last row for d0 when d0
    is not the first range. Each problem of a stack is, bit for bit, the
    one its own stack of one gives. From ranges near 1e152 m, the weighted
    products of B's d^2 terms overflow P0, silently: the point stages fail
    such a problem on its own (`_sweep_stack`, `_sdp_points`).
    """
    stack = data.stack() if isinstance(data, SyncedDataset) else data
    if stack.d.shape[1] < 1:
        raise ValueError("need at least one synced sample")
    s, variance = debias_squared(stack)
    w = 1.0 / variance
    B = build_data_rows(stack.pa, stack.pb, s)
    with np.errstate(over="ignore", invalid="ignore"):
        P0 = (B * w[..., None]).swapaxes(-1, -2) @ B
        P0 = 0.5 * (P0 + P0.swapaxes(-1, -2))
    if stack is data:
        return QcqpProblem(P0=P0, B=B, weights=w)
    return QcqpProblem(P0=P0[0], B=B[0], weights=w[0])


def solve_sdp_relaxation(P0: np.ndarray, d0: Optional[np.ndarray]) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve W lifted problems, P0 of shape (W, 9, 9), with the rank
    constraint dropped, to SDP_TOL within SDP_MAX_ITER iterations, in one
    `sdp_solve` call. X has P0's shape and the diagnostics hold one entry
    per problem. The constraints are `_CONSTRAINT_MATRICES`, the last one,
    ||t||^2 = d0^2, only with d0 (W,).

    With d0, the solver sees each problem's lift in units of its d0: t, u
    and v over d0 and tau over d0^2 (D A_i D = k_i A_i for D the
    scaling). The optimum's entries, up to ||t||^4, are then O(1) like the
    start X = I: at d0 50 m with D 20 m the median iteration count falls
    from 32 to 22. The scaled right-hand sides are (1, 0, 0, 0, 1) for
    every d0, so every problem of the stack, whatever its d0, shares the
    one constraint set (A, b) of `sdp_solve`.
    Each d0^2 is a Python float's square, libm's pow, which numpy's
    square of an array does not always match in the last bit.
    """
    W = len(P0)
    one = np.ones(W)
    r2 = one if d0 is None else np.array([r**2 for r in d0.tolist()])
    r = np.sqrt(r2)
    D = np.stack([r, r, r, one, one, r, r, r2, one], axis=1)
    m = 4 if d0 is None else 5
    b = [1.0, 0.0, 0.0, 0.0, 1.0][:m]
    C = P0 * D[:, :, None] * D[:, None, :]
    X, _, diag = sdp_solve(C, _CONSTRAINT_MATRICES[:m], b, tol=SDP_TOL, max_iter=SDP_MAX_ITER)
    # from d0 ~1e80 the lifted state's ||t||^4 entry is past the float range:
    # X then overflows, and its readout fails the problem (`_rank_one_states`)
    with np.errstate(over="ignore"):
        X = X * D[:, :, None] * D[:, None, :]
    return X, diag


def _rank_one_states(lam0: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rank-one lifted states sqrt(lam0) q of W problems, lam0 (W,) and
    q (W, 9), each rescaled to a homogenizer of exactly one, which also
    fixes its sign; and {problem index: DegenerateSolutionError} for the
    problems with no positive spectrum or a vanished homogenizer."""
    errors = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.sqrt(lam0)[:, None] * q
        norm = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])  # np.linalg.norm's BLAS dot, row by row
        for reason, failed in (
            ("matrix has no positive spectrum", ~(lam0 > 0)),
            ("homogenization component vanished", np.abs(x[:, 8]) < 1e-9 * norm),
        ):
            for i in np.flatnonzero(failed).tolist():
                errors.setdefault(i, DegenerateSolutionError(reason))
        return x / x[:, 8:], errors


def _headings(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """The headings of normalized lifted states x (W, 9), their (cos, sin)
    block renormalized to the unit circle, and {problem index:
    DegenerateSolutionError} where that block is too small (heading NaN).
    On Python floats: numpy's hypot and arctan2 differ from math's in the
    last bit."""
    theta, errors = np.full(len(x), math.nan), {}
    for i, (c, s) in enumerate(x[:, 3:5].tolist()):
        norm = math.hypot(c, s)
        if norm < 1e-6:
            errors[i] = DegenerateSolutionError("cos/sin block too small to define a heading")
        else:
            theta[i] = math.atan2(s / norm, c / norm)
    return theta, errors


def _scaled_rows(B: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """B scaled by sqrt(w / max w): the refinement's cost is ||these rows times the lift||^2."""
    return B * np.sqrt(weights / weights.max(axis=-1, keepdims=True))[..., None]


def _lift_operator() -> np.ndarray:
    """K, shape (15, 21 * 9): the lift and its derivatives as linear maps of the monomials of `_lift_stack`.

    Row block 0 of monomials @ K is the lift x, block 1 + a is d x / d p_a
    and block 5 + 4 a + b is d2 x / d p_a d p_b, for p = (t_x, t_y, t_z,
    theta). Differentiation maps a monomial to a combination of
    monomials, so each derivative is a matrix too.
    """
    # x = [t_x, t_y, t_z, c, s, t_x c + t_y s, t_y c - t_x s, ||t||^2, 1] as {monomial: coefficient}
    lift = [{3: 1}, {6: 1}, {9: 1}, {1: 1}, {2: 1}, {4: 1, 8: 1}, {7: 1, 5: -1}, {12: 1, 13: 1, 14: 1}, {0: 1}]
    X = np.zeros((15, 9))
    for col, terms in enumerate(lift):
        X[list(terms), col] = list(terms.values())
    d = np.zeros((4, 15, 15))  # d[a, j, k]: coefficient of monomial k in d monomial_j / d p_a
    for a in range(3):
        d[a, 3 * (a + 1) + np.arange(3), np.arange(3)] = 1.0
        d[a, 12 + a, 3 * (a + 1)] = 2.0
    for a in range(4):
        d[3, 3 * a + 1, 3 * a + 2] = -1.0  # d cos = -sin
        d[3, 3 * a + 2, 3 * a + 1] = 1.0  # d sin = cos
    # d[a]' maps the coefficients of an expression to those of its derivative;
    # einsum, not matmul, so that importing the module starts no BLAS
    first = np.einsum("ajk,jc->akc", d, X)
    second = np.einsum("bjk,ajc->abkc", d, first).reshape(16, 15, 9)
    return np.concatenate([X[None], first, second]).transpose(1, 0, 2).reshape(15, -1)


_LIFT_K = _lift_operator()


def _lift_stack(p: np.ndarray) -> np.ndarray:
    """Lift of p = (t_x, t_y, t_z, theta), shape (n, 4), with its first and
    second derivatives: rows 0, 1 + a and 5 + 4 a + b of the (n, 21, 9) result.

    They are linear in the monomials [1, t] (x) [1, cos theta, sin theta]
    (index 3 a + b) and t_x^2, t_y^2, t_z^2: one matmul with `_LIFT_K`.
    """
    n = len(p)
    phi = np.empty((n, 15))
    outer = phi[:, :12].reshape(n, 4, 3)  # a view
    outer[:, 0, 0] = 1.0
    outer[:, 1:, 0] = p[:, :3]
    np.cos(p[:, 3], out=outer[:, 0, 1])
    np.sin(p[:, 3], out=outer[:, 0, 2])
    np.multiply(outer[:, 1:, :1], outer[:, :1, 1:], out=outer[:, 1:, 1:])
    np.multiply(p[:, :3], p[:, :3], out=phi[:, 12:])
    return (phi @ _LIFT_K).reshape(n, 21, 9)


def _factor_lift(p: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The `qcqp` refinement's residual rows: R x(p) and its derivatives,
    (n, 21, 9), for starts p (n, 4) on their square-root factors R (n, 9, 9)."""
    return _lift_stack(p) @ R.swapaxes(-1, -2)


_UPPER = np.triu(np.ones((9, 9), dtype=bool))


def _sqrt_factor(B: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """R (n, 9, 9), upper triangular, with R'R = B_w' B_w for the scaled rows B_w of n problems (B (n, k, 9)).

    One batched Householder QR; fewer rows than 9 leave zero rows at the bottom.
    R is the upper triangle of the "raw" factorisation, as mode="r" takes
    it, bit for bit, but with a constant mask in place of the one that
    mode builds on every call.
    """
    n = len(B)
    h, _ = np.linalg.qr(_scaled_rows(B, weights), mode="raw")
    k = min(h.shape[-1], 9)  # h is the transposed (n, 9, rows) factorisation
    R = np.where(_UPPER[:k], h.swapaxes(-1, -2)[:, :k], 0.0)
    if k < 9:
        R = np.concatenate([R, np.zeros((n, 9 - R.shape[1], 9))], axis=1)
    return R


def _eigh3_planes(a00, a11, a22, a01, a02, a12) -> tuple[list, list]:
    """Eigenpairs of symmetric 3x3 matrices given as six arrays of equal shape, one per unique entry.

    Returns the three eigenvalue arrays, ascending, and the nine arrays of
    the unit eigenvectors, U[3 i + k] the component i of eigenvector k.
    Elementwise, so a stack costs a fixed number of array operations,
    where LAPACK pays per matrix. With A = m I + K, m the mean eigenvalue,
    the trigonometric formula (Smith, CACM 1961) gives the eigenvalue
    farthest from the other two. Its eigenvector is the largest column of
    adj(K - lam I), which has rank one. One exact 2x2 Jacobi rotation of K
    projected onto the orthogonal complement gives the other two pairs, so
    repeated eigenvalues cost no accuracy. Residuals ||A U - U mu|| are
    within a few eps ||A||, as LAPACK's. Never raises: a non-finite matrix
    gives non-finite pairs. Each stage is a helper whose temporaries die
    when it returns.
    """
    m = (a00 + a11 + a22) / 3.0
    lam, top, v, lo, hi, u, w = _eigh3_shifted(a00 - m, a11 - m, a22 - m, a01, a02, a12)
    # lam is outermost up to rounding where all three nearly coincide: clamp it
    mu = [np.where(top, lo, np.minimum(lam, lo)), np.where(top, hi, lo), np.where(top, np.maximum(lam, hi), hi)]
    # columns [u, w, v] where lam is the largest, [v, u, w] where it is the smallest
    U = [np.where(top, *pair) for i in range(3) for pair in ((u[i], v[i]), (w[i], u[i]), (v[i], w[i]))]
    return [x + m for x in mu], U


def _eigh3_shifted(k00, k11, k22, a01, a02, a12) -> tuple:
    """The pairs of K = A - m I that `_eigh3_planes` orders: lam, the
    eigenvalue farthest from the other two, where it is the largest (top),
    its eigenvector v, and the pairs (lo, u) and (hi, w) on v's complement."""
    lam, top = _outer_eigenvalue(k00, k11, k22, a01, a02, a12)
    v = _outer_eigenvector(k00, k11, k22, a01, a02, a12, lam)
    a, b = _complement_basis(*v)
    lo, hi, c, s = _jacobi_rotation(*_projected(k00, k11, k22, a01, a02, a12, a, b))
    u = tuple(c * ai - s * bi for ai, bi in zip(a, b))  # eigenvector of lo
    w = tuple(s * ai + c * bi for ai, bi in zip(a, b))  # of hi
    return lam, top, v, lo, hi, u, w


def _outer_eigenvalue(k00, k11, k22, a01, a02, a12):
    """The eigenvalue of K (trace zero) farthest from the other two, and where it is the largest."""
    p = np.sqrt((k00 * k00 + k11 * k11 + k22 * k22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    # eigenvalues of K are 2 p cos(acos(r) / 3 + 2 pi j / 3), with r half
    # the determinant of K / p; r >= 0 sets the largest (j = 0) apart from
    # the other two, r < 0 the smallest
    inv = 1.0 / (p + (p == 0.0))
    n00, n11, n22, n01, n02, n12 = k00 * inv, k11 * inv, k22 * inv, a01 * inv, a02 * inv, a12 * inv
    det = n00 * (n11 * n22 - n12 * n12) + n01 * (2.0 * n12 * n02 - n01 * n22) - n11 * n02 * n02
    r = np.minimum(np.maximum(0.5 * det, -1.0), 1.0)
    top = r >= 0.0
    return 2.0 * p * np.cos(np.arccos(r) / 3.0 + (2.0 * math.pi / 3.0) * ~top), top


def _outer_eigenvector(k00, k11, k22, a01, a02, a12, lam) -> tuple:
    """Unit eigenvector (vx, vy, vz) of K for lam: the largest column of adj(K - lam I)."""
    b00, b11, b22 = k00 - lam, k11 - lam, k22 - lam
    c00, c11, c22 = b11 * b22 - a12 * a12, b00 * b22 - a02 * a02, b00 * b11 - a01 * a01
    c01, c02, c12 = a02 * a12 - a01 * b22, a01 * a12 - a02 * b11, a01 * a02 - b00 * a12
    # adj = (product of the other two gaps) v v': its largest diagonal entry marks its largest column
    d0, d1, d2 = np.abs(c00), np.abs(c11), np.abs(c22)
    i0 = (d0 >= d1) & (d0 >= d2)
    i1 = ~i0 & (d1 >= d2)
    vx = np.where(i0, c00, np.where(i1, c01, c02))
    vy = np.where(i0, c01, np.where(i1, c11, c12))
    vz = np.where(i0, c02, np.where(i1, c12, c22))
    n2 = vx * vx + vy * vy + vz * vz
    flat = n2 == 0.0  # K = 0: any basis
    n = np.sqrt(n2) + flat
    return (vx + flat) / n, vy / n, vz / n


def _complement_basis(vx, vy, vz) -> tuple:
    """a, b: orthonormal basis of the unit vector v's complement (Duff et al., JCGT 2017)."""
    sg = np.copysign(1.0, vz)
    h = -1.0 / (sg + vz)
    xy = vx * vy * h
    return (1.0 + sg * vx * vx * h, sg * xy, -sg * vx), (xy, sg + vy * vy * h, -vy)


def _projected(k00, k11, k22, a01, a02, a12, a, b) -> tuple:
    """a' K a, b' K b and a' K b."""
    (ax, ay, az), (bx, by, bz) = a, b
    kax, kay, kaz = k00 * ax + a01 * ay + a02 * az, a01 * ax + k11 * ay + a12 * az, a02 * ax + a12 * ay + k22 * az
    kbx, kby, kbz = k00 * bx + a01 * by + a02 * bz, a01 * bx + k11 * by + a12 * bz, a02 * bx + a12 * by + k22 * bz
    return ax * kax + ay * kay + az * kaz, bx * kbx + by * kby + bz * kbz, ax * kbx + ay * kby + az * kbz


def _jacobi_rotation(al, be, ga) -> tuple:
    """Eigenvalues lo <= hi of [[al, ga], [ga, be]] and the rotation (c, s)
    whose columns (c, -s) and (s, c) are their eigenvectors."""
    # the rotation by the smaller angle, t = tan
    dl = 0.5 * (be - al)
    den = dl + np.copysign(np.hypot(dl, ga), dl)
    t = ga / (den + (den == 0.0))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    tg = t * ga
    lo, hi = np.minimum(al - tg, be + tg), np.maximum(al - tg, be + tg)
    # al - t ga is the upper one where al > be: rotate by a quarter turn more
    return lo, hi, np.where(dl < 0.0, s, c), np.where(dl < 0.0, -c, s)


_SWEEP_THETA = np.linspace(-math.pi, math.pi, SWEEP_HEADINGS, endpoint=False)
_PREV_HEADING = np.arange(SWEEP_HEADINGS) - 1
_NEXT_HEADING = (np.arange(SWEEP_HEADINGS) + 1) % SWEEP_HEADINGS
_ROOT_GRID = np.logspace(-16.0, 0.0, 33)  # multiples of the root's upper bound
_ROOT_STRIDES = (32, 16, 8, 4, 2, 1)  # of the bisection over _ROOT_GRID: they sum past its last index
# probes past the grid's end are at x = inf, where f = -inf
_ROOT_PROBES = np.append(_ROOT_GRID, np.full(sum(_ROOT_STRIDES) - len(_ROOT_GRID), np.inf))


def _sweep_expansion() -> tuple[np.ndarray, np.ndarray]:
    """L (81, 90) and Phi (6, SWEEP_HEADINGS) that give M_j = N_j' P0 N_j in two matmuls.

    N_j (9, 5) maps [t, tau, 1] to the lift at heading theta_j, and
    N_j = N_0 + cos(theta_j) N_c + sin(theta_j) N_s, so M_j is a
    combination of phi = [1, c, s, c^2, c s, s^2] whose coefficients are
    linear in P0: the 15 entries of M_j's upper triangle, row by row, are
    (P0.reshape(81) @ L).reshape(15, 6) @ Phi[:, j]. Built with einsum,
    not matmul, so that importing the module starts no BLAS.
    """
    N = np.zeros((3, 9, 5))  # N_0, N_c, N_s
    N[0, [0, 1, 2, 7, 8], [0, 1, 2, 3, 4]] = 1.0
    N[1, [3, 5, 6], [4, 0, 1]] = 1.0  # c, t_x c, t_y c
    N[2, [4, 5, 6], [4, 1, 0]] = 1.0, 1.0, -1.0  # s, t_y s, -t_x s
    S = np.zeros((3, 3, 6))  # [1, c, s]_u [1, c, s]_v = phi_k where S[u, v, k] = 1
    S[[0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 1, 2, 1, 3, 4, 2, 4, 5]] = 1.0
    rows, cols = np.triu_indices(5)
    L = np.einsum("uia,vjb,uvk->ijabk", N, N, S)[:, :, rows, cols].reshape(81, 90)
    c, s = np.cos(_SWEEP_THETA), np.sin(_SWEEP_THETA)
    return L, np.array([np.ones_like(c), c, s, c * c, c * s, s * s])


_SWEEP_L, _SWEEP_PHI = _sweep_expansion()


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sweep(P0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starting points for the local refinement of W problems, P0 of shape (W, 9, 9).

    At grid heading theta_j the cost is [y, 1]' M_j [y, 1] with
    M_j = N_j' P0 N_j: least squares in y = (t, tau) under the one
    constraint tau = ||t||^2, the squared-range localisation problem that
    a Lagrange multiplier solves exactly (Beck, Stoica & Li 2008). With
    tau eliminated and (mu, U) the eigenpairs of the Schur complement of
    the tau block, the constrained minimiser is
        U' t = e / (mu - mu_0 + x) - c / 2,
    where x > 0 is the one root of the convex, decreasing
        f(x) = sum_k e_k^2 / (mu_k - mu_0 + x)^2 + beta - x / (2 w).
    N_j is N_0 + cos(theta_j) N_c + sin(theta_j) N_s, so M_j is a fixed
    combination of [1, c, s, c^2, c s, s^2] at the heading, with
    coefficients linear in P0: one matmul with a constant (81, 90) matrix
    and one with the (6, 72) table of those functions give every M_j.
    The rest is elementwise over (W, SWEEP_HEADINGS) planes, one per
    scalar: the eigenpairs in closed form (`_eigh3_planes`), a bisection
    over a log grid that brackets every heading's root at once, Newton
    steps from the bracket's left end that converge on it without
    overshooting, the points and their costs y' M_j y. Where f has no
    positive root (the hard case, e_0 = 0) the minimiser sits at x = 0 and
    moves along U_0 until tau = ||t||^2 holds. The stages that hold the
    most planes are helpers, so their planes die when they return (see
    SWEEP_CHUNK).

    The mirror point, with the U_0 component of the other sign, is the
    second basin of near-planar data, and the 5 degree step can hide its
    minimum behind the first one's. So both points of every heading are
    kept (a leading axis of 2), and each continues to the nearer point of
    the next heading (compared on squared distances; point 0 where the
    two tie). The minima along these two branches are the candidates,
    lowest cost first and at most SWEEP_CANDIDATES, unless the parabola
    through a minimum and its two neighbours stays above the lowest grid
    cost.

    Returns the candidates' translations (W, SWEEP_CANDIDATES, 3), their
    grid heading indices (W, SWEEP_CANDIDATES) and each problem's number
    of candidates (W,), lowest cost first; the slots past that number are
    padding. A problem with no finite grid cost, as for non-finite data,
    has no candidate; the sweep raises nothing.
    """
    W, m = len(P0), SWEEP_HEADINGS
    t, cost = _sweep_grid(P0)
    best = cost.min(axis=(0, 2))[:, None]
    # the nearer point of the heading next door continues a branch, point 1
    # only where it is strictly nearer. dist[b, k]: squared distance from
    # point b of heading j to point k of heading j + 1
    dist = (t[0][:, None] - t[0][None, :, :, _NEXT_HEADING]) ** 2
    dist += (t[1][:, None] - t[1][None, :, :, _NEXT_HEADING]) ** 2
    dist += (t[2][:, None] - t[2][None, :, :, _NEXT_HEADING]) ** 2
    succ = np.where(dist[:, 1] < dist[:, 0], cost[1][:, _NEXT_HEADING], cost[0][:, _NEXT_HEADING])
    # from point k of heading j - 1 to point b of heading j
    back = (dist[1] < dist[0])[..., _PREV_HEADING]
    prev = np.where(back, cost[1][:, _PREV_HEADING], cost[0][:, _PREV_HEADING])
    curv = 0.5 * (prev + succ) - cost
    # the products overflow from d0 ~1e90, whose refinement then diverges
    with np.errstate(over="ignore"):
        flat = 16.0 * curv * (cost - best) <= (prev - succ) ** 2
    local_min = (cost <= prev) & (cost <= succ) & ((cost == best) | flat)
    ranked = np.where(local_min & (best < math.inf), cost, math.inf).transpose(1, 0, 2).reshape(W, -1)
    order = np.argsort(ranked, axis=1, kind="stable")[:, :SWEEP_CANDIDATES]
    count = np.minimum(np.sum(ranked < math.inf, axis=1), SWEEP_CANDIDATES)
    b, j, rows = order // m, order % m, np.arange(W)[:, None]
    return np.stack([ti[b, rows, j] for ti in t], axis=-1), j, count


def _sweep_grid(P0: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Both points of every heading, (t0, t1, t2) of shape (2, W, m) each,
    and their costs (2, W, m), +inf where not finite: point b of heading j
    at [b, :, j], b = 1 the mirror point."""
    W = len(P0)
    # each column of L sums at most two entries of P0, exactly in any order;
    # Phi is applied problem by problem, so that BLAS sums the same way
    # whatever W is and a problem's bits do not depend on its chunk
    M = ((P0.reshape(W, 81) @ _SWEEP_L).reshape(W, 15, 6) @ _SWEEP_PHI).transpose(1, 0, 2)
    # rows of M's upper triangle over [t, tau, 1]; w is the sum of the row weights
    m00, m01, m02, m03, m04, m11, m12, m13, m14, m22, m23, m24, w, g_tau, m44 = M
    U, z = _eigenbasis_points(M)
    t0, t1, t2 = (_dot3(U[3 * i : 3 * i + 3], z) for i in range(3))
    tau = t0 * t0 + t1 * t1 + t2 * t2
    # y' M y with y = [t, tau, 1], one row of the upper triangle at a time
    cost = (
        t0 * (m00 * t0 + 2.0 * (m01 * t1 + m02 * t2 + m03 * tau + m04))
        + t1 * (m11 * t1 + 2.0 * (m12 * t2 + m13 * tau + m14))
        + t2 * (m22 * t2 + 2.0 * (m23 * tau + m24))
        + tau * (w * tau + 2.0 * g_tau)
        + m44
    )
    cost[~np.isfinite(cost)] = math.inf
    return (t0, t1, t2), cost


def _eigenbasis_points(M: np.ndarray) -> tuple[list, tuple]:
    """The eigenvectors U of the Schur complement and both points in their
    basis, z = U' t: z[0] of shape (2, W, m), z[1] and z[2] (W, m)."""
    w = M[12]
    two_w = 2.0 * w
    U, e, c, beta, d1, d2, x_top = _secular_equation(M, two_w)
    e0, e1, e2 = e
    last, x = _secular_root(e, d1, d2, beta, two_w, 0.5 / w, x_top)
    v1, v2 = e1 / (d1 + x), e2 / (d2 + x)
    # hard case: f < 0 down to the floor; planar data (pb_z - pa_z
    # constant) put every heading here, with U_0 the vertical
    hard = last < 0
    v0 = np.sqrt(np.maximum(x / two_w - beta - (v1 * v1 + v2 * v2), 0.0))
    v0 = np.where(hard, np.copysign(v0, e0), e0 / x)
    # the mirror point takes the U_0 component of the other sign
    return U, (np.stack([v0, -v0]) - 0.5 * c[0], v1 - 0.5 * c[1], v2 - 0.5 * c[2])


def _secular_equation(M: np.ndarray, two_w: np.ndarray) -> tuple:
    """U, e, c, beta, d1 = mu_1 - mu_0, d2 = mu_2 - mu_0 and the upper
    bound x_top of the root of f, at every heading (see `_sweep`)."""
    m00, m01, m02, m03, m04, m11, m12, m13, m14, m22, m23, m24, w, g_tau, m44 = M
    q = (m03, m13, m23)
    mu, U = _eigh3_planes(
        m00 - q[0] * q[0] / w,
        m11 - q[1] * q[1] / w,
        m22 - q[2] * q[2] / w,
        m01 - q[0] * q[1] / w,
        m02 - q[0] * q[2] / w,
        m12 - q[1] * q[2] / w,
    )
    cols = [U[k::3] for k in range(3)]  # eigenvector k
    g = g_tau / w
    r = (q[0] * g - m04, q[1] * g - m14, q[2] * g - m24)
    c = [_dot3(u, q) / w for u in cols]
    e = tuple(_dot3(u, r) + 0.5 * mu_k * c_k for u, mu_k, c_k in zip(cols, mu, c))
    d1, d2 = mu[1] - mu[0], mu[2] - mu[0]
    beta = g - 0.25 * _dot3(c, c) + mu[0] / two_w
    # f(x) <= ||e||^2 / x^2 + beta - x / (2 w), which is negative at x_hi;
    # the floor keeps the grid positive where e and beta vanish (static data)
    x_hi = np.maximum(4.0 * w * beta, np.cbrt(4.0 * w * (e[0] * e[0] + e[1] * e[1] + e[2] * e[2])))
    return U, e, c, beta, d1, d2, np.maximum(x_hi, 1e-12 * mu[2] + 1e-300)


def _secular_root(e, d1, d2, beta, two_w, half_w, x_top) -> tuple:
    """The last grid point where f > 0 (-1 where none is) and the root of f, Newton-polished from there."""
    e0, e1, e2 = e
    # the last grid point where f > 0, by bisection: f decreases in x, and
    # so does its rounded value (each operation rounds monotonically), so
    # this is the point a scan of the whole grid finds
    last = np.full(x_top.shape, -1)
    for stride in _ROOT_STRIDES:
        x = x_top * _ROOT_PROBES[last + stride]
        f = (e0 / x) ** 2 + (e1 / (d1 + x)) ** 2 + (e2 / (d2 + x)) ** 2 + beta - x / two_w
        last = np.where(f > 0.0, last + stride, last)
    x_floor = x_top * _ROOT_GRID[0]
    x = x_top * _ROOT_GRID[np.maximum(last, 0)]
    with np.errstate(over="ignore"):  # the step overflows from d0 ~1e120, which the sweep then fails
        for _ in range(8):
            x1, x2 = d1 + x, d2 + x
            r0, r1, r2 = (e0 / x) ** 2, (e1 / x1) ** 2, (e2 / x2) ** 2
            step = (r0 + r1 + r2 + beta - x / two_w) / (2.0 * (r0 / x + r1 / x1 + r2 / x2) + half_w)
            x = np.maximum(x + step, x_floor)
    return last, x


def _sweep_stack(P0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """`_sweep` over the problems of a stack of W >= 1 whose P0 is finite,
    in chunks of SWEEP_CHUNK.

    The chunks cap the sweep's temporaries, (W, 72) planes that grow with
    the number of problems (see SWEEP_CHUNK). Each problem's result does
    not depend on the others in its chunk, bit for bit (see `_sweep`), and
    the sweep never raises. A problem whose P0 is not finite is not swept,
    so its arithmetic cannot overflow. Also returns {problem index:
    DegenerateSolutionError} for the problems without a candidate: those
    not swept, and those with no finite grid cost.
    """
    W = len(P0)
    finite = np.isfinite(P0).all(axis=(1, 2))
    swept = P0[finite]
    parts = [_sweep(swept[lo : lo + SWEEP_CHUNK]) for lo in range(0, len(swept), SWEEP_CHUNK)]
    t, heading = np.zeros((W, SWEEP_CANDIDATES, 3)), np.zeros((W, SWEEP_CANDIDATES), dtype=np.intp)
    count = np.zeros(W, dtype=np.intp)
    if parts:
        t[finite], heading[finite], count[finite] = (np.concatenate(a) for a in zip(*parts))
    errors = {
        i: DegenerateSolutionError("no grid heading has a finite cost" if finite[i] else "the lifted cost is not finite")
        for i in np.flatnonzero(count == 0).tolist()
    }
    return t, heading, count, errors


def _information(points: tuple, stack: SyncedStack) -> FimArrays:
    """The stacked FIM at a point stage's W estimates, as a one-by-one loop
    gives it: the first failing problem's error is raised, once the
    problems before it have their FIM, whose zero range raises first.

    points is (estimates, solver scalars, {problem: error}) of
    `_qcqp_points`, `_sdp_points` or `_nls_points` on the stack.
    """
    estimates, _, errors = points
    n = min(errors, default=len(estimates))
    info = fim(estimates[:n, :3], estimates[:n, 3], stack.pa[:n], stack.pb[:n], stack.sigma_r) if n else None
    if errors:
        raise errors[n]
    return info


def _report(method: str, points: tuple, stack: SyncedStack) -> EstimateReport:
    """The EstimateReport of a point stage on a stack of one: its estimate,
    its solver scalars under "method", its FIM (see `_information`) and
    the flags of that FIM."""
    info = _information(points, stack)
    estimates, scalars, _ = points
    return EstimateReport(
        theta_hat=Transform4DoF(t=estimates[0, :3], theta=estimates[0, 3]),
        solver={"method": method, **{name: values.tolist()[0] for name, values in scalars.items()}},
        fim=info,
        flags=singularity_flags(info),
    )


def _sdp_points(stack: SyncedStack) -> tuple[np.ndarray, dict, dict]:
    """Point stage of `sdp` for a stack of W problems: the relaxation
    alone, read off without refinement.

    One assembly, then one `sdp_solve` call relaxes every problem whose P0
    is finite, and one batched eigh of the X stack gives each its rank-one
    state (`_rank_one_states`), heading (`_headings`), rank_x and
    lambda_ratio. A problem whose P0 is not finite is not relaxed: its
    X stays zero and its status reads "not_finite". Returns the estimates
    (W, 4), the solver scalars (iterations, status, gap, rank_x,
    lambda_ratio, final_cost), one (W,) array each, and
    {problem index: error} for every problem not relaxed or whose
    relaxation ended other than optimal (DegenerateSolutionError), or
    whose rank-one state has no heading; their rows are NaN.
    """
    problem = assemble_qcqp(stack)
    W = len(stack.d)
    relaxed = np.isfinite(problem.P0).all(axis=(1, 2))
    X, iterations = np.zeros((W, 9, 9)), np.zeros(W, dtype=int)
    status, gap = np.full(W, "not_finite", dtype=object), np.full(W, math.nan)
    if relaxed.any():
        X[relaxed], diag = solve_sdp_relaxation(problem.P0[relaxed], None if stack.d0 is None else stack.d0[relaxed])
        iterations[relaxed], status[relaxed], gap[relaxed] = diag.iterations, diag.status, diag.gap
    lam, Q = np.linalg.eigh(X)
    lam = np.maximum(lam[:, ::-1], 0.0)
    rank = np.sum(lam > 1e-6 * lam[:, :1], axis=1)
    errors = {
        i: DegenerateSolutionError(
            f"SDP relaxation ended {status[i]} after {iterations[i]} iterations" if relaxed[i] else "the lifted cost is not finite"
        )
        for i in np.flatnonzero(status != "optimal").tolist()
    }
    x, degenerate = _rank_one_states(lam[:, 0], Q[:, :, -1])
    theta, undefined = _headings(x)
    for found in (degenerate, undefined):  # a problem's first error counts
        for i, exc in found.items():
            errors.setdefault(i, exc)
    with np.errstate(divide="ignore", invalid="ignore"):
        lambda_ratio = lam[:, 1] / lam[:, 0]
    estimates = np.column_stack((x[:, :3], wrap_angle(theta)))
    estimates[list(errors)] = math.nan
    final_cost = np.full(W, math.nan)
    final_cost[relaxed] = _lifted_cost(problem.P0[relaxed], estimates[relaxed])
    scalars = {
        "iterations": iterations,
        "status": status,
        "gap": gap,
        "rank_x": rank,
        "lambda_ratio": lambda_ratio,
        "final_cost": final_cost,
    }
    return estimates, scalars, errors


def _lifted_cost(P0: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """x' P0 x of each problem at the lift x of its estimate, the same
    bits in any stack."""
    x = _lift(*estimates[:, :3].T, *heading_cos_sin(estimates[:, 3]))
    return ((x[:, None, :] @ P0) @ x[:, :, None])[:, 0, 0]


def _qcqp_points(stack: SyncedStack) -> tuple[np.ndarray, dict, dict]:
    """Point stage of `qcqp` for a stack of W problems: the lifted cost
    minimized over all feasible transforms. It takes no start: the sweep
    searches every heading.

    One assembly, then the sweep candidates of all problems form one
    stack of starts, refined by damped Newton steps in one
    `lockstep_newton` call on the residuals R x (`_factor_lift`), R the
    9x9 triangle of each problem's scaled rows. ||R x||^2 is the cost
    x' P0 x over max w, taken from residuals: the quadratic form itself
    has an absolute rounding floor (~1e-13) that would stall noiseless
    problems ~1e-8 m from the truth. The constraints hold by construction
    of the parameterization, and ||t|| is left free: a measured
    inter-origin distance is a range row of the stack. Each problem keeps
    its start of lowest cost. Returns the
    estimates (W, 4), the solver scalars (iterations, restarts,
    restarts_converged, final_cost), one (W,) array each, and
    {problem index: error} for every problem that failed: a sweep without
    a candidate, or every refinement start diverged
    (DegenerateSolutionError); their rows are NaN.
    """
    problem = assemble_qcqp(stack)
    cand_t, cand_heading, count, errors = _sweep_stack(problem.P0)
    W = len(count)
    estimates = np.full((W, 4), math.nan)
    iterations, converged, final_cost = np.zeros(W, dtype=int), np.zeros(W, dtype=int), np.full(W, math.nan)
    live = np.flatnonzero(count)  # the problems with a candidate
    if len(live):
        n = count[live]
        first = np.cumsum(n) - n  # each live problem's first start
        slot = np.flatnonzero(np.arange(SWEEP_CANDIDATES) < count[:, None])  # candidate slots in use
        p0 = np.concatenate((cand_t, _SWEEP_THETA[cand_heading][..., None]), axis=-1).reshape(-1, 4)[slot]
        owner = np.repeat(np.arange(len(live)), n)  # each start's live problem
        R = _sqrt_factor(problem.B[live], problem.weights[live])[owner]
        res = lockstep_newton(_factor_lift, p0, REFINE_MAX_ITER, data=(R,))
        cost = 2.0 * problem.weights[live].max(axis=-1)[owner] * res.cost  # x' P0 x = max w ||R x||^2
        # per problem, the first start of lowest cost; diverged starts rank after the others
        finite = res.status != NON_FINITE
        best = np.lexsort((cost, ~finite, owner))[first]
        iterations[live] = np.add.reduceat(res.iterations, first)
        converged[live] = np.add.reduceat(res.status == CONVERGED, first, dtype=int)
        final_cost[live] = cost[best]
        ok = finite[best]
        estimates[live[ok]] = res.p[best[ok]]
        estimates[:, 3] = wrap_angle(estimates[:, 3])
        for i in live[~ok].tolist():
            errors[i] = DegenerateSolutionError("all refinement starts diverged")
    scalars = {
        "iterations": iterations,
        "restarts": count,
        "restarts_converged": converged,
        "final_cost": final_cost,
    }
    return estimates, scalars, errors


_NLS_STATUS = np.empty(3, dtype=object)
_NLS_STATUS[[CONVERGED, MAX_ITER, NON_FINITE]] = "converged", "max_iter", "non_finite"


def _nls_points(stack: SyncedStack, starts: Optional[np.ndarray] = None) -> tuple[np.ndarray, dict, dict]:
    """Point stage of `nls` for a stack of W problems: damped Gauss-Newton
    least squares on the raw range residuals, from starts (W, 4) of
    (t_x, t_y, t_z, theta).

    The starts default to zero (no prior knowledge); like any local method
    this can settle in a poor minimum on hard geometry, which the solver
    scalars report rather than hide. One `lockstep_newton` call refines
    every problem from its own start on its own rows (d, pa, pb).
    Returns the estimates (W, 4), the solver scalars (iterations, status,
    final_cost, converged), one (W,) array each, and
    {problem index: error} for every problem whose refinement ended
    non_finite (DegenerateSolutionError); their rows are NaN.
    """
    sigma = stack.sigma_r

    def lift(p, d, pa, pb):
        # the residuals (||w|| - d) / sigma, w = t + C(theta) pb - pa, and
        # their gradients, for the rows of each start; the second-derivative
        # rows stay zero, so every step is a Gauss-Newton step, which ends at
        # better minima from a zero start than exact-Hessian steps do
        c, s = np.cos(p[:, 3:]), np.sin(p[:, 3:])
        bx, by = c * pb[..., 0] - s * pb[..., 1], s * pb[..., 0] + c * pb[..., 1]
        w = np.stack((bx - pa[..., 0], by - pa[..., 1], pb[..., 2] - pa[..., 2]), axis=1) + p[:, :3, None]
        dist = np.sqrt((w * w).sum(axis=1))
        rows = np.zeros((len(p), 21, d.shape[1]))
        rows[:, 0] = (dist - d) / sigma
        rows[:, 1:4] = w / (sigma * np.maximum(dist, 1e-12))[:, None]
        rows[:, 4] = bx * rows[:, 2] - by * rows[:, 1]  # d w / d theta = (-by, bx, 0)
        return rows

    W = len(stack.d)
    p0 = np.zeros((W, 4)) if starts is None else starts
    res = lockstep_newton(lift, p0, REFINE_MAX_ITER, data=(stack.d, stack.pa, stack.pb))
    scalars = {
        "iterations": res.iterations,
        "status": _NLS_STATUS[res.status],
        "final_cost": res.cost,
        "converged": res.status == CONVERGED,
    }
    estimates = np.column_stack((res.p[:, :3], wrap_angle(res.p[:, 3])))
    diverged = np.flatnonzero(res.status == NON_FINITE).tolist()
    estimates[diverged] = math.nan
    return estimates, scalars, {i: DegenerateSolutionError("the refinement diverged") for i in diverged}


def _estimator(method: str, points):
    """The `ESTIMATORS` entry of a point stage: see the comment there. It
    is the one timer of the estimators: wall_ms, a solver scalar of every
    problem, is the point stage's wall time over the number of problems."""

    def estimate(data: SyncedDataset | SyncedStack, *starts):
        stack = data if isinstance(data, SyncedStack) else data.stack()
        start = time.perf_counter()
        estimates, scalars, errors = points(stack, *starts)
        scalars["wall_ms"] = np.full(len(estimates), (time.perf_counter() - start) * 1e3 / len(estimates))
        if stack is data:
            return estimates, scalars, errors
        return _report(method, (estimates, scalars, errors), stack)

    return estimate


# One contract for every entry, and the one way to an estimator. A
# `SyncedStack` of W problems in gives its point stage: the estimates as
# one (W, 4) array of (t_x, t_y, t_z, theta), theta wrapped into [-pi, pi)
# and NaN rows where a problem failed, one (W,) array per solver scalar and
# {problem index: error} for every failing problem, with no FIM and no
# report. A start after the data goes to the point stage: only the local
# `nls` takes one, None or a (W, 4) array, from zero by default; the
# global `qcqp` and `sdp` take none, and a start given to them raises
# TypeError. A `SyncedDataset` in gives its EstimateReport: the point stage
# of `dataset.stack()`, a stack of one, with `_report`, which raises the
# problem's error. The entry times the point stage, assembly included, and
# adds the solver scalar wall_ms, that time over W; the point stages time
# nothing. The Monte-Carlo cells and the drift windows estimate through the
# stack form, the CLI's `estimate` through the dataset form, so every
# estimate goes through this table, where the benchmark's tracer
# (perfbench/tracing.py) times the estimate layer.
ESTIMATORS = {
    "qcqp": _estimator("qcqp", _qcqp_points),
    "sdp": _estimator("sdp", _sdp_points),
    "nls": _estimator("nls", _nls_points),
}


@dataclass(frozen=True)
class WindowTrack:
    """The sliding windows of a stream, one row per window.

    Window i covers the samples [start[i], stop[i]) and ends at time
    t_end[i]. estimate (W, 4) is its (t_x, t_y, t_z, theta), theta wrapped
    into [-pi, pi), and cost (W,) its solver's final cost. kappa (W,) and
    crlb (W, 4, 4) come from the Fisher information at the estimate; crlb
    is NaN where that is not invertible. skipped (W,) marks the windows
    whose kappa is not within WINDOW_KAPPA_LIMIT.
    """

    start: np.ndarray
    stop: np.ndarray
    t_end: np.ndarray
    estimate: np.ndarray
    cost: np.ndarray
    kappa: np.ndarray
    crlb: np.ndarray
    skipped: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


def sliding_window_estimate(
    stream: SyncedDataset,
    window: int = 50,
    stride: Optional[int] = None,
    estimator: str = "qcqp",
) -> WindowTrack:
    """Run the estimator over a stream in sliding windows.

    A window starts every `stride` samples (None: every `window`), and
    each step estimates from the latest `window` samples on its own:
    `qcqp` and `sdp` search every heading and need no starting point,
    while `nls` starts from the previous non-skipped window's estimate.
    Every window is estimated. One whose information matrix at the
    estimate is worse-conditioned than WINDOW_KAPPA_LIMIT is marked
    skipped, and the previous estimate stays current. The
    inter-origin-distance constraint is dropped inside windows: under
    drift the initial distance is stale.

    `qcqp` and `sdp` solve all windows in one stacked pass: their
    `ESTIMATORS` entry on the stack of `stream.windows`, one assembly
    without d0, then one stacked FIM (`fisher.fim`) at every
    estimate. For `qcqp` that is one yaw sweep pass per SWEEP_CHUNK
    windows (one pass for the 60 windows of a 120 s stream at the CLI
    default, five for 600 s) and one refinement of every candidate, for
    `sdp` one lockstep `sdp_solve` call. Their results and errors equal a
    window-by-window loop: the first failing window's error is raised.
    `nls` runs window by window, each window a stack of one.
    """
    if window < 10:
        raise ValueError(f"window must be >= 10, got {window}")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if stride is None:
        stride = window
    elif stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    starts = np.arange(0, len(stream) - window + 1, stride)
    W = len(starts)
    estimate, cost, kappa, crlb = np.empty((W, 4)), np.empty(W), np.empty(W), np.empty((W, 4, 4))
    if estimator == "nls":
        prev = None
        for i, a in enumerate(starts.tolist()):
            one = stream.windows([a], window)
            points = ESTIMATORS["nls"](one, prev)
            info = _information(points, one)
            estimate[i], cost[i] = points[0][0], points[1]["final_cost"][0]
            kappa[i], crlb[i] = info.kappa[0], info.crlb[0]
            if kappa[i] <= WINDOW_KAPPA_LIMIT:
                prev = points[0]
    elif W:
        windows = stream.windows(starts, window)
        points = ESTIMATORS[estimator](windows)
        info = _information(points, windows)
        estimate, cost, kappa, crlb = points[0], points[1]["final_cost"], info.kappa, info.crlb
    return WindowTrack(
        start=starts,
        stop=starts + window,
        t_end=stream.t[starts + window - 1],
        estimate=estimate,
        cost=cost,
        kappa=kappa,
        crlb=crlb,
        skipped=~(kappa <= WINDOW_KAPPA_LIMIT),
    )


def align_target_trajectory(stream: SyncedDataset, track: WindowTrack) -> np.ndarray:
    """Target positions mapped into the host frame, shape (k, 3).

    Each sample uses the most recent completed (non-skipped) window
    estimate of the track; a sample before the first estimate has none,
    and its row is NaN. One `searchsorted` over the sorted window stops
    picks every sample's estimate, and one batched rotation maps all
    samples.
    """
    kept = ~track.skipped
    order = np.argsort(track.stop[kept], kind="stable")
    # an estimate holds from its window's last sample until the next one's;
    # of windows ending together, the last one in the track holds
    first = np.maximum(track.stop[kept][order] - 1, 0)
    current = np.searchsorted(first, np.arange(len(stream)), side="right")  # 0: before every estimate
    # (t, cos, sin) of each estimate after a NaN row 0, the samples before
    # every estimate
    estimates = track.estimate[kept][order]
    params = np.full((len(estimates) + 1, 5), math.nan)
    params[1:, :3] = estimates[:, :3]
    params[1:, 3], params[1:, 4] = heading_cos_sin(estimates[:, 3])
    tx, ty, tz, c, s = params[current].T
    px, py, pz = stream.pb.T
    return np.column_stack((tx + (c * px - s * py), ty + (s * px + c * py), tz + pz))
