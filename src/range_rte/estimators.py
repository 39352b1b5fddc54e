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
solve of Beck, Stoica & Li 2008). `yaw_sweep` solves it on a fixed
heading grid in one batched pass and keeps the grid's lowest local
minima; each one is refined by Levenberg-Marquardt over the natural
parameters (t, theta), which satisfy the constraints by construction.
`qcqp` and `nls` do not pin ||t|| to the inter-origin distance d0: a d0
read off the first range is already a row of the cost, and any other d0
is fitted as one more range, taken between the two frame origins.

The `sdp` estimator keeps the paper's semidefinite relaxation, with
||t||^2 = d0^2 as a fifth constraint when d0 is known, and reads its
rank-one approximation off without refinement. A damped nonlinear
least-squares baseline on the raw range residuals rounds out the
estimators. Every entry of `ESTIMATORS` takes (dataset, init=None); only
`nls`, a local method, uses the starting point.

The sliding-window runner for drift tracking estimates each window on
its own: `qcqp` runs one sweep plus its refinements, and `nls` starts
from the previous window's estimate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fisher import SingularityFlags, fim, singularity_report
from .geometry import Transform4DoF, apply_transform
from .measurement import SyncedDataset, d0_is_extra_range, debias_ranges, debias_squared, motion_excitation_check
from .solvers import LmOptions, LmResult, SdpStandardForm, SolveDiagnostics, eig_sym, lm_minimize, sdp_solve

SWEEP_HEADINGS = 72  # yaw grid of `yaw_sweep`, 5 degree steps
SWEEP_CANDIDATES = 3  # grid minima handed to the local refinement


class DegenerateSolutionError(RuntimeError):
    """Rank-one recovery failed (non-positive spectrum or vanished scale)."""


class HeadingUndefinedError(RuntimeError):
    """The (cos, sin) block of the lifted state has no usable direction."""


def lift_transform(T: Transform4DoF) -> np.ndarray:
    """Lifted 9-vector of a transform (last element is the homogenizer 1)."""
    tx, ty, tz = T.t
    c, s = math.cos(T.theta), math.sin(T.theta)
    return np.array(
        [tx, ty, tz, c, s, tx * c + ty * s, ty * c - tx * s, tx * tx + ty * ty + tz * tz, 1.0]
    )


def build_data_rows(pa, pb, s) -> np.ndarray:
    """Rows B, shape (k, 9), with B[i] . x(T) = ||t + C pb_i - pa_i||^2 - s_i for every T."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    pax, pay, paz = pa.T
    pbx, pby, pbz = pb.T
    # row-wise dot products; the batched matmul rounds each like pa_i @ pa_i
    sq_a = (pa[:, None, :] @ pa[:, :, None])[:, 0, 0]
    sq_b = (pb[:, None, :] @ pb[:, :, None])[:, 0, 0]
    return np.column_stack(
        [
            -2.0 * pax,
            -2.0 * pay,
            2.0 * (pbz - paz),
            -2.0 * (pax * pbx + pay * pby),
            2.0 * (pax * pby - pbx * pay),
            2.0 * pbx,
            2.0 * pby,
            np.ones(len(pa)),
            sq_a + sq_b - 2.0 * paz * pbz - np.asarray(s, dtype=float),
        ]
    )


def _sym_from_triplets(triplets) -> np.ndarray:
    """Symmetric 9x9 matrix from (i, j, value) triplets (0-indexed).

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
    return P


def constraint_matrices(d0: Optional[float]) -> list[tuple[np.ndarray, float]]:
    """Quadratic consistency constraints (P_i, r_i) of the lifted state.

    Four structural constraints always apply; the norm constraint
    ||t||^2 = d0^2 is appended only when d0 is available.
    """
    cons = [
        (_sym_from_triplets([(3, 3, 1.0), (4, 4, 1.0)]), 1.0),
        (_sym_from_triplets([(0, 3, 1.0), (1, 4, 1.0), (8, 5, -1.0)]), 0.0),
        (_sym_from_triplets([(1, 3, 1.0), (0, 4, -1.0), (8, 6, -1.0)]), 0.0),
        (_sym_from_triplets([(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (7, 8, -1.0)]), 0.0),
    ]
    if d0 is not None:
        cons.append((_sym_from_triplets([(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]), d0**2))
    return cons


@dataclass
class QcqpProblem:
    """Lifted quadratic cost with its consistency constraints.

    P0 = B' diag(1/sigma_s) B keeps the true weighted-least-squares
    scale; `weights` are the per-row inverse variances used to rebuild
    the cost row-wise during refinement.
    """

    P0: np.ndarray
    constraints: list
    B: np.ndarray
    has_d0: bool
    weights: np.ndarray


@dataclass
class EstimateReport:
    """Estimate plus uncertainty and solver diagnostics.

    std_errors is present only when the estimated FIM is invertible.
    """

    theta_hat: Transform4DoF
    std_errors: Optional[np.ndarray]
    kappa: float
    flags: SingularityFlags
    solver: dict


def assemble_qcqp(dataset: SyncedDataset) -> QcqpProblem:
    """Build the lifted quadratic program from a synced dataset.

    B has one row per range, plus a last row for d0 when
    `d0_is_extra_range`.
    """
    if len(dataset) < 1:
        raise ValueError("need at least one synced sample")
    stats = debias_squared(dataset)
    B = build_data_rows(dataset.pa, dataset.pb, stats.s)
    w = 1.0 / stats.sigma_s_diag
    if d0_is_extra_range(dataset):
        origin = debias_ranges([dataset.d0], dataset.sigma_r)
        B = np.vstack([B, build_data_rows(np.zeros((1, 3)), np.zeros((1, 3)), origin.s)])
        w = np.append(w, 1.0 / origin.sigma_s_diag)
    P0 = (B * w[:, None]).T @ B
    P0 = 0.5 * (P0 + P0.T)
    return QcqpProblem(
        P0=P0,
        constraints=constraint_matrices(dataset.d0),
        B=B,
        has_d0=dataset.d0 is not None,
        weights=w,
    )


def sd_wls_cost(problem: QcqpProblem, T: Transform4DoF) -> float:
    """Weighted squared-distance cost of a transform: x(T)' P0 x(T)."""
    x = lift_transform(T)
    return float(x @ problem.P0 @ x)


def solve_sdp_relaxation(
    problem: QcqpProblem,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve the lifted problem with the rank constraint dropped."""
    form = SdpStandardForm(
        C=problem.P0,
        A=[P for P, _ in problem.constraints],
        b=np.array([r for _, r in problem.constraints]),
    )
    X, _, diag = sdp_solve(form, tol=tol, max_iter=max_iter)
    return X, diag


def recover_rank_one(X) -> np.ndarray:
    """Best rank-one lifted state from a PSD matrix.

    Takes the dominant eigenpair, flips the sign so the homogenizer is
    positive, and rescales it to exactly one.
    """
    lam, Q = eig_sym(X)
    if lam[0] <= 0:
        raise DegenerateSolutionError("matrix has no positive spectrum")
    x = math.sqrt(lam[0]) * Q[:, 0]
    if x[8] < 0:
        x = -x
    if abs(x[8]) < 1e-9 * np.linalg.norm(x):
        raise DegenerateSolutionError("homogenization component vanished")
    return x / x[8]


def extract_transform(x) -> Transform4DoF:
    """Transform from a normalized lifted state (homogenizer must be 1).

    The (cos, sin) pair is renormalized to the unit circle before the
    heading is read off.
    """
    x = np.asarray(x, dtype=float)
    if abs(x[8] - 1.0) > 1e-6:
        raise ValueError(f"lifted state not normalized: x9 = {x[8]}")
    c, s = x[3], x[4]
    norm = math.hypot(c, s)
    if norm < 1e-6:
        raise HeadingUndefinedError("cos/sin block too small to define a heading")
    return Transform4DoF(t=x[:3].copy(), theta=math.atan2(s / norm, c / norm))


def _lift_jacobian(t: np.ndarray, theta: float) -> np.ndarray:
    """d lift / d (t_x, t_y, t_z, theta), shape (9, 4)."""
    tx, ty, tz = t
    c, s = math.cos(theta), math.sin(theta)
    Jx = np.zeros((9, 4))
    Jx[0, 0] = Jx[1, 1] = Jx[2, 2] = 1.0
    Jx[3, 3] = -s
    Jx[4, 3] = c
    Jx[5] = [c, s, 0.0, -tx * s + ty * c]
    Jx[6] = [-s, c, 0.0, -ty * s - tx * c]
    Jx[7] = [2.0 * tx, 2.0 * ty, 2.0 * tz, 0.0]
    return Jx


def _refine(
    problem: QcqpProblem,
    T0: Transform4DoF,
    opts: LmOptions,
) -> tuple[Transform4DoF, float, LmResult]:
    """Local refinement of the weighted cost over (t_x, t_y, t_z, theta)."""
    w_max = float(np.max(problem.weights))
    Bw = problem.B * np.sqrt(problem.weights / w_max)[:, None]

    def residuals(p):
        return Bw @ lift_transform(Transform4DoF(t=p[:3], theta=p[3]))

    def jac(p):
        return Bw @ _lift_jacobian(p[:3], float(p[3]))

    res = lm_minimize(residuals, jac, T0.as_vector(), opts)
    T = Transform4DoF(t=res.x[:3], theta=res.x[3])
    return T, sd_wls_cost(problem, T), res


def _sweep_bases(theta: np.ndarray) -> np.ndarray:
    """N_j, shape (m, 9, 5), with lift(t, theta_j) = N_j [t, tau, 1] at tau = ||t||^2."""
    c, s = np.cos(theta), np.sin(theta)
    N = np.zeros((len(theta), 9, 5))
    N[:, 0, 0] = N[:, 1, 1] = N[:, 2, 2] = N[:, 7, 3] = N[:, 8, 4] = 1.0
    N[:, 3, 4], N[:, 4, 4] = c, s
    N[:, 5, 0], N[:, 5, 1] = c, s
    N[:, 6, 0], N[:, 6, 1] = -s, c
    return N


_SWEEP_THETA = np.linspace(-math.pi, math.pi, SWEEP_HEADINGS, endpoint=False)
_SWEEP_N = _sweep_bases(_SWEEP_THETA)
_ROOT_GRID = np.logspace(-16.0, 0.0, 33)  # multiples of the root's upper bound


def yaw_sweep(problem: QcqpProblem) -> list[Transform4DoF]:
    """Starting points for the local refinement, lowest cost first.

    At grid heading theta_j the cost is [y, 1]' M_j [y, 1] with
    M_j = N_j' P0 N_j: least squares in y = (t, tau) under the one
    constraint tau = ||t||^2, the squared-range localisation problem that
    a Lagrange multiplier solves exactly (Beck, Stoica & Li 2008). With
    tau eliminated and (mu, U) the eigenpairs of the Schur complement of
    the tau block, the constrained minimiser is
        U' t = e / (mu - mu_0 + x) - c / 2,
    where x > 0 is the one root of the convex, decreasing
        f(x) = sum_k e_k^2 / (mu_k - mu_0 + x)^2 + beta - x / (2 w).
    A log grid brackets every heading's root at once; Newton steps from
    the bracket's left end converge on it without overshooting. Where f
    has no positive root (the hard case, e_0 = 0) the minimiser sits at
    x = 0 and moves along U_0 until tau = ||t||^2 holds.

    The mirror point, with the U_0 component of the other sign, is the
    second basin of near-planar data, and the 5 degree step can hide its
    minimum behind the first one's. So both points of every heading are
    kept, and each continues to the nearer point of the next heading. The
    minima along these two branches are the candidates, lowest cost first
    and at most SWEEP_CANDIDATES, unless the parabola through a minimum
    and its two neighbours stays above the lowest grid cost. Raises
    DegenerateSolutionError when no grid heading has a finite cost.
    """
    M = _SWEEP_N.transpose(0, 2, 1) @ problem.P0 @ _SWEEP_N
    q, g_tau, w = M[:, :3, 3], M[:, 3, 4], M[:, 3, 3]  # w: sum of the row weights
    mu, U = np.linalg.eigh(M[:, :3, :3] - q[:, :, None] * q[:, None, :] / w[:, None, None])
    c = np.einsum("jik,ji->jk", U, q) / w[:, None]
    e = np.einsum("jik,ji->jk", U, q * (g_tau / w)[:, None] - M[:, :3, 4]) + 0.5 * mu * c
    d = mu - mu[:, :1]
    beta = g_tau / w - 0.25 * np.einsum("jk,jk->j", c, c) + mu[:, 0] / (2.0 * w)
    # f(x) <= ||e||^2 / x^2 + beta - x / (2 w), which is negative at x_hi;
    # the floor keeps the grid positive where e and beta vanish (static data)
    x_hi = np.maximum(4.0 * w * beta, np.cbrt(4.0 * w * np.einsum("jk,jk->j", e, e)))
    x_grid = np.maximum(x_hi, 1e-12 * mu[:, -1] + 1e-300)[:, None] * _ROOT_GRID
    f = np.sum((e[:, None, :] / (d[:, None, :] + x_grid[:, :, None])) ** 2, axis=2)
    above = f + beta[:, None] - x_grid / (2.0 * w[:, None]) > 0.0
    x = x_grid[np.arange(len(x_grid)), np.maximum(np.sum(above, axis=1) - 1, 0)]
    for _ in range(8):
        r2 = (e / (d + x[:, None])) ** 2
        step = (r2.sum(1) + beta - x / (2.0 * w)) / (2.0 * np.sum(r2 / (d + x[:, None]), axis=1) + 0.5 / w)
        x = np.maximum(x + step, x_grid[:, 0])
    v = e / (d + x[:, None])
    # hard case: f < 0 down to the floor; planar data (pb_z - pa_z
    # constant) put every heading here, with U_0 the vertical
    hard = ~above[:, 0]
    v0 = np.sqrt(np.maximum(x / (2.0 * w) - beta - np.sum(v[:, 1:] ** 2, axis=1), 0.0))
    v[hard, 0] = np.copysign(v0, e[:, 0])[hard]
    t = np.einsum("jik,bjk->bji", U, np.stack([v, v * [-1.0, 1.0, 1.0]]) - 0.5 * c)
    y = np.concatenate([t, np.einsum("bji,bji->bj", t, t)[..., None], np.ones((2, len(v), 1))], axis=2)
    cost = np.einsum("bji,jik,bjk->bj", y, M, y)
    cost[~np.isfinite(cost)] = math.inf
    best = cost.min()
    if best == math.inf:
        raise DegenerateSolutionError("no grid heading has a finite cost")
    nb = []
    for k in (1, -1):  # the nearer point of the heading next door continues a branch
        nearer = np.linalg.norm(t[:, None] - np.roll(t, k, axis=1), axis=-1).argmin(axis=1)
        nb.append(np.take_along_axis(np.roll(cost, k, axis=1), nearer, axis=0))
    prev, succ = nb
    curv = 0.5 * (prev + succ) - cost
    local_min = (cost <= prev) & (cost <= succ) & ((cost == best) | (16.0 * curv * (cost - best) <= (prev - succ) ** 2))
    idx = np.flatnonzero(local_min)
    idx = idx[np.argsort(cost.ravel()[idx], kind="stable")][:SWEEP_CANDIDATES]
    return [Transform4DoF(t=t.reshape(-1, 3)[k], theta=float(_SWEEP_THETA[k % len(v)])) for k in idx]


def _report(T_hat: Transform4DoF, dataset: SyncedDataset, solver: dict) -> EstimateReport:
    rep = fim(T_hat, dataset)
    flags = singularity_report(rep.F)
    std = np.sqrt(np.diag(rep.crlb)) if rep.crlb is not None else None
    return EstimateReport(theta_hat=T_hat, std_errors=std, kappa=rep.kappa, flags=flags, solver=solver)


def _rank_and_ratio(X) -> tuple[int, float]:
    lam, _ = eig_sym(X)
    lam = np.maximum(lam, 0.0)
    if lam[0] <= 0:
        return 0, math.inf
    return int(np.sum(lam > 1e-6 * lam[0])), float(lam[1] / lam[0])


def sdp_estimate(dataset: SyncedDataset) -> EstimateReport:
    """Relaxation-only estimator: solve the SDP and read off the rank-one
    approximation (no local refinement)."""
    start = time.perf_counter()
    problem = assemble_qcqp(dataset)
    X, diag = solve_sdp_relaxation(problem)
    x = recover_rank_one(X)
    T = extract_transform(x)
    rank_x, ratio = _rank_and_ratio(X)
    solver = {
        "method": "sdp",
        "iterations": diag.iterations,
        "status": diag.status,
        "gap": diag.gap,
        "rank_x": rank_x,
        "lambda_ratio": ratio,
        "final_cost": sd_wls_cost(problem, T),
        "wall_ms": (time.perf_counter() - start) * 1e3,
    }
    return _report(T, dataset, solver)


def solve_qcqp(
    problem: QcqpProblem,
    dataset: SyncedDataset,
    lm_opts: Optional[LmOptions] = None,
) -> EstimateReport:
    """Minimize the lifted cost over all feasible transforms.

    Each minimum of `yaw_sweep` is refined over (t, theta) by
    Levenberg-Marquardt; the lowest-cost result wins. The constraints
    hold by construction of the parameterization, and ||t|| is left
    free: a measured inter-origin distance enters the cost as an
    ordinary row of B.
    """
    start = time.perf_counter()
    opts = lm_opts or LmOptions(max_iter=80)
    inits = yaw_sweep(problem)

    best: Optional[tuple[Transform4DoF, float, LmResult]] = None
    total_lm_iters = 0
    n_converged = 0
    for T0 in inits:
        T, cost, res = _refine(problem, T0, opts)
        total_lm_iters += res.iterations
        if res.status in ("converged", "max_iter"):
            n_converged += res.status == "converged"
            if best is None or cost < best[1]:
                best = (T, cost, res)
    if best is None:
        raise DegenerateSolutionError("all refinement starts diverged")

    solver = {
        "method": "qcqp",
        "iterations": total_lm_iters,
        "restarts": len(inits),
        "restarts_converged": n_converged,
        "final_cost": best[1],
        "wall_ms": (time.perf_counter() - start) * 1e3,
    }
    return _report(best[0], dataset, solver)


def qcqp_estimate(dataset: SyncedDataset) -> EstimateReport:
    return solve_qcqp(assemble_qcqp(dataset), dataset)


def nls_estimate(dataset: SyncedDataset, init: Optional[Transform4DoF] = None) -> EstimateReport:
    """Damped least squares on the raw range residuals.

    The initial guess defaults to zero (no prior knowledge); like any
    local method this can settle in a poor minimum on hard geometry,
    which is reported rather than hidden. A d0 other than the first range
    is one more residual, between the two frame origins.
    """
    start = time.perf_counter()
    T0 = init if init is not None else Transform4DoF(t=np.zeros(3), theta=0.0)
    sigma = dataset.sigma_r
    pa, pb, d_meas = dataset.pa, dataset.pb, dataset.d
    if d0_is_extra_range(dataset):
        pa, pb, d_meas = np.vstack([pa, np.zeros(3)]), np.vstack([pb, np.zeros(3)]), np.append(d_meas, dataset.d0)

    def residuals(p):
        T = Transform4DoF(t=p[:3], theta=p[3])
        W = T.t + pb @ T.rotation().T - pa
        d = np.linalg.norm(W, axis=1)
        return (d - d_meas) / sigma

    def jac(p):
        T = Transform4DoF(t=p[:3], theta=p[3])
        W = T.t + pb @ T.rotation().T - pa
        d = np.maximum(np.linalg.norm(W, axis=1), 1e-12)
        U = W / d[:, None]
        rotated_b = pb @ T.rotation().T
        phi = np.einsum("ij,ij->i", np.cross(np.broadcast_to([0.0, 0.0, 1.0], rotated_b.shape), rotated_b), U)
        return np.column_stack([U, phi]) / sigma

    res = lm_minimize(residuals, jac, T0.as_vector(), LmOptions(max_iter=100))
    T = Transform4DoF(t=res.x[:3], theta=res.x[3])
    solver = {
        "method": "nls",
        "iterations": res.iterations,
        "status": res.status,
        "final_cost": res.cost,
        "converged": res.status == "converged",
        "wall_ms": (time.perf_counter() - start) * 1e3,
    }
    return _report(T, dataset, solver)


# Every entry takes (dataset, init=None). `init` is a starting point for a
# local method; the global `qcqp` and `sdp` ignore it.
ESTIMATORS = {
    "qcqp": lambda ds, init=None: qcqp_estimate(ds),
    "sdp": lambda ds, init=None: sdp_estimate(ds),
    "nls": nls_estimate,
}


@dataclass
class WindowEstimate:
    """One sliding-window step: sample range [start, stop) and outcome."""

    index: int
    start: int
    stop: int
    t_end: float
    skipped: bool
    report: Optional[EstimateReport]


def sliding_window_estimate(
    stream: SyncedDataset,
    window: int = 50,
    stride: Optional[int] = None,
    estimator: str = "qcqp",
    excitation_var: float = 0.05,
    excitation_n: Optional[int] = None,
    max_kappa: Optional[float] = None,
) -> list[WindowEstimate]:
    """Run the estimator over a stream in sliding windows.

    Each step estimates from the latest `window` samples on its own:
    `qcqp` and `sdp` search every heading and need no starting point,
    while `nls` starts from the previous window's estimate. Windows
    failing the motion-excitation check are skipped (marked, previous
    estimate stays current), and so are windows whose estimated
    information matrix is worse-conditioned than `max_kappa`
    (near-singular geometry produces junk updates). The
    inter-origin-distance constraint is dropped inside windows: under
    drift the initial distance is stale.
    """
    if window < 10:
        raise ValueError(f"window must be >= 10, got {window}")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    stride = stride or window
    n_check = excitation_n or window
    run = ESTIMATORS[estimator]

    results = []
    prev: Optional[Transform4DoF] = None
    for idx, stop in enumerate(range(window, len(stream) + 1, stride)):
        data = stream.window(stop - window, stop)
        report = None
        if motion_excitation_check(data.pa, data.pb, var_threshold=excitation_var, n=n_check):
            report = run(data, init=prev)
        skipped = report is None or (max_kappa is not None and not report.kappa <= max_kappa)
        if not skipped:
            prev = report.theta_hat
        results.append(
            WindowEstimate(index=idx, start=stop - window, stop=stop, t_end=data.t[-1], skipped=skipped, report=report)
        )
    return results


def align_target_trajectory(
    stream: SyncedDataset,
    estimates: Sequence[WindowEstimate],
    initial: Optional[Transform4DoF] = None,
) -> np.ndarray:
    """Target positions mapped into the host frame, shape (k, 3).

    Each sample uses the most recent completed (non-skipped) window
    estimate; samples before the first estimate fall back to `initial`
    (NaN rows when no fallback is given).
    """
    out = np.full((len(stream), 3), np.nan)
    done = sorted((e for e in estimates if not e.skipped), key=lambda e: e.stop)
    # an estimate holds from its window's last sample until the next one's
    starts = [0] + [max(e.stop - 1, 0) for e in done]
    for T, lo, hi in zip([initial] + [e.report.theta_hat for e in done], starts, starts[1:] + [len(stream)]):
        if T is not None and hi > lo:
            out[lo:hi] = apply_transform(T, stream.pb[lo:hi])
    return out
