"""Estimators for the relative frame transform.

The weighted least-squares cost on debiased squared distances is linear
in a 9-element lifted state

    x = [t_x, t_y, t_z, cos th, sin th,
         t_x cos th + t_y sin th, t_y cos th - t_x sin th, ||t||^2, 1],

so the cost is a quadratic form x' P0 x subject to the five quadratic
consistency constraints tying the monomials together (the fifth pins
||t|| to the first measured inter-origin distance and is dropped when
that distance is unavailable). The lifted problem is relaxed to an SDP;
its rank-one solution seeds a multi-start local refinement over the
natural parameters (t, theta), which keeps constraints satisfied by
construction. A damped nonlinear least-squares baseline on the raw range
residuals and a sliding-window runner for drift tracking round out the
module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fisher import SingularityFlags, fim, singularity_report
from .geometry import Transform4DoF, wrap_angle
from .measurement import SquaredStats, SyncedDataset, debias_squared, motion_excitation_check
from .solvers import LmOptions, LmResult, SdpStandardForm, SolveDiagnostics, eig_sym, lm_minimize, sdp_solve

_RESTART_KEY = 0x52544531  # fixed stream: restart points carry no statistical role


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
    d0: Optional[float] = None


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


def assemble_qcqp(dataset: SyncedDataset, stats: Optional[SquaredStats] = None) -> QcqpProblem:
    """Build the lifted quadratic program from a synced dataset."""
    if len(dataset) < 1:
        raise ValueError("need at least one synced sample")
    stats = stats if stats is not None else debias_squared(dataset)
    B = build_data_rows(dataset.pa, dataset.pb, stats.s)
    w = 1.0 / stats.sigma_s_diag
    P0 = (B * w[:, None]).T @ B
    P0 = 0.5 * (P0 + P0.T)
    return QcqpProblem(
        P0=P0,
        constraints=constraint_matrices(dataset.d0),
        B=B,
        has_d0=dataset.d0 is not None,
        weights=w,
        d0=dataset.d0,
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


def _spherical_to_t(params: np.ndarray, d0: float) -> np.ndarray:
    phi, lam = params[0], params[1]
    sp, cp = math.sin(phi), math.cos(phi)
    return d0 * np.array([sp * math.cos(lam), sp * math.sin(lam), cp])


def _refine(
    problem: QcqpProblem,
    T0: Transform4DoF,
    opts: LmOptions,
) -> tuple[Transform4DoF, float, LmResult]:
    """Local refinement of the weighted cost over the natural parameters.

    With the inter-origin distance available, t is confined to the sphere
    of that radius (spherical angles), enforcing the norm constraint by
    construction; otherwise all four parameters are free.
    """
    w_max = float(np.max(problem.weights))
    Bw = problem.B * np.sqrt(problem.weights / w_max)[:, None]
    d0 = problem.d0 if problem.has_d0 else None

    if d0 is not None:
        t0 = np.asarray(T0.t, dtype=float)
        n0 = np.linalg.norm(t0)
        t0 = t0 * (d0 / n0) if n0 > 0 else np.array([0.0, 0.0, d0])
        phi0 = math.acos(min(1.0, max(-1.0, t0[2] / d0)))
        lam0 = math.atan2(t0[1], t0[0])
        p0 = np.array([phi0, lam0, T0.theta])

        def residuals(p):
            t = _spherical_to_t(p, d0)
            return Bw @ lift_transform(Transform4DoF(t=t, theta=p[2]))

        def jac(p):
            t = _spherical_to_t(p, d0)
            Jx = _lift_jacobian(t, float(p[2]))
            phi, lam = p[0], p[1]
            sp, cp = math.sin(phi), math.cos(phi)
            sl, cl = math.sin(lam), math.cos(lam)
            dt_dphi = d0 * np.array([cp * cl, cp * sl, -sp])
            dt_dlam = d0 * np.array([-sp * sl, sp * cl, 0.0])
            return Bw @ np.column_stack([Jx[:, :3] @ dt_dphi, Jx[:, :3] @ dt_dlam, Jx[:, 3]])

        res = lm_minimize(residuals, jac, p0, opts)
        T = Transform4DoF(t=_spherical_to_t(res.x, d0), theta=res.x[2])
    else:
        p0 = T0.as_vector()

        def residuals(p):
            return Bw @ lift_transform(Transform4DoF(t=p[:3], theta=p[3]))

        def jac(p):
            return Bw @ _lift_jacobian(p[:3], float(p[3]))

        res = lm_minimize(residuals, jac, p0, opts)
        T = Transform4DoF(t=res.x[:3], theta=res.x[3])
    return T, sd_wls_cost(problem, T), res


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
    n_random: int = 6,
    extra_inits: Sequence[Transform4DoF] = (),
    lm_opts: Optional[LmOptions] = None,
) -> EstimateReport:
    """Minimize the lifted cost over all feasible transforms.

    SDP warm start plus multi-start local refinement: the relaxation
    point, its z-mirror, any caller-provided warm starts, and `n_random`
    random feasible points are each refined; the lowest-cost candidate
    wins. Constraints hold by construction of the parameterization.
    """
    start = time.perf_counter()
    opts = lm_opts or LmOptions(max_iter=80)
    rng = np.random.Generator(np.random.Philox(key=[_RESTART_KEY, len(dataset)]))

    inits: list[Transform4DoF] = []
    sdp_diag = None
    sdp_cost = None
    rank_x, ratio = 0, math.inf
    try:
        X, sdp_diag = solve_sdp_relaxation(problem, tol=1e-9)
        rank_x, ratio = _rank_and_ratio(X)
        T_sdp = extract_transform(recover_rank_one(X))
        sdp_cost = sd_wls_cost(problem, T_sdp)
        inits.append(T_sdp)
        inits.append(Transform4DoF(t=T_sdp.t * np.array([1.0, 1.0, -1.0]), theta=T_sdp.theta))
    except (DegenerateSolutionError, HeadingUndefinedError):
        pass
    inits.extend(extra_inits)

    scale = problem.d0 if problem.has_d0 else float(np.median(dataset.d))
    for _ in range(n_random):
        direction = rng.standard_normal(3)
        direction /= max(np.linalg.norm(direction), 1e-12)
        theta0 = rng.uniform(-math.pi, math.pi)
        if problem.has_d0:
            t0 = problem.d0 * direction
        else:
            base = inits[0].t if inits else np.zeros(3)
            t0 = base + scale * 0.5 * rng.standard_normal(3)
        inits.append(Transform4DoF(t=t0, theta=theta0))

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
        "sdp_status": sdp_diag.status if sdp_diag else "skipped",
        "sdp_gap": sdp_diag.gap if sdp_diag else None,
        "sdp_cost": sdp_cost,
        "rank_x": rank_x,
        "lambda_ratio": ratio,
        "wall_ms": (time.perf_counter() - start) * 1e3,
    }
    return _report(best[0], dataset, solver)


def qcqp_estimate(dataset: SyncedDataset, extra_inits: Sequence[Transform4DoF] = ()) -> EstimateReport:
    return solve_qcqp(assemble_qcqp(dataset), dataset, extra_inits=extra_inits)


def nls_estimate(dataset: SyncedDataset, init: Optional[Transform4DoF] = None) -> EstimateReport:
    """Damped least squares on the raw range residuals.

    The initial guess defaults to zero (no prior knowledge); like any
    local method this can settle in a poor minimum on hard geometry,
    which is reported rather than hidden.
    """
    start = time.perf_counter()
    T0 = init if init is not None else Transform4DoF(t=np.zeros(3), theta=0.0)
    sigma = dataset.sigma_r
    pa, pb, d_meas = dataset.pa, dataset.pb, dataset.d

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


ESTIMATORS = {
    "qcqp": qcqp_estimate,
    "sdp": lambda ds, extra_inits=(): sdp_estimate(ds),
    "nls": lambda ds, extra_inits=(): nls_estimate(ds, init=extra_inits[0] if extra_inits else None),
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

    Each step estimates from the latest `window` samples, warm-started
    from the previous estimate. Windows failing the motion-excitation
    check are skipped (marked, previous estimate stays current), and so
    are windows whose estimated information matrix is worse-conditioned
    than `max_kappa` (near-singular geometry produces junk updates). The
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
    idx = 0
    for stop in range(window, len(stream) + 1, stride):
        data = stream.window(stop - window, stop)
        excited = motion_excitation_check(data.pa, data.pb, var_threshold=excitation_var, n=n_check)
        if not excited:
            results.append(
                WindowEstimate(index=idx, start=stop - window, stop=stop, t_end=data.t[-1], skipped=True, report=None)
            )
        else:
            if prev is not None:
                # warm start plus its common ambiguities (heading flip,
                # vertical mirror) so a previously wrong branch can recover
                extra = (
                    prev,
                    Transform4DoF(t=prev.t, theta=prev.theta + math.pi),
                    Transform4DoF(t=prev.t * np.array([1.0, 1.0, -1.0]), theta=prev.theta),
                )
            else:
                extra = ()
            report = run(data, extra_inits=extra)
            if max_kappa is not None and not report.kappa <= max_kappa:
                results.append(
                    WindowEstimate(index=idx, start=stop - window, stop=stop, t_end=data.t[-1], skipped=True, report=report)
                )
            else:
                prev = report.theta_hat
                results.append(
                    WindowEstimate(index=idx, start=stop - window, stop=stop, t_end=data.t[-1], skipped=False, report=report)
                )
        idx += 1
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
    current = initial
    by_stop = sorted((e for e in estimates if not e.skipped), key=lambda e: e.stop)
    j = 0
    for i in range(len(stream)):
        while j < len(by_stop) and by_stop[j].stop <= i + 1:
            current = by_stop[j].report.theta_hat
            j += 1
        if current is not None:
            out[i] = current.t + current.rotation() @ stream.pb[i]
    return out
