"""Self-contained numerical engines for the estimation pipeline.

Provides a dense primal-dual interior-point solver for small semidefinite
programs (the lifted relaxation is 9x9 with at most 5 equality
constraints), one damped (Levenberg-Marquardt) least-squares minimizer
that refines a stack of starts in lockstep, and symmetric
eigendecomposition helpers for rank-one recovery and information-matrix
analysis. The minimizer takes exact-Hessian Newton steps on square-root
factors of the `qcqp` costs, and Gauss-Newton steps on the raw range
residuals of the `nls` baseline.

The SDP solver is an infeasible-start path-following method with the
HKM search direction and a Mehrotra predictor-corrector step. Problem
sizes here are tiny (n <= 16, m <= 8), so everything is dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass
class SolveDiagnostics:
    """Outcome of one solver run."""

    iterations: int
    primal_obj: float
    dual_obj: float
    gap: float
    status: str  # optimal | max_iter | infeasible | numerical

    def __post_init__(self):
        valid = {"optimal", "max_iter", "infeasible", "numerical"}
        if self.status not in valid:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class SdpStandardForm:
    """min Tr(C X)  s.t.  Tr(A_i X) = b_i,  X >= 0 (PSD).

    All matrices must be symmetric; sizes are expected to stay small
    (n <= 16, m <= 8 by design).
    """

    C: np.ndarray
    A: Sequence[np.ndarray]
    b: np.ndarray

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.A = [np.asarray(a, dtype=float) for a in self.A]
        self.b = np.asarray(self.b, dtype=float)
        for name, mat in [("C", self.C)] + [(f"A[{i}]", a) for i, a in enumerate(self.A)]:
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
                raise ValueError(f"{name} must be symmetric")
        if len(self.b) != len(self.A):
            raise ValueError("b must have one entry per constraint matrix")


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.swapaxes(-1, -2))


def _steps(Li: np.ndarray, D: np.ndarray) -> np.ndarray:
    """0.95 of the largest alpha with L L' + alpha D PSD, at most 1, for each
    pair of the stacks Li (inverse Cholesky factors) and D (directions)."""
    lam = np.linalg.eigvalsh(_sym(Li @ D @ Li.swapaxes(-1, -2)))[:, 0]
    return -0.95 / np.minimum(lam, -0.95)


def sdp_solve(
    problem: SdpStandardForm,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray, SolveDiagnostics]:
    """Solve a small dense SDP in standard primal form.

    Infeasible-start path following with the HKM direction in the
    original basis and a Mehrotra predictor-corrector: M dy = r_p -
    A(R - X R_d Z^-1) with M_ij = Tr(A_i X A_j Z^-1), dZ = R_d - A*(dy),
    dX = sym(R - X dZ Z^-1); R = -X predicts, R = sigma mu Z^-1 - X -
    sym(dX_a dZ_a Z^-1) corrects. X and (y, Z) each step 0.95 of the way
    to the boundary of the cone, at most 1. Without the corrector a
    singular relaxation reads as rank one; the centering floor
    sigma >= 0.05 saves iterations; the iterate returned is the best by
    certified duality gap, not the last, which rounding may corrupt.

    Returns (X, y, diagnostics). Status "optimal": feasibility residuals
    below max(tol, 1e-9) and relative duality gap below tol (or mu below
    tol times the scale of b), or, once a factorization fails or both
    steps vanish, a best iterate within a contract floor of 1e-8; else
    "numerical". Also "infeasible" (a primal infeasibility certificate)
    and "max_iter".
    """
    n, m = problem.C.shape[0], len(problem.A)
    A = np.array(problem.A, dtype=float).reshape(m, n, n)
    contract_tol = max(tol, 1e-8)

    # Scale objective and constraints to O(1); undo on report.
    c_scale = max(1.0, float(np.max(np.abs(problem.C))))
    C = problem.C / c_scale
    a_scale = np.maximum(1.0, np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(problem.b)))
    A = A / a_scale[:, None, None]
    b = problem.b / a_scale
    # the constraints as rows of one (m, n^2) matrix: every inner product
    # <A_i, X> at once is A_rows @ X.ravel(), and sum_i y_i A_i is y @ A_rows
    A_rows = A.reshape(m, n * n)

    xi = float(np.abs(b).max(initial=1.0))
    X = np.eye(n) * xi
    Z = np.eye(n) * max(1.0, float(np.linalg.norm(C, ord="fro")) / math.sqrt(n))
    y = np.zeros(m)

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(C, ord="fro")
    feas_tol = max(tol, 1e-9)
    best_X, best_y, best_score = X, y, np.inf

    status, it = "max_iter", 0
    for it in range(1, max_iter + 1):
        rp = b - A_rows @ X.ravel()
        Rd = C - Z - (y @ A_rows).reshape(n, n)
        mu = float(np.tensordot(X, Z)) / n
        prim_inf = np.linalg.norm(rp) / norm_b
        dual_inf = np.linalg.norm(Rd, ord="fro") / norm_c
        pobj = float(np.tensordot(C, X))
        dobj = float(b @ y)
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        feas_ok = prim_inf <= contract_tol and dual_inf <= 10.0 * contract_tol
        score = rel_gap if feas_ok else 1.0 + max(prim_inf, dual_inf)
        if score < best_score:
            best_X, best_y, best_score = X, y, score

        if prim_inf <= feas_tol and dual_inf <= feas_tol and (rel_gap <= tol or mu <= tol * xi):
            status = "optimal"
            break

        # Primal infeasibility certificate: y with b'y > 0 and sum y_i A_i <= 0.
        y_norm = np.linalg.norm(y)
        if y_norm > 1e6 and dobj > 1.0:
            if np.linalg.eigvalsh((y @ A_rows).reshape(n, n))[-1] <= 1e-8 * y_norm:
                status = "infeasible"
                break

        def direction(R):
            dy = np.linalg.solve(M, rp - A_rows @ (R - X @ Rd @ Zi).ravel())
            dZ = Rd - (dy @ A_rows).reshape(n, n)
            return _sym(R - X @ dZ @ Zi), dy, dZ

        try:
            Li = np.linalg.inv(np.linalg.cholesky(np.stack((X, Z))))
            Zi = Li[1].T @ Li[1]
            M = (A @ X).reshape(m, n * n) @ (Zi @ A).reshape(m, n * n).T
            dX, _, dZ = direction(-X)
            ap, ad = _steps(Li, np.stack((dX, dZ)))
            mu_aff = float(np.tensordot(X + ap * dX, Z + ad * dZ)) / n
            sigma = min(1.0, max((mu_aff / mu) ** 3, 0.05))
            dX, dy, dZ = direction(sigma * mu * Zi - X - _sym(dX @ dZ @ Zi))
            ap, ad = _steps(Li, np.stack((dX, dZ)))
        except np.linalg.LinAlgError:
            ap = ad = 0.0
        if ap <= 1e-12 and ad <= 1e-12:
            status = "optimal" if best_score <= contract_tol else "numerical"
            break
        X = _sym(X + ap * dX)
        y = y + ad * dy
        Z = _sym(Z + ad * dZ)

    pobj, dobj = float(np.tensordot(C, best_X)) * c_scale, float(b @ best_y) * c_scale
    diag = SolveDiagnostics(iterations=it, primal_obj=pobj, dual_obj=dobj, gap=abs(pobj - dobj), status=status)
    return _sym(best_X), best_y / a_scale * c_scale, diag


# stopping tolerances of `lockstep_newton` (see there) and its initial
# damping, relative to the largest diagonal entry of the Gauss-Newton block
GTOL = 1e-12
XTOL = 1e-14
FTOL = 1e-14
DAMPING_INIT = 1e-8

# statuses of `lockstep_newton`, one per start
CONVERGED, MAX_ITER, NON_FINITE = 0, 1, 2
_RUNNING = -1


@dataclass
class LockstepResult:
    """Outcome of `lockstep_newton`, one entry (or row) per start."""

    p: np.ndarray  # (n, d) final parameters
    cost: np.ndarray  # 0.5 ||r(p)||^2 there
    iterations: np.ndarray  # accepted steps
    evals: np.ndarray  # trial evaluations, rejected steps included
    status: np.ndarray  # CONVERGED | MAX_ITER | NON_FINITE


def _gram(R: Optional[np.ndarray], D: np.ndarray, d: int) -> np.ndarray:
    """Products of the rows of D R' with its first 1 + d rows, shape (n, 1 + d + d^2, 1 + d).

    D (n, 1 + d + d^2, m) stacks x, its first and its second derivatives
    as rows, and R is (n, m, m), or None for R = I. With r = R x, column 0
    holds ||r||^2, the gradient (R dx)' r of f = 0.5 ||r||^2 and the
    curvature terms sum_j r_j (R d2x)_j; rows and columns 1..d hold
    (R dx)' (R dx).
    """
    RD = D if R is None else D @ R.swapaxes(-1, -2)
    return RD @ RD[:, : d + 1].swapaxes(-1, -2)


def _batched_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for a stack of systems; NaN rows where A is singular.

    b is passed as (n, d, 1): numpy 2 reads an (n, d) right-hand side of
    an (n, d, d) stack as one vector per system, numpy 1 as a matrix.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular system spoils the stack: solve them one by one
        out = np.full(b.shape, np.nan)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def lockstep_newton(
    R: Optional[np.ndarray],
    lift: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    max_iter: int = 100,
) -> LockstepResult:
    """Minimize f_i = 0.5 ||R_i x(p)||^2 from every start p0[i] at once.

    R (n, m, m) is a square-root factor of each start's cost, such as the
    triangle of a QR of its residual rows, or None for R = I, where x(p)
    is the residual itself. lift(p) maps parameters (k, d) to
    (k, 1 + d + d^2, m): x(p), its first and its second derivatives. The
    cost, gradient and curvature come from r = R x, not from the
    quadratic form R'R, so they keep their relative precision down to a
    zero residual.

    Steps solve (H + mu I) step = -g with H the Gauss-Newton block plus
    the curvature terms of the second-derivative rows: with exact rows
    they converge quadratically where Gauss-Newton on a large residual is
    linear, and zero rows make them Gauss-Newton steps. Each start keeps
    its own damping and gain-ratio update (Madsen-Nielsen) and its own
    stops: |g|_inf at most GTOL * max(1, f), a step at most
    XTOL * (1 + |p|), a decrease at most FTOL * max(1, f), and, before a
    trial is evaluated, a predicted decrease of at most FTOL * f. That
    last test is relative to f alone, so a zero-residual start still runs
    down to its rounding floor. The starts run in lockstep, one batched
    solve and one batched evaluation per iteration over the starts still
    running; no start's sequence depends on the others. max_iter bounds
    the iterations. A start whose damping passes 1e300 stops NON_FINITE
    if its last trial's cost was not finite, else CONVERGED where
    |g|_inf <= 1e-6 * max(1, f) and MAX_ITER where not; a non-finite
    cost at the start is NON_FINITE too.
    """
    p0 = np.asarray(p0, dtype=float)
    n, d = p0.shape
    # packed per-start state: p, column 0 of `_gram` (||r||^2 = 2 f,
    # gradient, curvature terms), its Gauss-Newton block, mu, nu,
    # accepted steps, evaluations
    C, G, CURV = d, slice(d + 1, 2 * d + 1), slice(2 * d + 1, 2 * d + 1 + d * d)
    GN = slice(CURV.stop, CURV.stop + d * d)
    MU, NU, IT, EV = GN.stop, GN.stop + 1, GN.stop + 2, GN.stop + 3

    def state(p, R, tail):
        M = _gram(R, lift(p), d)
        return np.concatenate((p, M[:, :, 0], M[:, 1 : d + 1, 1:].reshape(-1, d * d), tail), axis=1)

    count = np.array([0.0, 0.0, 1.0, 1.0])  # added to mu, nu, steps, evaluations at a trial
    with np.errstate(all="ignore"):  # a non-finite start ends NON_FINITE, without a warning
        S = state(p0, R, np.zeros((n, 4)))
        S[:, NU] = 2.0
        S[:, MU] = DAMPING_INIT * np.maximum(S[:, GN][:, :: d + 1].max(axis=1), 1e-300)
        finite = np.isfinite(S[:, C])
        status = np.where(finite, CONVERGED, NON_FINITE)
        act = np.flatnonzero(finite & (np.abs(S[:, G]).max(axis=1) > GTOL * np.maximum(1.0, 0.5 * S[:, C])))
        status[act] = _RUNNING
        s, Ra = S[act], R if R is None else R[act]  # the running starts only
        for _ in range(max_iter):
            if not len(act):
                break
            c, g, mu = s[:, C], s[:, G], s[:, MU]
            # u = -step solves (H + mu I) u = g; then twice the model's
            # decrease -g'step - step'H step / 2 is mu u'u + g'u
            A = s[:, GN] + s[:, CURV]
            A[:, :: d + 1] += mu[:, None]
            u = _batched_solve(A.reshape(-1, d, d), g)
            uu = (u * u).sum(axis=1)
            pred2 = mu * uu + (g * u).sum(axis=1)
            trial = pred2 > FTOL * c  # False for NaN: a singular system rejects the step
            stop = (pred2 > 0.0) ^ trial  # a decrease of at most FTOL * f: stop untried
            acc = trial
            accepted = False
            if trial.any():
                # the trial point; it counts one more step and evaluation, undone below if rejected
                new = state(s[:, :d] - u, Ra, s[:, MU:] + count)
                dc = c - new[:, C]
                rho = dc / pred2
                acc = trial & (rho > 0.0)  # False for a trial whose f is not finite
                rho = 2.0 * rho - 1.0
                new[:, MU] *= np.maximum(1.0 / 3.0, 1.0 - rho * rho * rho)
                new[:, NU] = 2.0
                # GTOL or FTOL: |g|_inf or the decrease at most that tol * max(1, f)
                converged = np.minimum(np.abs(new[:, G]).max(axis=1) * (2.0 / GTOL), dc * (1.0 / FTOL))
                converged = converged <= np.maximum(2.0, new[:, C])
                if not converged.all():  # XTOL: a step at most XTOL * (1 + |p|)
                    p_norm = np.sqrt((new[:, :d] * new[:, :d]).sum(axis=1))
                    converged |= np.sqrt(uu) <= XTOL * (1.0 + p_norm)
                stop |= acc & converged
                accepted = acc.all()
                s = new if accepted else np.where(acc[:, None], new, s)
            if accepted and not stop.any():
                continue
            # rejected: grow the damping; past 1e300 the start stops
            rej = ~(acc | stop)
            if rej.any():
                lost = trial & ~np.isfinite(new[:, C]) if trial.any() else trial
                s[rej & trial, EV] += 1.0  # a rejected trial still counts as an evaluation
                s[rej, MU] *= s[rej, NU]
                s[rej, NU] *= 2.0
                stuck = rej & (s[:, MU] > 1e300)
                small = np.abs(s[:, G]).max(axis=1) <= 0.5e-6 * np.maximum(2.0, s[:, C])
                status[act[stuck]] = np.where(lost, NON_FINITE, np.where(small, CONVERGED, MAX_ITER))[stuck]
                stop |= stuck
            if stop.any():
                done = act[stop]
                S[done] = s[stop]
                status[done[status[done] == _RUNNING]] = CONVERGED
                keep = ~stop
                s, act = s[keep], act[keep]
                Ra = Ra if R is None else Ra[keep]
    S[act] = s
    status[act] = MAX_ITER
    return LockstepResult(
        p=S[:, :d], cost=0.5 * S[:, C], iterations=S[:, IT].astype(int), evals=S[:, EV].astype(int), status=status
    )


def eig_sym(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, sorted descending.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns,
    so M == Q diag(lam) Q.T up to floating-point error.
    """
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M - M.T)) > 1e-9 * max(1.0, float(np.max(np.abs(M)))):
        raise ValueError("matrix must be symmetric")
    lam, Q = np.linalg.eigh(_sym(M))
    order = np.argsort(lam)[::-1]
    return lam[order], Q[:, order]
