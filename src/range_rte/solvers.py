"""Self-contained numerical engines for the estimation pipeline.

Provides a dense primal-dual interior-point solver that runs a stack of
small semidefinite programs, which share one constraint set, in lockstep
(the lifted relaxation is 9x9 with at most 5 equality constraints), and
one damped (Levenberg-Marquardt) least-squares minimizer that refines a
stack of starts in lockstep on the residual rows its caller's lift
forms. It takes exact-Hessian Newton steps on R x, R a square-root
factor of a `qcqp` cost, and Gauss-Newton steps on the raw range
residuals of the `nls` baseline.

The SDP solver is an infeasible-start path-following method with the
HKM search direction and a Mehrotra predictor-corrector step. Problem
sizes here are tiny (n <= 16, m <= 8), so everything is dense, and a
stack pays numpy's per-call cost once per iteration instead of once per
problem. It has no infeasibility exit: lift(T) lift(T)' is a feasible
point of every relaxation in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class SolveDiagnostics:
    """Outcome of `sdp_solve`, one entry per problem of the stack."""

    iterations: np.ndarray
    primal_obj: np.ndarray
    dual_obj: np.ndarray
    gap: np.ndarray
    status: np.ndarray  # optimal | max_iter | numerical; the relaxation is always feasible


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.swapaxes(-1, -2))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of the problems of two stacks, one BLAS dot each: a
    problem's value has the bits of np.dot on it alone, in any stack."""
    return (a.reshape(len(a), 1, -1) @ b.reshape(len(b), -1, 1))[:, 0, 0]


def _steps(Li: np.ndarray, D: np.ndarray) -> np.ndarray:
    """0.95 of the largest alpha with L L' + alpha D PSD, at most 1, for each
    pair of the stacks Li (inverse Cholesky factors) and D (directions)."""
    lam = np.linalg.eigvalsh(_sym(Li @ D @ Li.swapaxes(-1, -2)))[:, 0]
    return -0.95 / np.minimum(lam, -0.95)


def _hkm_step(A, X, Z, rp, Rd, mu):
    """The predictor-corrector step of a stack of w problems: (dX, dy, dZ,
    primal step, dual step). A (m, n, n) holds the scaled constraints that
    every problem shares. Raises LinAlgError where a factorisation fails."""
    m, n = A.shape[:2]
    w = len(X)
    A_rows = A.reshape(m, n * n)
    Li = np.linalg.inv(np.linalg.cholesky(np.concatenate((X, Z))))
    Zi = Li[w:].swapaxes(-1, -2) @ Li[w:]
    M = (A @ X[:, None]).reshape(w, m, n * n) @ (Zi[:, None] @ A).reshape(w, m, n * n).swapaxes(-1, -2)
    XRdZi = X @ Rd @ Zi

    def direction(R):
        r = rp - (A_rows @ (R - XRdZi).reshape(w, n * n, 1))[..., 0]
        dy = np.linalg.solve(M, r[..., None])[..., 0]
        dZ = Rd - (dy[:, None] @ A_rows).reshape(w, n, n)
        return _sym(R - X @ dZ @ Zi), dy, dZ

    dX, _, dZ = direction(-X)
    ap, ad = _steps(Li, np.concatenate((dX, dZ))).reshape(2, w)
    mu_aff = _dot(X + ap[:, None, None] * dX, Z + ad[:, None, None] * dZ) / n
    # Python's float power (libm's pow): numpy's ** rounds some cubes differently
    sigma = np.minimum(1.0, np.maximum([q**3 for q in (mu_aff / mu).tolist()], 0.05))
    dX, dy, dZ = direction((sigma * mu)[:, None, None] * Zi - X - _sym(dX @ dZ @ Zi))
    ap, ad = _steps(Li, np.concatenate((dX, dZ))).reshape(2, w)
    return dX, dy, dZ, ap, ad


def _hkm_steps(A, state: tuple) -> tuple:
    """`_hkm_step` on a stack, state = (X, Z, rp, Rd, mu); where a
    factorisation fails, on each half of it, down to the single problems
    that fail, which step by zero."""
    try:
        return _hkm_step(A, *state)
    except np.linalg.LinAlgError:
        X, _, rp, _, mu = state
        if len(X) == 1:
            return np.zeros_like(X), np.zeros_like(rp), np.zeros_like(X), np.zeros_like(mu), np.zeros_like(mu)
        h = len(X) // 2
        halves = _hkm_steps(A, tuple(v[:h] for v in state)), _hkm_steps(A, tuple(v[h:] for v in state))
        return tuple(np.concatenate(parts) for parts in zip(*halves))


def sdp_solve(C, A, b, tol: float = 1e-8, max_iter: int = 200) -> tuple[np.ndarray, np.ndarray, SolveDiagnostics]:
    """Solve W small dense SDPs  min Tr(C_w X)  s.t.  Tr(A_i X) = b_i,  X PSD,
    in lockstep.

    C (W, n, n) holds the problems' objectives; A (m, n, n) and b (m,) are
    the one constraint set that every problem shares. C and A must be
    symmetric, which is checked once for the stack. Infeasible-start path
    following with the HKM direction in the original basis and a Mehrotra
    predictor-corrector: M dy = r_p - A(R - X R_d Z^-1) with
    M_ij = Tr(A_i X A_j Z^-1), dZ = R_d - A*(dy), dX = sym(R - X dZ Z^-1);
    R = -X predicts, R = sigma mu Z^-1 - X - sym(dX_a dZ_a Z^-1)
    corrects. X and (y, Z) each step 0.95 of the way
    to the boundary of the cone, at most 1. Without the corrector a
    singular relaxation reads as rank one; the centering floor
    sigma >= 0.05 saves iterations.

    Each iteration is one batched Cholesky and inverse of the stack
    (X, Z), one batched solve of the M systems and one batched
    `eigvalsh` for the step lengths, over the problems still running. A
    problem leaves the stack at its own stop, and every reduction is per
    problem, so its iterates are those it has in a stack of one; the
    scaled constraints are one (m, n, n) array, which no stop filters.
    Where a factorisation fails, the step is retaken on each half of the
    stack, down to the problems that fail, which stop.

    Returns X (W, n, n), y (W, m) and the diagnostics. Status "optimal":
    feasibility residuals below max(tol, 1e-9) and relative duality gap
    below tol (or mu below tol times the scale of b), or, once a
    factorization fails or both steps vanish, a best iterate within a
    contract floor of 1e-8; else "numerical"; and "max_iter". The iterate
    returned is the best by certified duality gap, not the last, which
    rounding may corrupt: on a far relaxation without d0 (d0 100 m, D 20 m)
    the last iterate's primal residual rose to 1.2e-8, past the floor,
    where an earlier one met it. There is no infeasibility test: the
    relaxations of this package are always feasible, and an infeasible
    problem ends "numerical" or "max_iter".
    """
    C, b = np.asarray(C, dtype=float), np.asarray(b, dtype=float)
    W, n = len(C), C.shape[-1]
    A = np.asarray(A, dtype=float).reshape(-1, n, n)
    m = len(A)
    if C.shape != (W, n, n) or b.shape != (m,):
        raise ValueError(f"need C (W, n, n), A (m, n, n) and b (m,); got {C.shape}, {A.shape}, {b.shape}")
    for name, M in (("C", C), ("A", A)):
        if np.abs(M - M.swapaxes(-1, -2)).max(initial=0.0) > 1e-12 * max(1.0, np.abs(M).max(initial=0.0)):
            raise ValueError(f"{name} must be symmetric")
    contract_tol = max(tol, 1e-8)
    feas_tol = max(tol, 1e-9)

    # Scale objectives and constraints to O(1); undo on report.
    c_scale = np.maximum(1.0, np.abs(C).max(axis=(1, 2)))
    C = C / c_scale[:, None, None]
    a_scale = np.maximum(1.0, np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(b)))
    A = A / a_scale[:, None, None]
    b = b / a_scale
    A_rows = A.reshape(m, n * n)

    xi = np.abs(b).max(initial=1.0)
    X = np.eye(n) * np.full((W, 1, 1), xi)
    norm_c = np.sqrt(_dot(C, C))
    Z = np.eye(n) * np.maximum(1.0, norm_c / math.sqrt(n))[:, None, None]
    y = np.zeros((W, m))
    norm_b, norm_c = 1.0 + math.sqrt(b @ b), 1.0 + norm_c
    C_all = C
    best_X, best_y, best_score = X.copy(), y.copy(), np.full(W, np.inf)
    iterations = np.zeros(W, dtype=int)
    status = np.full(W, "max_iter", dtype=object)

    act = np.arange(W)  # the problems still running, and their state below
    # an infeasible problem diverges: it ends numerical or max_iter, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if not len(act):
                break
            iterations[act] = it
            rp = b - (A_rows @ X.reshape(-1, n * n, 1))[..., 0]
            Rd = C - Z - (y[:, None] @ A_rows).reshape(-1, n, n)
            mu = _dot(X, Z) / n
            prim_inf = np.sqrt(_dot(rp, rp)) / norm_b
            dual_inf = np.sqrt(_dot(Rd, Rd)) / norm_c
            pobj, dobj = _dot(C, X), _dot(np.broadcast_to(b, y.shape), y)
            rel_gap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
            optimal = (prim_inf <= feas_tol) & (dual_inf <= feas_tol) & ((rel_gap <= tol) | (mu <= tol * xi))
            feas = (prim_inf <= contract_tol) & (dual_inf <= 10.0 * contract_tol)
            score = np.where(feas, rel_gap, 1.0 + np.maximum(prim_inf, dual_inf))
            better = score < best_score[act]
            best_score[act[better]] = score[better]
            best_X[act[better]], best_y[act[better]] = X[better], y[better]

            dX, dy, dZ, ap, ad = _hkm_steps(A, (X, Z, rp, Rd, mu))
            stuck = ~optimal & (ap <= 1e-12) & (ad <= 1e-12)
            stop = optimal | stuck
            if stop.any():
                status[act[optimal]] = "optimal"
                status[act[stuck]] = np.where(best_score[act[stuck]] <= contract_tol, "optimal", "numerical")
                keep = ~stop
                X, Z, y, dX, dy, dZ, ap, ad = (v[keep] for v in (X, Z, y, dX, dy, dZ, ap, ad))
                C, norm_c, act = (v[keep] for v in (C, norm_c, act))
            X = _sym(X + ap[:, None, None] * dX)
            y = y + ad[:, None] * dy
            Z = _sym(Z + ad[:, None, None] * dZ)

    pobj, dobj = _dot(C_all, best_X) * c_scale, _dot(np.broadcast_to(b, best_y.shape), best_y) * c_scale
    diag = SolveDiagnostics(iterations=iterations, primal_obj=pobj, dual_obj=dobj, gap=np.abs(pobj - dobj), status=status)
    return best_X, best_y / a_scale * c_scale[:, None], diag


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


def _gram(D: np.ndarray, d: int) -> np.ndarray:
    """Products of the rows of D with its first 1 + d rows, shape (n, 1 + d + d^2, 1 + d).

    D (n, 1 + d + d^2, m) stacks the residuals r, their first and their
    second derivatives as rows. Column 0 holds ||r||^2, the gradient
    dr' r of f = 0.5 ||r||^2 and the curvature terms sum_j r_j (d2r)_j;
    rows and columns 1..d hold dr' dr.
    """
    return D @ D[:, : d + 1].swapaxes(-1, -2)


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
    lift: Callable[..., np.ndarray], p0: np.ndarray, max_iter: int = 100, data: tuple = ()
) -> LockstepResult:
    """Minimize f_i = 0.5 ||r_i(p)||^2 from every start p0[i] at once.

    lift(p, *data) forms the residual rows: it maps parameters (k, d) to
    (k, 1 + d + d^2, m), the residuals r(p), their first and their second
    derivatives. data holds per-start arrays, each with a leading axis of
    n, such as each start's own range rows or a square-root factor R of
    its cost, whose lift gives r = R x(p); they are passed for the k starts
    still running. The cost, gradient and curvature come from the
    residuals, not from a quadratic form such as R'R, so they keep their
    relative precision down to a zero residual.

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

    def state(p, data, tail):
        M = _gram(lift(p, *data), d)
        return np.concatenate((p, M[:, :, 0], M[:, 1 : d + 1, 1:].reshape(-1, d * d), tail), axis=1)

    count = np.array([0.0, 0.0, 1.0, 1.0])  # added to mu, nu, steps, evaluations at a trial
    with np.errstate(all="ignore"):  # a non-finite start ends NON_FINITE, without a warning
        S = state(p0, data, np.zeros((n, 4)))
        S[:, NU] = 2.0
        S[:, MU] = DAMPING_INIT * np.maximum(S[:, GN][:, :: d + 1].max(axis=1), 1e-300)
        finite = np.isfinite(S[:, C])
        status = np.where(finite, CONVERGED, NON_FINITE)
        act = np.flatnonzero(finite & (np.abs(S[:, G]).max(axis=1) > GTOL * np.maximum(1.0, 0.5 * S[:, C])))
        status[act] = _RUNNING
        s, Da = S[act], tuple(a[act] for a in data)  # the running starts only
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
                new = state(s[:, :d] - u, Da, s[:, MU:] + count)
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
                Da = tuple(a[keep] for a in Da)
    S[act] = s
    status[act] = MAX_ITER
    return LockstepResult(
        p=S[:, :d], cost=0.5 * S[:, C], iterations=S[:, IT].astype(int), evals=S[:, EV].astype(int), status=status
    )

