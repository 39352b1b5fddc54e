"""Self-contained numerical engines for the estimation pipeline.

Provides a dense primal-dual interior-point solver for small semidefinite
programs (the lifted relaxation is 9x9 with at most 5 equality
constraints), a damped (Levenberg-Marquardt) nonlinear least-squares
minimizer for the `nls` baseline, a damped Newton minimizer that refines
a stack of starts in lockstep from square-root factors of their costs,
and symmetric eigendecomposition helpers for rank-one recovery and
information-matrix analysis.

The SDP solver is an infeasible-start path-following method with the
HKM search direction and a Mehrotra predictor-corrector step. Problem
sizes here are tiny (n <= 16, m <= 8), so everything is dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    return 0.5 * (M + M.T)


def _max_psd_step(X: np.ndarray, dX: np.ndarray) -> float:
    """Largest alpha with X + alpha dX still PSD (X assumed PD)."""
    try:
        L = np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return 0.0
    Linv = np.linalg.inv(L)
    W = _sym(Linv @ dX @ Linv.T)
    lam_min = float(np.linalg.eigvalsh(W)[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _factor_psd(M: np.ndarray, floor: float = 1e-18) -> np.ndarray:
    """Factor F with F F^T = M for a (near-)PSD symmetric matrix.

    Eigenvalues are floored relative to the largest so the factor's
    condition number stays representable.
    """
    lam, Q = np.linalg.eigh(_sym(M))
    lam = np.maximum(lam, floor * max(float(lam[-1]), 1e-300))
    return Q * np.sqrt(lam)


def _max_step_scaled(Sig: np.ndarray, D: np.ndarray) -> float:
    """Largest alpha with diag(Sig) + alpha D still PSD (Sig > 0)."""
    root = np.sqrt(Sig)
    W = D / np.outer(root, root)
    lam_min = float(np.linalg.eigvalsh(_sym(W))[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def sdp_solve(
    problem: SdpStandardForm,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray, SolveDiagnostics]:
    """Solve a small dense SDP in standard primal form.

    Infeasible-start path following with Nesterov-Todd scaling and a
    Mehrotra predictor-corrector. In the NT-scaled basis both variables
    equal the same diagonal matrix, so the linearized complementarity
    reduces to elementwise algebra and no ill-conditioned inverse
    products appear; this keeps the method accurate down to duality gaps
    near the floating-point floor.

    Returns (X, y, diagnostics). On status "optimal" the primal and dual
    feasibility residuals and the relative duality gap are all below tol
    (or the iteration stalled with residuals below a contract floor of
    1e-8). Statuses "infeasible" (primal infeasibility certificate),
    "max_iter" and "numerical" report the iterate reached.
    """
    C = problem.C.copy()
    b = problem.b.copy()
    n = C.shape[0]
    m = len(problem.A)
    A = np.array(problem.A, dtype=float).reshape(m, n, n)
    contract_tol = max(tol, 1e-8)

    # Scale objective and constraints to O(1); undo on report.
    c_scale = max(1.0, float(np.max(np.abs(C))))
    C /= c_scale
    a_scale = np.maximum(1.0, np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(b)))
    A = A / a_scale[:, None, None]
    b = b / a_scale
    # the constraints as rows of one (m, n^2) matrix: every inner product
    # <A_i, X> at once is A_rows @ X.ravel(), and sum_i y_i A_i is y @ A_rows
    A_rows = A.reshape(m, n * n)

    xi = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    X = np.eye(n) * xi
    Z = np.eye(n) * max(1.0, float(np.linalg.norm(C, ord="fro")) / math.sqrt(n))
    y = np.zeros(m)

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(C, ord="fro")
    feas_tol = max(tol, 1e-9)

    best = {"X": X, "y": y, "score": np.inf, "mu": np.inf}

    def report(status, it):
        Xb, yb = best["X"], best["y"]
        pobj = float(np.tensordot(C, Xb)) * c_scale
        dobj = float(b @ yb) * c_scale
        diag = SolveDiagnostics(
            iterations=it,
            primal_obj=pobj,
            dual_obj=dobj,
            gap=abs(pobj - dobj),
            status=status,
        )
        return _sym(Xb), yb / a_scale * c_scale, diag

    status = "max_iter"
    it = 0
    best_mu = np.inf
    stall = 0
    for it in range(1, max_iter + 1):
        rp = b - A_rows @ X.ravel()
        Rd = C - Z - (y @ A_rows).reshape(n, n)
        mu = float(np.tensordot(X, Z)) / n
        prim_inf = np.linalg.norm(rp) / norm_b
        dual_inf = np.linalg.norm(Rd, ord="fro") / norm_c
        pobj = float(np.tensordot(C, X))
        dobj = float(b @ y)
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        if mu <= 0:  # iterate escaped the cone; best iterate stands
            status = "optimal" if best["score"] <= contract_tol else "numerical"
            break

        # Track the best iterate by certified duality gap among
        # feasibility-acceptable iterates: solution accuracy follows the
        # gap, while raw complementarity can be corrupted near the floor.
        feas_ok = prim_inf <= contract_tol and dual_inf <= 10.0 * contract_tol
        score = rel_gap if feas_ok else 1.0 + max(prim_inf, dual_inf)
        if score < best["score"]:
            best = {"X": X.copy(), "y": y.copy(), "score": score, "mu": mu}

        if prim_inf <= feas_tol and dual_inf <= feas_tol and (rel_gap <= tol or mu <= tol * xi):
            status = "optimal"
            break

        # Primal infeasibility certificate: y with b'y > 0 and sum y_i A_i <= 0.
        y_norm = np.linalg.norm(y)
        if m and y_norm > 1e6 and dobj > 1.0:
            S = (y @ A_rows).reshape(n, n)
            if float(np.linalg.eigvalsh(S)[-1]) <= 1e-8 * y_norm:
                status = "infeasible"
                break

        # Stall: complementarity stopped improving near the numeric floor.
        if mu > 0.9 * best_mu:
            stall += 1
        else:
            stall = 0
        best_mu = min(best_mu, mu)
        if stall >= 25 or mu <= 1e-16 * xi:
            status = "optimal" if best["score"] <= contract_tol else "numerical"
            break

        # Nesterov-Todd scaling point: G with G^-1 X G^-T = G^T Z G = diag(Sig).
        try:
            Lx = _factor_psd(X)
            Lz = _factor_psd(Z)
            _, svals, Vt = np.linalg.svd(Lz.T @ Lx)
        except np.linalg.LinAlgError:
            status = "optimal" if best["score"] <= contract_tol else "numerical"
            break
        svals = np.maximum(svals, 1e-18 * max(float(svals[0]), 1e-300))
        G = (Lx @ Vt.T) / np.sqrt(svals)
        GinvT = (Z @ G) / svals
        Sig = svals

        At = (G.T @ A @ G).reshape(m, n * n)  # scaled constraints, one per row
        Rdt = G.T @ Rd @ G
        M = At @ At.T
        M = _sym(M) + 1e-15 * (np.trace(M) / max(m, 1)) * np.eye(m)
        pair_inv = 2.0 / (Sig[:, None] + Sig[None, :])

        pair_mid = 0.5 * (Sig[:, None] + Sig[None, :])

        def solve_block(r1, R2, R3):
            """One Newton-system solve in the scaled basis:
            <At_i, dX> = r1_i;  sum dy_j At_j + dZ = R2;  (dX + dZ) o pair_mid = R3.
            """
            T = R3 * pair_inv
            if m:
                rhs = r1 + At @ (R2 - T).ravel()
                try:
                    dy = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    dy, *_ = np.linalg.lstsq(M, rhs, rcond=None)
                dZt = R2 - (dy @ At).reshape(n, n)
            else:
                dy = np.zeros(0)
                dZt = R2
            return T - dZt, dy, dZt

        def direction(sigma_mu, corr, refine=2):
            R3 = np.diag(sigma_mu - Sig**2)
            if corr is not None:
                R3 = R3 - corr
            dXt, dy, dZt = solve_block(rp, Rdt, R3)
            for _ in range(refine):  # defect correction in the scaled basis
                e1 = rp - At @ dXt.ravel()
                E2 = Rdt - ((dy @ At).reshape(n, n) + dZt)
                E3 = R3 - (dXt + dZt) * pair_mid
                cX, cy, cZ = solve_block(e1, E2, E3)
                dXt = dXt + cX
                dy = dy + cy
                dZt = dZt + cZ
            return _sym(dXt), dy, _sym(dZt)

        # Predictor (affine step), then Mehrotra corrector.
        dXt_a, _, dZt_a = direction(0.0, None)
        ap = min(1.0, 0.99 * _max_step_scaled(Sig, dXt_a))
        ad = min(1.0, 0.99 * _max_step_scaled(Sig, dZt_a))
        Xa = np.diag(Sig) + ap * dXt_a
        Za = np.diag(Sig) + ad * dZt_a
        mu_aff = float(np.tensordot(Xa, Za)) / n
        # The centering floor keeps iterates close to the central path,
        # where the extracted solution error stays proportional to the
        # duality gap; pure affine steps near the boundary trade that
        # for drift along low-curvature directions of the objective.
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 0.05))
        corr = _sym(dXt_a @ dZt_a)
        dXt, dy, dZt = direction(sigma * mu, corr)

        tau = 0.98
        ap = min(1.0, tau * _max_step_scaled(Sig, dXt))
        ad = min(1.0, tau * _max_step_scaled(Sig, dZt))
        if ap <= 1e-12 and ad <= 1e-12:
            status = "optimal" if best["score"] <= contract_tol else "numerical"
            break
        X = _sym(X + ap * (G @ dXt @ G.T))
        y = y + ad * dy
        Z = _sym(Z + ad * (GinvT @ dZt @ GinvT.T))

    return report(status, it)


@dataclass
class LmOptions:
    """Stopping controls for Levenberg-Marquardt."""

    max_iter: int = 100
    gtol: float = 1e-12
    xtol: float = 1e-14
    ftol: float = 1e-14
    damping_init: float = 1e-8


@dataclass
class LmResult:
    x: np.ndarray
    cost: float
    iterations: int  # accepted parameter updates
    status: str  # converged | max_iter | non_finite
    grad_norm: float
    cost_history: list = field(default_factory=list)
    evals: int = 0  # total damping trials, including rejected steps


def lm_minimize(
    residuals: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0,
    opts: LmOptions | None = None,
) -> LmResult:
    """Minimize 0.5 ||r(x)||^2 with damped Gauss-Newton steps.

    Uses the gain-ratio damping update (Madsen-Nielsen): accepted steps
    shrink the damping, rejected steps grow it, so the cost sequence over
    accepted iterates is non-increasing. The small initial damping makes
    exactly-linear residual systems converge in one or two iterations.
    Each step minimises ||J step + r||^2 + mu ||step||^2 as least squares
    on the stacked [J; sqrt(mu) I], not through the normal equations
    (J'J + mu I) step = -g, whose condition number is the square of the
    stack's.
    """
    opts = opts or LmOptions()
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residuals(x), dtype=float)
    if not np.isfinite(r).all():
        return LmResult(x=x, cost=np.inf, iterations=0, status="non_finite", grad_norm=np.inf)
    cost = 0.5 * float(r @ r)
    history = [cost]
    J = np.asarray(jacobian(x), dtype=float)
    g = J.T @ r
    gnorm = float(np.abs(g).max()) if g.size else 0.0
    scale = max(1.0, cost)
    if gnorm <= opts.gtol * scale:
        return LmResult(x=x, cost=cost, iterations=0, status="converged", grad_norm=gnorm, cost_history=history)

    eye = np.eye(len(x))
    mu = opts.damping_init * max(float(np.max(np.sum(J * J, axis=0))), 1e-300)  # the largest diagonal entry of J'J
    nu = 2.0
    status = "max_iter"
    it = 0
    accepted = 0
    for it in range(1, opts.max_iter + 1):
        try:
            A = np.concatenate([J, math.sqrt(mu) * eye])
            step = np.linalg.lstsq(A, np.concatenate([-r, np.zeros(len(x))]), rcond=None)[0]
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        x_new = x + step
        r_new = np.asarray(residuals(x_new), dtype=float)
        if not np.isfinite(r_new).all():
            mu *= nu
            nu *= 2.0
            if mu > 1e300:
                status = "non_finite"
                break
            continue
        cost_new = 0.5 * float(r_new @ r_new)
        predicted = 0.5 * float(step @ (mu * step - g))
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if rho > 0:  # accept
            accepted += 1
            dx = math.sqrt(step @ step)  # np.linalg.norm, without its overhead
            df = cost - cost_new
            x, r, cost = x_new, r_new, cost_new
            history.append(cost)
            J = np.asarray(jacobian(x), dtype=float)
            g = J.T @ r
            gnorm = float(np.abs(g).max())
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            scale = max(1.0, cost)
            if gnorm <= opts.gtol * scale:
                status = "converged"
                break
            if dx <= opts.xtol * (1.0 + math.sqrt(x @ x)):
                status = "converged"
                break
            if df <= opts.ftol * scale:
                status = "converged"
                break
        else:
            mu *= nu
            nu *= 2.0
            if mu > 1e300:
                status = "converged" if gnorm <= 1e-6 * scale else "max_iter"
                break
    return LmResult(
        x=x, cost=cost, iterations=accepted, status=status, grad_norm=gnorm, cost_history=history, evals=it
    )


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


def _gram(R: np.ndarray, D: np.ndarray, d: int) -> np.ndarray:
    """Products of the rows of D R' with its first 1 + d rows, shape (n, 1 + d + d^2, 1 + d).

    D (n, 1 + d + d^2, m) stacks x, its first and its second derivatives
    as rows, and R is (n, m, m). With r = R x, column 0 holds ||r||^2,
    the gradient (R dx)' r of f = 0.5 ||r||^2 and the curvature terms
    sum_j r_j (R d2x)_j; rows and columns 1..d hold (R dx)' (R dx).
    """
    RD = D @ R.swapaxes(-1, -2)
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
    R: np.ndarray,
    lift: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    opts: LmOptions | None = None,
) -> LockstepResult:
    """Minimize f_i = 0.5 ||R_i x(p)||^2 from every start p0[i] at once.

    R (n, m, m) is a square-root factor of each start's cost, such as the
    triangle of a QR of its residual rows, and lift(p) maps parameters
    (k, d) to (k, 1 + d + d^2, m): x(p), its first and its second
    derivatives. The cost, gradient and curvature come from r = R x, not
    from the quadratic form R'R, so they keep their relative precision
    down to a zero residual.

    Steps solve (H + mu I) step = -g with the exact Hessian H, so they
    converge quadratically where Gauss-Newton on a large residual is
    linear. Each start keeps its own damping and gain-ratio update
    (Madsen-Nielsen, as `lm_minimize`) and its own stops: `lm_minimize`'s
    gtol, xtol and ftol tests, and, before a trial is evaluated, a
    predicted decrease of at most ftol * f. That last test is relative to
    f alone, so a zero-residual start still runs down to its rounding
    floor. The starts run in lockstep, one batched solve and one batched
    evaluation per iteration over the starts still running; no start's
    sequence depends on the others. max_iter bounds the iterations.
    """
    opts = opts or LmOptions()
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
    S = state(p0, R, np.zeros((n, 4)))
    S[:, NU] = 2.0
    with np.errstate(all="ignore"):
        S[:, MU] = opts.damping_init * np.maximum(S[:, GN][:, :: d + 1].max(axis=1), 1e-300)
        finite = np.isfinite(S[:, C])
        status = np.where(finite, CONVERGED, NON_FINITE)
        act = np.flatnonzero(finite & (np.abs(S[:, G]).max(axis=1) > opts.gtol * np.maximum(1.0, 0.5 * S[:, C])))
        status[act] = _RUNNING
        s, Ra = S[act], R[act]  # the running starts only
        for _ in range(opts.max_iter):
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
            trial = pred2 > opts.ftol * c  # False for NaN: a singular system rejects the step
            stop = (pred2 > 0.0) ^ trial  # a decrease of at most ftol * f: stop untried
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
                # gtol or ftol: |g|_inf or the decrease at most that tol * max(1, f)
                converged = np.minimum(np.abs(new[:, G]).max(axis=1) * (2.0 / opts.gtol), dc * (1.0 / opts.ftol))
                converged = converged <= np.maximum(2.0, new[:, C])
                if not converged.all():  # xtol: a step at most xtol * (1 + |p|)
                    p_norm = np.sqrt((new[:, :d] * new[:, :d]).sum(axis=1))
                    converged |= np.sqrt(uu) <= opts.xtol * (1.0 + p_norm)
                stop |= acc & converged
                accepted = acc.all()
                s = new if accepted else np.where(acc[:, None], new, s)
            if accepted and not stop.any():
                continue
            # rejected: grow the damping; past 1e300 the start stops as `lm_minimize` does
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
                s, Ra, act = s[keep], Ra[keep], act[keep]
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
