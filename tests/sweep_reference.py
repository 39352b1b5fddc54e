"""Independent reference yaw sweep for the sweep property tests.

The sweep as a loop over matrices: M_j = N_j' P0 N_j by matmul at every
heading, LAPACK's `np.linalg.eigh` for the eigenpairs of the Schur
complement, and a scan of the whole root grid for the bracket. It shares
no code with `estimators._sweep`, only the grid and the selection rules
of `_sweep`, so a test that compares the two checks one against the
other. Besides the candidates it returns the grid costs, the quantities
the selection compares and first-order bounds on the rounding of the
costs and translations, so a test can tell a near-tie, which rounding
may decide either way, from a clear decision.
"""

import math
from types import SimpleNamespace

import numpy as np

from range_rte.estimators import SWEEP_CANDIDATES, SWEEP_HEADINGS

THETA = np.linspace(-math.pi, math.pi, SWEEP_HEADINGS, endpoint=False)
ROOT_GRID = np.logspace(-16.0, 0.0, 33)  # multiples of the root's upper bound
EPS = np.finfo(float).eps


def sweep_bases(theta: np.ndarray) -> np.ndarray:
    """N_j, shape (m, 9, 5), with lift(t, theta_j) = N_j [t, tau, 1] at tau = ||t||^2."""
    c, s = np.cos(theta), np.sin(theta)
    N = np.zeros((len(theta), 9, 5))
    N[:, 0, 0] = N[:, 1, 1] = N[:, 2, 2] = N[:, 7, 3] = N[:, 8, 4] = 1.0
    N[:, 3, 4], N[:, 4, 4] = c, s
    N[:, 5, 0], N[:, 5, 1] = c, s
    N[:, 6, 0], N[:, 6, 1] = -s, c
    return N


N = sweep_bases(THETA)


def reference_sweep(P0: np.ndarray) -> SimpleNamespace:
    """The yaw sweep of a stack of problems, P0 (W, 9, 9), one heading matrix at a time.

    Fields: t (W, SWEEP_CANDIDATES, 3), heading (W, SWEEP_CANDIDATES) and
    count (W,) as `estimators._sweep` returns them; the grid cost (W, 2, m)
    of point b of heading j at [:, b, j] (b = 1 the mirror point, +inf
    where not finite) and the points (W, 2, m, 3); prev and succ, the
    costs that continue each point's branch; gap_prev and gap_next, the
    differences of the distances that chose those continuations (point 1
    of the heading next door where negative); and t_rounding and
    cost_rounding (W, 2, m), the first-order rounding bounds of
    `_rounding_bounds` in units of eps.
    """
    W, m = len(P0), SWEEP_HEADINGS
    with np.errstate(all="ignore"):  # a non-finite problem rounds to NaN here, as it may
        M = N.transpose(0, 2, 1) @ P0[:, None] @ N  # (W, m, 5, 5)
        q, g_tau, w = M[..., :3, 3], M[..., 3, 4], M[..., 3, 3]
        S = M[..., :3, :3] - q[..., :, None] * q[..., None, :] / w[..., None, None]
        finite = np.isfinite(S).all(axis=(-1, -2))
        mu, U = np.full(S.shape[:-1], np.nan), np.full(S.shape, np.nan)
        mu[finite], U[finite] = np.linalg.eigh(S[finite])
        c = np.einsum("...ik,...i->...k", U, q) / w[..., None]
        r = q * (g_tau / w)[..., None] - M[..., :3, 4]
        e = np.einsum("...ik,...i->...k", U, r) + 0.5 * mu * c
        d = mu - mu[..., :1]
        beta = g_tau / w - 0.25 * np.sum(c * c, axis=-1) + mu[..., 0] / (2.0 * w)
        x_hi = np.maximum(4.0 * w * beta, np.cbrt(4.0 * w * np.sum(e * e, axis=-1)))
        x_top = np.maximum(x_hi, 1e-12 * mu[..., -1] + 1e-300)

        def f(x):
            return np.sum((e / (d + x[..., None])) ** 2, axis=-1) + beta - x / (2.0 * w)

        # the last grid point where f > 0, by a scan of the whole grid
        grid = x_top[..., None] * ROOT_GRID
        last = np.sum(f(grid.transpose(2, 0, 1)) > 0.0, axis=0) - 1
        x_floor = x_top * ROOT_GRID[0]
        x = x_top * ROOT_GRID[np.maximum(last, 0)]
        for _ in range(8):
            r2 = (e / (d + x[..., None])) ** 2
            slope = 2.0 * np.sum(r2 / (d + x[..., None]), axis=-1) + 0.5 / w
            x = np.maximum(x + f(x) / slope, x_floor)
        v = e / (d + x[..., None])
        hard = last < 0
        v0 = np.sqrt(np.maximum(x / (2.0 * w) - beta - np.sum(v[..., 1:] ** 2, axis=-1), 0.0))
        v[..., 0] = np.where(hard, np.copysign(v0, e[..., 0]), v[..., 0])
        t = np.einsum("wjik,wbjk->wbji", U, np.stack([v, v * [-1.0, 1.0, 1.0]], axis=1) - 0.5 * c[:, None])
        y = np.concatenate([t, np.sum(t * t, axis=-1)[..., None], np.ones(t.shape[:-1] + (1,))], axis=-1)
        cost = np.einsum("wbji,wjik,wbjk->wbj", y, M, y)
        t_rounding, cost_rounding = _rounding_bounds(P0, M, q, w, mu, U, c, r, v, x, hard, y)
    cost[~np.isfinite(cost)] = math.inf
    best = cost.min(axis=(1, 2))[:, None, None]
    nb, gaps = [], []
    for nxt in (np.arange(m) - 1, (np.arange(m) + 1) % m):  # the nearer point of the heading next door
        dist = np.linalg.norm(t[:, :, None] - t[:, None, :, nxt], axis=-1)  # [w, b, k, j]
        nb.append(np.take_along_axis(cost[:, :, nxt], dist.argmin(axis=2), axis=1))
        gaps.append(dist[:, :, 1] - dist[:, :, 0])
    prev, succ = nb
    curv = 0.5 * (prev + succ) - cost
    with np.errstate(invalid="ignore"):  # inf - inf where a neighbour has no finite cost
        local_min = (cost <= prev) & (cost <= succ) & ((cost == best) | (16.0 * curv * (cost - best) <= (prev - succ) ** 2))
    ranked = np.where(local_min & (best < math.inf), cost, math.inf).reshape(W, -1)
    order = np.argsort(ranked, axis=1, kind="stable")[:, :SWEEP_CANDIDATES]
    count = np.sum(np.take_along_axis(ranked, order, axis=1) < math.inf, axis=1)
    return SimpleNamespace(
        t=np.take_along_axis(t.reshape(W, -1, 3), order[..., None], axis=1),
        heading=order % m,
        count=count,
        cost=cost,
        points=t,
        prev=prev,
        succ=succ,
        gap_prev=gaps[0],
        gap_next=gaps[1],
        t_rounding=t_rounding,
        cost_rounding=cost_rounding,
    )


def _rounding_bounds(P0, M, q, w, mu, U, c, r, v, x, hard, y):
    """First-order bounds, in units of eps, on the rounding of each grid point's translation and cost.

    Every quantity of the solve gets the size of the terms that its
    rounded evaluation sums, carried forward to first order with absolute
    values: an entry of M is rounded at the scale of |N|' |P0| |N|, the
    eigenvalues at that of the Schur complement's entries, an eigenvector
    turns by that over its eigenvalue gap (Davis-Kahan), the secular root
    x moves by the rounding of f over |f'(x)|, and the hard case's square
    root amplifies its argument's rounding by 1 / (2 v_0), or takes its
    square root where v_0 is at that level. A translation's bound is the
    norm of its coordinates' bounds; a cost's is the size of the terms of
    y' M y plus the first-order effect of its point's rounding. Any
    implementation whose operations round to the nearest double computes
    the same quantities with errors of these sizes, times a small factor.
    """
    absN = np.abs(N)
    Ma = absN.transpose(0, 2, 1) @ np.abs(P0)[:, None] @ absN  # (W, m, 5, 5)
    g = M[..., 3, 4] / w
    dS = np.max(Ma[..., :3, :3] + np.abs(q[..., :, None] * q[..., None, :]) / w[..., None, None], axis=(-1, -2))
    gap = np.minimum(np.abs(mu - np.roll(mu, 1, axis=-1)), np.abs(mu - np.roll(mu, -1, axis=-1)))
    dU = np.minimum(dS[..., None] / gap, 1.0)  # turn of eigenvector k
    dq, dg = Ma[..., :3, 3], Ma[..., 3, 4] / w + np.abs(g)
    dc = (np.einsum("...ik,...i->...k", np.abs(U), dq + np.abs(q)) + np.linalg.norm(q, axis=-1)[..., None] * dU) / w[..., None]
    dr = dq * np.abs(g)[..., None] + np.abs(q) * dg[..., None] + Ma[..., :3, 4] + np.abs(r)
    de = np.einsum("...ik,...i->...k", np.abs(U), dr) + np.linalg.norm(r, axis=-1)[..., None] * dU
    de += 0.5 * (dS[..., None] * np.abs(c) + np.abs(mu) * dc + np.abs(mu * c))
    dd = 2.0 * dS[..., None]  # of mu_k - mu_0
    dbeta = dg + 0.25 * np.sum(c * c + 2.0 * np.abs(c) * dc, axis=-1) + (np.abs(mu[..., 0]) + dS) / (2.0 * w)
    den = mu - mu[..., :1] + x[..., None]
    slope = 2.0 * np.sum(v * v / den, axis=-1) + 0.5 / w  # -f'(x)
    df = np.sum(2.0 * np.abs(v) * (de + np.abs(v) * dd) / den + v * v, axis=-1) + dbeta + x / (2.0 * w)
    dx = df / slope
    dv = (de + np.abs(v) * (dd + dx[..., None])) / den
    v12 = np.abs(v[..., 1:])
    darg = (x + dx) / (2.0 * w) + dbeta + np.sum(v12 * v12 + 2.0 * v12 * dv[..., 1:], axis=-1)
    dv0 = np.minimum(darg / (2.0 * np.abs(v[..., 0])), np.sqrt(darg / EPS))
    dv[..., 0] = np.where(hard, dv0, dv[..., 0])
    z = np.abs(v) + 0.5 * np.abs(c)
    dt = np.einsum("...ik,...k->...i", np.abs(U), dv + 0.5 * dc + z) + np.sum(z * dU, axis=-1)[..., None]
    dt = np.broadcast_to(dt[:, None], y.shape[:-1] + (3,))  # the mirror point's bounds are its twin's
    dy = np.concatenate([dt, 2.0 * np.sum(np.abs(y[..., :3]) * dt, axis=-1)[..., None], np.zeros(dt.shape[:-1] + (1,))], axis=-1)
    x_abs = np.einsum("jak,wbjk->wbja", absN, np.abs(y))  # |N_j| |y| >= |lift|
    terms = np.einsum("wbja,wac,wbjc->wbj", x_abs, np.abs(P0), x_abs)
    slope_y = 2.0 * np.einsum("wjik,wbjk->wbji", np.abs(M), np.abs(y))
    return np.linalg.norm(dt, axis=-1), terms + np.sum(slope_y * dy, axis=-1)


def clear_decisions(ref: SimpleNamespace, margin: float) -> np.ndarray:
    """(W,) True where every comparison that picks the candidates is wider than the rounding margin.

    Two grid costs tie when they differ by at most margin * eps times the
    sum of their `cost_rounding` bounds, and two distances when they differ
    by at most that times the `t_rounding` bounds of the points involved.
    The comparisons are those of the sweep's selection: each point against
    the points that continue its branch, the lowest cost against the rest,
    the parabola test (its quantity moved by at most the first-order effect
    of the four costs' margins), the choice of the nearer point next door
    where the two differ in cost, and the order of the lowest local minima
    up to one past the last candidate. Where none ties, any implementation
    whose grid costs and points are within the margins picks the same
    candidates.
    """
    W, m = ref.cost.shape[0], ref.cost.shape[-1]
    cost, prev, succ = ref.cost, ref.prev, ref.succ
    finite = np.isfinite(cost)
    tol = margin * EPS * np.where(finite, ref.cost_rounding, 0.0)
    i_best = np.argmin(cost.reshape(W, -1), axis=1)
    best = cost.reshape(W, -1)[np.arange(W), i_best][:, None, None]
    tol_best = tol.reshape(W, -1)[np.arange(W), i_best][:, None, None]
    sides = ((ref.gap_prev, np.arange(m) - 1), (ref.gap_next, (np.arange(m) + 1) % m))
    tol_prev, tol_succ = (np.where(gap < 0.0, tol[:, 1, nxt][:, None], tol[:, 0, nxt][:, None]) for gap, nxt in sides)
    with np.errstate(invalid="ignore"):  # inf - inf where a neighbour has no finite cost
        tie = (np.abs(cost - prev) <= tol + tol_prev) | (np.abs(cost - succ) <= tol + tol_succ)
        tie |= (cost - best <= tol + tol_best) & (np.arange(2 * m).reshape(2, m) != i_best[:, None, None])
        curv = 0.5 * (prev + succ) - cost
        Q = 16.0 * curv * (cost - best) - (prev - succ) ** 2
        dlt = np.maximum(np.maximum(tol, tol_best), np.maximum(tol_prev, tol_succ))
        dQ = dlt * (32.0 * np.abs(cost - best) + 32.0 * np.abs(curv) + 4.0 * np.abs(prev - succ)) + 68.0 * dlt * dlt
        tie |= (cost <= prev) & (cost <= succ) & (cost > best) & (np.abs(Q) <= dQ)
        tol_t = margin * EPS * ref.t_rounding
        for gap, nxt in sides:
            matters = np.abs(cost[:, 1, nxt] - cost[:, 0, nxt]) > tol[:, 1, nxt] + tol[:, 0, nxt]
            near = np.abs(gap) <= 2.0 * tol_t + (tol_t[:, 0, nxt] + tol_t[:, 1, nxt])[:, None]
            tie |= near & matters[:, None]
        local_min = (cost <= prev) & (cost <= succ) & ((cost == best) | (Q <= 0.0))
    clear = ~(tie & finite).any(axis=(1, 2))
    ranked = np.where(local_min & finite, cost, math.inf).reshape(W, -1)
    order = np.argsort(ranked, axis=1, kind="stable")[:, : SWEEP_CANDIDATES + 1]
    low, low_tol = np.take_along_axis(ranked, order, axis=1), np.take_along_axis(tol.reshape(W, -1), order, axis=1)
    with np.errstate(invalid="ignore"):
        clear &= ~((np.diff(low, axis=1) <= low_tol[:, 1:] + low_tol[:, :-1]) & np.isfinite(low[:, 1:])).any(axis=1)
    return clear
