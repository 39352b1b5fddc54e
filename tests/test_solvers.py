import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from range_rte.estimators import _CONSTRAINT_MATRICES, SDP_TOL, assemble_qcqp
from range_rte.simulation import SCENARIO_KINDS, ScenarioConfig, singular_scenario, trial_data
from range_rte.solvers import (
    CONVERGED,
    NON_FINITE,
    _batched_solve,
    lockstep_newton,
    sdp_solve,
)


def E(i, j, n=2):
    M = np.zeros((n, n))
    M[i, j] = 1.0
    return M


def solve_one(C, A, b, **kwargs):
    """`sdp_solve` on a stack of one problem: its X, y and diagnostics (arrays of one entry)."""
    X, y, diag = sdp_solve(np.asarray(C, dtype=float)[None], A, b, **kwargs)
    return X[0], y[0], diag


class TestSdpSolve:
    def test_analytic_2x2(self):
        # min Tr(X) s.t. X11 = 1  ->  X = E11, objective 1
        X, y, diag = solve_one(np.eye(2), [E(0, 0)], [1.0])
        assert diag.status == "optimal"
        assert diag.primal_obj == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(X, E(0, 0), atol=1e-6)

    def test_diagonal_sdp_matches_lp_vertex_oracle(self):
        # a diagonal SDP is the LP  min c.x  s.t.  a.x = b, x >= 0;
        # brute-force oracle: enumerate single-variable vertices
        rng = np.random.default_rng(3)
        for _ in range(5):
            c = rng.uniform(1.0, 3.0, size=5)
            a = rng.uniform(0.5, 2.0, size=5)
            b = rng.uniform(1.0, 4.0)
            X, y, diag = solve_one(np.diag(c), [np.diag(a)], [b])
            lp_opt = min(c[i] * b / a[i] for i in range(5))
            assert diag.status == "optimal"
            assert diag.primal_obj == pytest.approx(lp_opt, rel=1e-6)

    def test_two_constraint_lp(self):
        # min x1 + 2 x2 + 3 x3  s.t.  x1 + x2 + x3 = 1, x2 + 2 x3 = 0.5, x >= 0
        c = np.array([1.0, 2.0, 3.0])
        a1 = np.array([1.0, 1.0, 1.0])
        a2 = np.array([0.0, 1.0, 2.0])
        b = np.array([1.0, 0.5])
        X, y, diag = solve_one(np.diag(c), [np.diag(a1), np.diag(a2)], b)
        # vertex enumeration over pairs of basic variables
        best = math.inf
        for i, j in itertools.combinations(range(3), 2):
            Amat = np.array([[a1[i], a1[j]], [a2[i], a2[j]]])
            try:
                xij = np.linalg.solve(Amat, b)
            except np.linalg.LinAlgError:
                continue
            if np.all(xij >= -1e-12):
                best = min(best, c[i] * xij[0] + c[j] * xij[1])
        assert diag.primal_obj == pytest.approx(best, rel=1e-6)

    def test_weak_duality_on_reports(self):
        rng = np.random.default_rng(4)
        Q = rng.normal(size=(4, 4))
        C = Q @ Q.T
        A = [np.diag(rng.uniform(0.5, 1.5, size=4)) for _ in range(2)]
        X0 = np.diag(rng.uniform(0.5, 1.5, size=4))  # strictly feasible point
        b = np.array([np.tensordot(a, X0) for a in A])
        X, y, diag = solve_one(C, A, b)
        assert diag.status == "optimal"
        assert diag.primal_obj >= diag.dual_obj - 1e-6 * (1 + abs(diag.primal_obj))
        assert diag.gap == pytest.approx(abs(diag.primal_obj - diag.dual_obj))

    def test_psd_and_feasibility_contract(self):
        rng = np.random.default_rng(5)
        Q = rng.normal(size=(5, 5))
        C = Q @ Q.T
        A = []
        for _ in range(3):
            S = rng.normal(size=(5, 5))
            A.append(0.5 * (S + S.T))
        x0 = rng.normal(size=5)
        X0 = np.outer(x0, x0) + 0.5 * np.eye(5)
        b = np.array([np.tensordot(a, X0) for a in A])
        X, y, diag = solve_one(C, A, b, tol=1e-9)
        assert diag.status == "optimal"
        lam = np.linalg.eigvalsh(X)
        assert lam[0] >= -1e-8
        for a, bi in zip(A, b):
            assert abs(np.tensordot(a, X) - bi) <= 1e-7 * max(1.0, abs(bi))

    def test_infeasible_diagonal(self):
        # Tr(E11 X) = -1 is impossible for X >= 0: the solver has no
        # infeasibility test, but such a problem must not end optimal
        X, y, diag = solve_one(np.eye(2), [E(0, 0)], [-1.0], max_iter=150)
        assert diag.status[0] != "optimal"

    def test_rejects_asymmetric_input(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="C must be symmetric"):
            sdp_solve(M[None], [], np.zeros(0))
        with pytest.raises(ValueError, match="A must be symmetric"):
            sdp_solve(np.eye(2)[None], [M], np.ones(1))

    @pytest.mark.parametrize("b", [np.ones(2), np.ones((1, 1)), np.ones(0)])
    def test_rejects_a_right_hand_side_of_the_wrong_shape(self, b):
        # b holds one value per constraint, shared by every problem of the stack
        with pytest.raises(ValueError, match=r"b \(m,\)"):
            sdp_solve(np.eye(2)[None], [E(0, 0)], b)


def relaxation(seed):
    """P0 and the constraints (A, b) of the lifted relaxation of one random
    problem without d0: a regular cell, or a noiseless singular
    configuration, whose relaxations end at a failed factorisation."""
    rng = np.random.default_rng(seed)
    if rng.uniform() < 0.5:
        kind = SCENARIO_KINDS[int(rng.integers(len(SCENARIO_KINDS)))]
        _, ds = singular_scenario(kind, ScenarioConfig(sigma_r=0.0, sigma_o=0.0, trials=1), rng)
    else:
        cfg = ScenarioConfig(
            d0=float(rng.uniform(2.0, 60.0)),
            D=float(rng.uniform(0.3, 20.0)),
            n_poses=int(rng.integers(6, 30)),
            sigma_r=float(rng.uniform(0.0, 0.5)),
            trials=1,
            seed=int(rng.integers(2**31)),
        )
        _, ds = trial_data(cfg, 0)
    problem = assemble_qcqp(ds.select(np.ones(len(ds), dtype=bool), keep_d0=False))
    return problem.P0, _CONSTRAINT_MATRICES[:4], np.array([1.0, 0.0, 0.0, 0.0])


class TestSdpStack:
    @settings(max_examples=20, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=8),
        max_iter=st.sampled_from([12, 20, 200]),
    )
    def test_problem_alone_equals_problem_in_a_stack(self, seeds, max_iter):
        # lockstep: a problem's iterates do not depend on the others in the
        # stack, whatever their statuses or iteration counts, and a failed
        # factorisation stops only its own problem
        problems = [relaxation(seed) for seed in seeds]
        _, A, b = problems[0]
        C = np.array([p[0] for p in problems])
        X, y, diag = sdp_solve(C, A, b, tol=SDP_TOL, max_iter=max_iter)
        for i in range(len(seeds)):
            X1, y1, diag1 = sdp_solve(C[i : i + 1], A, b, tol=SDP_TOL, max_iter=max_iter)
            assert diag1.status[0] == diag.status[i] and diag1.iterations[0] == diag.iterations[i], i
            np.testing.assert_allclose(X1[0], X[i], rtol=0.0, atol=1e-12 * np.abs(X[i]).max())


def residual_lift(r, J):
    """`lockstep_newton`'s lift of residuals r(x) (m,): the residuals, the rows of
    their Jacobian J(x) (m, d) and zero second-derivative rows, so that the steps
    are Gauss-Newton steps."""

    def lift(p):
        rows = []
        for x in p:
            res = r(x)
            rows.append(np.vstack([res[None], J(x).T, np.zeros((len(x) ** 2, len(res)))]))
        return np.array(rows)

    return lift


class TestBatchedSolve:
    def test_singular_system_gives_a_nan_row_and_the_others_their_own_solution(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(5, 4, 4))
        b = rng.normal(size=(5, 4))
        A[2, :, 3] = 0.0  # a zero column: exactly singular
        with pytest.raises(np.linalg.LinAlgError):  # so the stacked solve fails and the systems go one by one
            np.linalg.solve(A, b[..., None])
        x = _batched_solve(A, b)
        assert np.isnan(x[2]).all()
        for i in (0, 1, 3, 4):
            assert np.array_equal(x[i], np.linalg.solve(A[i], b[i]))


class TestLmMinimize:
    """Levenberg-Marquardt on plain residuals: `lockstep_newton` minimizes 0.5 ||r(x)||^2."""

    def test_linear_least_squares_two_iterations(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(10, 3))
        b = rng.normal(size=10)
        x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        res = lockstep_newton(residual_lift(lambda x: A @ x - b, lambda x: A), np.zeros((1, 3)))
        assert res.status[0] == CONVERGED
        assert res.iterations[0] <= 2
        assert np.allclose(res.p[0], x_star, atol=1e-8)

    def test_rosenbrock(self):
        def r(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def J(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        res = lockstep_newton(residual_lift(r, J), np.array([[-1.2, 1.0]]), max_iter=300)
        assert res.status[0] == CONVERGED
        assert np.allclose(res.p[0], [1.0, 1.0], atol=1e-6)

    def test_zero_residual_start_returns_immediately(self):
        lift = residual_lift(lambda x: np.zeros(3), lambda x: np.zeros((3, 2)))
        res = lockstep_newton(lift, np.array([[1.0, 2.0]]))
        assert res.iterations[0] == 0 and res.evals[0] == 0
        assert res.status[0] == CONVERGED
        np.testing.assert_array_equal(res.p[0], [1.0, 2.0])

    def test_non_finite_residual_reported(self):
        lift = residual_lift(lambda x: np.array([math.inf]), lambda x: np.array([[1.0]]))
        res = lockstep_newton(lift, np.array([[1.0]]))
        assert res.status[0] == NON_FINITE
        np.testing.assert_array_equal(res.p[0], [1.0])

