"""Monte-Carlo evaluation harness.

Generates random ground truths and trajectories, synthesizes noisy
odometry and range data, builds the canonical degenerate trajectory
classes, and aggregates estimator errors against the information bound.
Every run is keyed by a 64-bit seed through a counter-based generator
(Philox) with one substream per trial, so trials are reproducible and
independent of the order they run in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import ESTIMATORS, WindowEstimate, align_target_trajectory, sliding_window_estimate
from .fisher import fim
from .geometry import TWO_PI, LeverArm, Transform4DoF, apply_transform, quat_to_matrix, wrap_angle, yaw_matrices
from .measurement import SIGMA_R_FLOOR, SyncedDataset, at_frame_origins, true_range

SCENARIO_KINDS = ("parallel", "planar_linear", "static_target", "static_host")


@dataclass(frozen=True)
class DriftConfig:
    """Random-walk drift on the true transform.

    sigma_t (m) and sigma_theta (rad) are per-sqrt-second random-walk
    intensities on the translation axes and the heading.
    """

    sigma_t: float = 0.1
    sigma_theta: float = 0.1
    duration: float = 600.0
    window: int = 50
    rate: float = 10.0
    stride: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    d0: float = 3.0
    D: float = 1.0
    n_poses: int = 20
    sigma_r: float = 0.1
    sigma_o: float = 0.001
    trials: int = 100
    seed: int = 0
    lever_arms: tuple = (LeverArm(), LeverArm())
    drift: Optional[DriftConfig] = None
    dt: float = 1.0

    def __post_init__(self):
        if not (self.d0 > 0 and self.D > 0):
            raise ValueError("d0 and D must be positive")
        if self.sigma_r < 0 or self.sigma_o < 0:
            raise ValueError("noise levels must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


class ErrorStats:
    """Per-trial errors with their aggregates and the averaged bound.

    `table` is one read-only (trials, 5) array with the columns e_t,
    e_theta, crlb_t, crlb_theta and solve_ms, each also a property. RMSE
    and MSE are taken over the trials whose e_t is finite, the bound means
    over the finite bounds. `failures` holds one message per failed trial.
    """

    __slots__ = ("_rows", "failures")

    def __init__(self, table, failures=()):
        # bytes hold a trial in 40 B behind a 33 B header, an ndarray adds
        # 128 B; callers that keep one ErrorStats per trial keep thousands
        self._rows = np.asarray(table, dtype=float).reshape(-1, 5).tobytes()
        self.failures = tuple(failures)

    @property
    def table(self) -> np.ndarray:
        return np.frombuffer(self._rows).reshape(-1, 5)  # read-only: bytes are immutable

    e_t = property(lambda self: self.table[:, 0])
    e_theta = property(lambda self: self.table[:, 1])
    crlb_t = property(lambda self: self.table[:, 2])
    crlb_theta = property(lambda self: self.table[:, 3])
    solve_ms = property(lambda self: self.table[:, 4])

    def _mse(self, col: int) -> float:
        ok = np.isfinite(self.table[:, 0])
        return float(np.mean(self.table[ok, col] ** 2)) if ok.any() else math.nan

    def _mean_bound(self, col: int) -> float:
        bound = self.table[:, col]
        return float(np.nanmean(bound)) if np.isfinite(bound).any() else math.nan

    mse_t = property(lambda self: self._mse(0))
    mse_theta = property(lambda self: self._mse(1))
    rmse_t = property(lambda self: math.sqrt(self.mse_t))
    rmse_theta = property(lambda self: math.sqrt(self.mse_theta))
    crlb_t_mean = property(lambda self: self._mean_bound(2))
    crlb_theta_mean = property(lambda self: self._mean_bound(3))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent counter-based substream for one trial."""
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(trial)]))


def sample_ground_truth(d0: float, rng: np.random.Generator) -> Transform4DoF:
    """Truth transform: ||t|| = d0 with uniform direction, uniform heading."""
    if not d0 > 0:
        raise ValueError("d0 must be positive")
    v = rng.standard_normal(3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
    return Transform4DoF(t=d0 * v / n, theta=rng.uniform(-math.pi, math.pi))


def generate_trajectory(
    D: float,
    n_poses: int,
    rng: np.random.Generator,
    step_scale: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded random walk inside the ball of radius D around the origin.

    Gaussian steps reflected at the ball boundary, random headings.
    Returns positions, shape (n_poses, 3), and headings, shape (n_poses,);
    sample i is taken at i * dt of the scenario. D -> 0 degenerates to a
    parked agent. The draws stay scalar and in the order heading, step,
    then a reflection fraction only when one is needed, so a seed gives
    the same walk whatever the batch size.
    """
    if not D > 0:
        raise ValueError("D must be positive")
    if n_poses < 1:
        raise ValueError("n_poses must be >= 1")
    p = np.zeros(3)
    positions = np.empty((n_poses, 3))
    yaws = np.empty(n_poses)
    for i in range(n_poses):
        positions[i] = p
        yaws[i] = rng.uniform(-math.pi, math.pi)
        step = rng.standard_normal(3) * (step_scale * D)
        p = p + step
        r = np.linalg.norm(p)
        if r > D:  # reflect back inside
            p = p * (2.0 * D - r) / r if r < 2.0 * D else p * (D / r) * rng.uniform(0.0, 1.0)
    return positions, yaws


def _antenna_positions(positions: np.ndarray, yaws: np.ndarray, arm: LeverArm) -> np.ndarray:
    """p_i + R(q_i) r for the heading-only attitude q_i = (0, 0,
    sin(yaw_i/2), cos(yaw_i/2)), shape (n, 3), as `ingest_logs` computes it."""
    q = np.zeros((len(yaws), 4))
    q[:, 2], q[:, 3] = np.sin(0.5 * yaws), np.cos(0.5 * yaws)
    return positions + quat_to_matrix(q) @ arm.r


def synthesize_measurements(
    T_true: Transform4DoF,
    traj_a: tuple[np.ndarray, np.ndarray],
    traj_b: tuple[np.ndarray, np.ndarray],
    cfg: ScenarioConfig,
    rng: np.random.Generator,
) -> SyncedDataset:
    """Noisy synced dataset from ground-truth trajectories.

    Each trajectory is (positions (n, 3), headings (n,)), sampled every
    cfg.dt seconds. Ranges come from the true antenna geometry plus
    Gaussian range noise; the recorded antenna positions come from
    odometry perturbed by per-axis Gaussian noise, as an estimator would
    see them. The first noisy range is recorded as the inter-origin
    distance d0 only when both first true antenna positions sit at their
    frame origins; otherwise it does not measure ||t|| and d0 stays None.
    """
    arm_a, arm_b = cfg.lever_arms
    n = min(len(traj_a[1]), len(traj_b[1]))
    pa_true = _antenna_positions(traj_a[0][:n], traj_a[1][:n], arm_a)
    pb_true = _antenna_positions(traj_b[0][:n], traj_b[1][:n], arm_b)
    d = true_range(T_true, pa_true, pb_true)
    d_meas = d + cfg.sigma_r * rng.standard_normal(n) if cfg.sigma_r > 0 else d.copy()
    np.maximum(d_meas, 1e-9, out=d_meas)
    pa = pa_true + cfg.sigma_o * rng.standard_normal((n, 3)) if cfg.sigma_o > 0 else pa_true
    pb = pb_true + cfg.sigma_o * rng.standard_normal((n, 3)) if cfg.sigma_o > 0 else pb_true
    d0 = float(d_meas[0]) if at_frame_origins(pa_true[0], pb_true[0]) else None
    return SyncedDataset(
        t=np.arange(n) * cfg.dt, d=d_meas, pa=pa, pb=pb, sigma_r=max(cfg.sigma_r, SIGMA_R_FLOOR), d0=d0
    )


def _linear_local_trajectory(start, direction, length, n, rng):
    return start + np.linspace(0.0, length, n)[:, None] * direction, rng.uniform(-math.pi, math.pi, n)


def singular_scenario(
    kind: str,
    cfg: ScenarioConfig,
    rng: np.random.Generator,
) -> tuple[Transform4DoF, SyncedDataset]:
    """Trajectory pair realizing a named degeneracy exactly.

    parallel: both agents translate with the same world velocity, so the
    relative position vector never changes direction.
    planar_linear: both move on straight lines inside one common plane.
    static_target: the target sits at its origin (no heading information).
    static_host: the host never moves (rotation about it is unresolved).
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
    T = sample_ground_truth(cfg.d0, rng)
    n, D = cfg.n_poses, cfg.D
    C = T.rotation()

    def rand_unit():
        v = rng.standard_normal(3)
        return v / max(np.linalg.norm(v), 1e-12)

    if kind == "parallel":
        v = rand_unit()
        traj_a = _linear_local_trajectory(np.zeros(3), v, D, n, rng)
        # target local path = host world path carried through the transform
        traj_b = traj_a[0] @ C, rng.uniform(-math.pi, math.pi, n)
    elif kind == "planar_linear":
        normal = rand_unit()
        e1 = np.cross(normal, rand_unit())
        e1 /= max(np.linalg.norm(e1), 1e-12)
        e2 = np.cross(normal, e1)
        va = math.cos(0.7) * e1 + math.sin(0.7) * e2
        vb_world = math.cos(-0.9) * e1 + math.sin(-0.9) * e2
        traj_a = _linear_local_trajectory(np.zeros(3), va, D, n, rng)
        # world offset between the lines must stay inside the plane:
        # pick the target start so that t + C pb0 - pa0 is plane-parallel
        w0 = 0.8 * cfg.d0 * e1 + 0.2 * cfg.d0 * e2
        b0 = C.T @ (w0 - T.t)
        along = np.arange(n) * D / max(n - 1, 1)
        traj_b = b0 + along[:, None] * (C.T @ vb_world), rng.uniform(-math.pi, math.pi, n)
    elif kind == "static_target":
        traj_a = generate_trajectory(D, n, rng)
        traj_b = np.zeros((n, 3)), np.zeros(n)
    else:  # static_host
        traj_a = np.zeros((n, 3)), np.zeros(n)
        traj_b = generate_trajectory(D, n, rng)
    return T, synthesize_measurements(T, traj_a, traj_b, cfg, rng)


def trial_data(cfg: ScenarioConfig, trial: int) -> tuple[Transform4DoF, SyncedDataset]:
    """Ground truth and synthesized dataset of one trial (reproducible)."""
    rng = trial_rng(cfg.seed, trial)
    T_true = sample_ground_truth(cfg.d0, rng)
    traj_a = generate_trajectory(cfg.D, cfg.n_poses, rng)
    traj_b = generate_trajectory(cfg.D, cfg.n_poses, rng)
    return T_true, synthesize_measurements(T_true, traj_a, traj_b, cfg, rng)


def _run_trial(cfg: ScenarioConfig, estimator: str, trial: int):
    T_true, dataset = trial_data(cfg, trial)
    bound = fim(T_true, dataset)
    start = time.perf_counter()
    try:
        report = ESTIMATORS[estimator](dataset)
        err_t = float(np.linalg.norm(report.theta_hat.t - T_true.t))
        err_th = abs(float(wrap_angle(report.theta_hat.theta - T_true.theta)))
        failure = None
    except Exception as exc:  # noqa: BLE001 - failed trials are data, not crashes
        err_t = math.nan
        err_th = math.nan
        failure = f"trial {trial}: {type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - start) * 1e3
    return err_t, err_th, bound.crlb_t, bound.crlb_theta, ms, failure


def monte_carlo_run(cfg: ScenarioConfig, estimator: str = "qcqp") -> ErrorStats:
    """Repeated-trial evaluation of one estimator on one scenario cell.

    Each trial draws a fresh truth, trajectories and noise from its own
    substream. Failed trials are recorded, not dropped; aggregates are
    over the successful ones.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    rows = [_run_trial(cfg, estimator, i) for i in range(cfg.trials)]
    # a bound of None (singular information matrix) becomes NaN in the float table
    return ErrorStats([r[:5] for r in rows], failures=[r[5] for r in rows if r[5] is not None])


@dataclass
class DriftResult:
    """Sliding-window drift correction versus the uncorrected odometry."""

    times: np.ndarray
    nc_error: np.ndarray
    corrected_error: np.ndarray
    nc_rmse: float
    corrected_rmse: float
    windows: list
    n_skipped: int


def _drift_truth_series(cfg: ScenarioConfig, n: int, dt: float, rng) -> tuple[Transform4DoF, np.ndarray, np.ndarray]:
    """Initial transform plus its random-walk perturbation over time.

    Returns T0, the translations, shape (n, 3), and the headings, shape
    (n,), wrapped after every step. Row i of the noise drives step i:
    three translation draws, then one heading draw.
    """
    drift = cfg.drift
    T0 = sample_ground_truth(cfg.d0, rng)
    noise = rng.standard_normal((n, 4))
    sig_t = drift.sigma_t * math.sqrt(dt)
    sig_th = drift.sigma_theta * math.sqrt(dt)
    t = np.cumsum(np.vstack([T0.t, sig_t * noise[:-1, :3]]), axis=0)[:n]
    theta = [T0.theta]
    for step in (sig_th * noise[:-1, 3]).tolist():
        theta.append((theta[-1] + step + math.pi) % TWO_PI - math.pi)
    return T0, t, np.array(theta[:n])


def _sinuous(t, amplitudes, freqs, phases):
    return np.column_stack(
        [a * np.sin(2.0 * math.pi * f * t + p) for a, f, p in zip(amplitudes, freqs, phases)]
    )


def drift_scenario(
    cfg: ScenarioConfig,
    estimator: str = "qcqp",
) -> DriftResult:
    """Long-duration run with a drifting true transform.

    The host holds accurate localization and flies a sinuous 3D pattern;
    the target scans a larger area while its odometry registration
    random-walks away from the world frame. A sliding-window estimator
    re-aligns the target trajectory; the no-correction baseline keeps the
    initial registration for the whole run.
    """
    if cfg.drift is None:
        raise ValueError("drift configuration required")
    drift = cfg.drift
    rng = trial_rng(cfg.seed, 0)
    dt = 1.0 / drift.rate
    n = int(round(drift.duration * drift.rate))
    t_axis = np.arange(n) * dt

    T0, t_true, theta_true = _drift_truth_series(cfg, n, dt, rng)

    # Host pattern: wide sinuous sweep; large angular coverage of the
    # target keeps the windowed translation geometry strong.
    host = _sinuous(
        t_axis,
        amplitudes=(6.0, 5.0, 4.0),
        freqs=(0.25, 0.31, 0.41),
        phases=(0.0, 1.3, 2.1),
    )
    # Target world path: slow exploration loop plus a fast wiggle that
    # keeps the heading observable inside every window. Heading errors
    # scale with the target's distance from its own origin, so the loop
    # is kept compact relative to the accumulated translation drift.
    target_local = _sinuous(
        t_axis,
        amplitudes=(6.0, 5.0, 1.5),
        freqs=(2.5 / drift.duration, 4.0 / drift.duration, 0.05),
        phases=(0.3, 1.9, 0.7),
    ) + _sinuous(
        t_axis,
        amplitudes=(2.0, 1.6, 1.2),
        freqs=(0.17, 0.27, 0.37),
        phases=(1.0, 0.2, 2.5),
    )
    target_world = apply_transform(T0, target_local)

    # row i: C(theta_i)' (target_world_i - t_i)
    pb_true = ((target_world - t_true)[:, None, :] @ yaw_matrices(np.cos(theta_true), np.sin(theta_true)))[:, 0]
    d = np.linalg.norm(target_world - host, axis=1)
    d_meas = d + cfg.sigma_r * rng.standard_normal(n) if cfg.sigma_r > 0 else d.copy()
    np.maximum(d_meas, 1e-9, out=d_meas)
    pa = host + cfg.sigma_o * rng.standard_normal((n, 3)) if cfg.sigma_o > 0 else host
    pb = pb_true + cfg.sigma_o * rng.standard_normal((n, 3)) if cfg.sigma_o > 0 else pb_true
    stream = SyncedDataset(t=t_axis, d=d_meas, pa=pa, pb=pb, sigma_r=max(cfg.sigma_r, SIGMA_R_FLOOR))

    windows = sliding_window_estimate(
        stream,
        window=drift.window,
        stride=drift.stride or drift.window,
        estimator=estimator,
    )
    aligned = align_target_trajectory(stream, windows, initial=None)

    nc = apply_transform(T0, stream.pb)
    nc_err = np.linalg.norm(nc - target_world, axis=1)
    corr_err = np.linalg.norm(aligned - target_world, axis=1)

    # Compare over samples where a window estimate exists.
    valid = np.isfinite(corr_err)
    nc_rmse = float(np.sqrt(np.mean(nc_err[valid] ** 2))) if valid.any() else math.nan
    corr_rmse = float(np.sqrt(np.mean(corr_err[valid] ** 2))) if valid.any() else math.nan
    return DriftResult(
        times=t_axis,
        nc_error=nc_err,
        corrected_error=corr_err,
        nc_rmse=nc_rmse,
        corrected_rmse=corr_rmse,
        windows=windows,
        n_skipped=sum(1 for w in windows if w.skipped),
    )
