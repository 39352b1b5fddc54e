"""Monte-Carlo evaluation harness.

Generates random ground truths and trajectories, synthesizes noisy
odometry and range data, builds the canonical degenerate trajectory
classes, and aggregates estimator errors against the information bound.
Every run is keyed by a 64-bit seed through a counter-based generator
(Philox) with one substream per trial, so trials are reproducible and
independent of the order they run in.

A Monte-Carlo cell is one array pipeline. `trial_data` on a range of
trials loops over them once, for each trial's truth and two walks, which
run on Python floats; each trial's noise is drawn from its own generator
after them. The antenna geometry and the true ranges follow once on
(W, n, 3) arrays, then the noise and d0 in the one measurement step
(`_measure`), which a drift stream passes through too, as a
`SyncedStack`. Its row count, sigma_r and d0 follow from the config
alone, since d0 is the first range, present only with zero lever arms.
So a whole cell is one stack:
one `fim` call gives the bounds at the truths from one stacked FIM, the
estimator's `ESTIMATORS` entry on the stack gives every estimate as one
array from one point stage, and the errors are taken on arrays. Each
trial's estimate is bit for bit the one its estimator gives on it alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimators import ESTIMATORS, WindowTrack, align_target_trajectory, sliding_window_estimate
from .fisher import fim
from .geometry import TWO_PI, LeverArm, Transform4DoF, apply_transform, heading_cos_sin, wrap_angle, yaw_matrices
from .measurement import LARGEST_RANGE, SIGMA_R_FLOOR, SyncedDataset, SyncedStack, antenna_positions, at_frame_origins

SCENARIO_KINDS = ("parallel", "planar_linear", "static_target", "static_host")
# standard deviation of a walk step per axis, in units of the ball radius D
STEP_SCALE = 0.5


# The largest scenario length, d0 or D (m), that synthesis represents.
# With zero lever arms a cell's true ranges are at most d0 + 2 D, so they
# stay within three quarters of the range rule's largest range
# (`measurement.LARGEST_RANGE`), a quarter left for noise and rounding. A
# walk squares a position before it reflects it, at most D (1 + STEP_SCALE
# |z|) from the origin for a standard normal step z; that square stays
# finite, below (2 LARGEST_RANGE)^2, while |z| <= 14, which a 3-vector
# passes with a chance of 3e-42.
LARGEST_LENGTH = LARGEST_RANGE / 4.0
# The quarter left spans a lever arm of each agent and the noise. A lever
# arm component at most LARGEST_LEVER_ARM puts an antenna at most
# sqrt(3) / 8 < 0.22 LARGEST_LENGTH from its body, and a noise level, sigma_r
# or sigma_o (m), at most LARGEST_NOISE moves a range by at most half
# LARGEST_LENGTH while its standard normal draw stays within 16 (chance of
# a larger one 1.3e-57). So a noisy range stays within LARGEST_RANGE, and
# a noisy antenna position within 2.1 LARGEST_LENGTH of its frame origin
LARGEST_LEVER_ARM = LARGEST_LENGTH / 8.0
LARGEST_NOISE = LARGEST_LENGTH / 32.0


def _check_length(name: str, value) -> None:
    if not (_is_real(value) and 0 < value <= LARGEST_LENGTH):
        raise ValueError(f"{name} must be positive and finite, at most {LARGEST_LENGTH:.4g} m, got {value!r}")


def _check_scenario(d0, seed, sigma_r, sigma_o, **walk_levels) -> None:
    """The checks a Monte-Carlo cell and a drift run share: d0 (m) a
    scenario length (`_check_length`), the seed an integer that a 64-bit
    key holds, the noise levels sigma_r and sigma_o (m) nonnegative and at
    most LARGEST_NOISE, and each walk level nonnegative and finite."""
    _check_length("d0", d0)
    if not (_is_int(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    for name, value in (("sigma_r", sigma_r), ("sigma_o", sigma_o)):
        if not (_is_real(value) and 0 <= value <= LARGEST_NOISE):
            raise ValueError(f"{name} must be nonnegative and finite, at most {LARGEST_NOISE:.4g} m, got {value!r}")
    for name, value in walk_levels.items():
        if not (_is_real(value) and 0 <= value < math.inf):
            raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class DriftConfig:
    """A drift run's whole config (`drift_scenario`).

    The truth starts at ||t|| = d0 (m) and random-walks: sigma_t (m) and
    sigma_theta (rad) are per-sqrt-second intensities on the translation
    axes and the heading. Ranges carry Gaussian noise sigma_r (m) and the
    odometry positions sigma_o (m) per axis, each at most LARGEST_NOISE,
    and d0 is at most LARGEST_LENGTH; `seed`, an integer in
    [0, 2**64), keys the run's generator. The stream has `n_samples`,
    round(duration * rate), samples: at least one window of `window` >= 10
    samples. A window starts every `stride` >= 1 samples, or every
    `window` when stride is None.
    """

    d0: float = 15.0
    sigma_r: float = 0.1
    sigma_o: float = 0.001
    seed: int = 0
    sigma_t: float = 0.1
    sigma_theta: float = 0.1
    duration: float = 600.0
    window: int = 50
    rate: float = 25.0
    stride: Optional[int] = None

    def __post_init__(self):
        _check_scenario(self.d0, self.seed, self.sigma_r, self.sigma_o, sigma_t=self.sigma_t, sigma_theta=self.sigma_theta)
        if not _is_int(self.window) or self.window < 10:
            raise ValueError(f"window must be an integer >= 10, got {self.window!r}")
        if self.stride is not None and (not _is_int(self.stride) or self.stride < 1):
            raise ValueError(f"stride must be null or an integer >= 1, got {self.stride!r}")
        rate, duration = self.rate, self.duration
        if not (isinstance(rate, numbers.Real) and isinstance(duration, numbers.Real) and rate > 0 and duration > 0
                and math.isfinite(rate * duration)):
            raise ValueError(f"rate and duration must be positive and finite, got {rate!r} and {duration!r}")
        if self.n_samples < self.window:
            raise ValueError(f"duration * rate gives {self.n_samples} samples, fewer than one window of {self.window}")

    @property
    def n_samples(self) -> int:
        """The stream's sample count, round(duration * rate)."""
        return round(self.duration * self.rate)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """A Monte-Carlo cell (`monte_carlo_run`): `trials` >= 1 truths with
    ||t|| = d0 (m), drawn from the substreams of `seed`, an integer in
    [0, 2**64), each with two walks of n_poses >= 1 samples, one a second,
    inside a ball of radius D (m), antennas at `lever_arms` (host,
    target), range noise sigma_r (m) and odometry noise sigma_o (m) per
    axis. d0 and D are at most LARGEST_LENGTH, the noise levels at most
    LARGEST_NOISE and each lever-arm component at most LARGEST_LEVER_ARM in
    magnitude: what synthesis represents."""

    d0: float = 3.0
    D: float = 1.0
    n_poses: int = 20
    sigma_r: float = 0.1
    sigma_o: float = 0.001
    trials: int = 100
    seed: int = 0
    lever_arms: tuple = (LeverArm(), LeverArm())

    def __post_init__(self):
        _check_scenario(self.d0, self.seed, self.sigma_r, self.sigma_o)
        _check_length("D", self.D)
        for i, arm in enumerate(self.lever_arms):
            if not np.abs(arm.r).max() <= LARGEST_LEVER_ARM:
                raise ValueError(f"lever_arms[{i}] must be at most {LARGEST_LEVER_ARM:.4g} m per component, got {arm.r}")
        for name in ("trials", "n_poses"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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


def _heading(rng: np.random.Generator) -> float:
    """A uniform heading in [-pi, pi): the value rng.uniform(-pi, pi) draws,
    for the same draw, without its argument handling."""
    return -math.pi + TWO_PI * rng.random()


def _direction(rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """A standard normal 3-vector and its norm, redrawn while the norm is below 1e-12."""
    v = rng.standard_normal(3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
    return v, n


def _truth(d0: float, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """The one truth draw, (t, theta): t = d0 v / ||v|| in a uniform
    direction (`_direction`), then a uniform heading theta in [-pi, pi)
    (`_heading`), not yet wrapped. `sample_ground_truth` makes it a
    `Transform4DoF`, and `trial_data` stacks the draws of its trials."""
    v, n = _direction(rng)
    return d0 * v / n, _heading(rng)


def sample_ground_truth(d0: float, rng: np.random.Generator) -> Transform4DoF:
    """Truth transform: ||t|| = d0 with uniform direction, uniform heading."""
    if not d0 > 0:
        raise ValueError("d0 must be positive")
    t, theta = _truth(d0, rng)
    return Transform4DoF(t=t, theta=theta)


def generate_trajectory(D: float, n_poses: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Bounded random walk inside the ball of radius D > 0 around the origin.

    Gaussian steps of STEP_SCALE * D per axis, reflected at the ball
    boundary, random headings.
    Returns positions, shape (n_poses, 3), and headings, shape (n_poses,);
    sample i is taken at i seconds. D -> 0 degenerates to a
    parked agent. The draws stay scalar and in the order heading, step,
    then a reflection fraction only when one is needed, so a seed gives
    the same walk whatever the batch size. The heading is drawn as
    -pi + 2 pi rng.random() and the fraction as rng.random(): the values
    rng.uniform(-pi, pi) and rng.uniform(0, 1) give for the same draws.
    """
    if not D > 0:
        raise ValueError("D must be positive")
    if n_poses < 1:
        raise ValueError("n_poses must be >= 1")
    # the walk runs on Python floats, whose arithmetic rounds as numpy's
    # elementwise arithmetic does. r is np.linalg.norm's own computation
    # for a vector, the square root of a BLAS dot, which sums in its own
    # order: math.sqrt(x * x + y * y + z * z) would change most walks in
    # their last bits. Only a reflection reads r, and a position whose
    # x * x + y * y + z * z is below D^2 (1 - 1e-12) lies inside the ball
    # whatever the order of the sum. Outside 1e-140 < D < 1e140 the squares
    # may be subnormal or overflow, so r is then taken at every step
    scale = STEP_SCALE * D
    inside = D * D * (1.0 - 1e-12) if 1e-140 < D < 1e140 else 0.0
    x = y = z = 0.0
    positions, yaws = [], []
    for _ in range(n_poses):
        positions.append((x, y, z))
        yaws.append(_heading(rng))
        dx, dy, dz = rng.standard_normal(3).tolist()
        x, y, z = x + dx * scale, y + dy * scale, z + dz * scale
        if x * x + y * y + z * z < inside:
            continue
        p = np.array((x, y, z))
        r = math.sqrt(p.dot(p))
        if r > D:  # reflect back inside
            if r < 2.0 * D:
                k = 2.0 * D - r
                x, y, z = x * k / r, y * k / r, z * k / r
            else:
                f, u = D / r, rng.random()
                x, y, z = x * f * u, y * f * u, z * f * u
    return np.array(positions), np.array(yaws)


def synthesize_measurements(
    T_true: tuple[np.ndarray, np.ndarray],
    traj_a: tuple[np.ndarray, np.ndarray],
    traj_b: tuple[np.ndarray, np.ndarray],
    cfg: ScenarioConfig,
    rngs: Sequence[np.random.Generator],
) -> SyncedStack:
    """Noisy fit problems of W trials from their ground-truth trajectories.

    T_true is the pair (t (W, 3), theta (W,)) of the W truths, each
    trajectory is (positions (W, n, 3), headings (W, n)), sample i taken
    at i seconds, and rngs holds one generator per trial. The true
    antenna positions and ranges of all trials are computed once on
    (W, n, 3) arrays, then made noisy by the measurement step (`_measure`).
    """
    t, theta = T_true
    n = min(traj_a[1].shape[1], traj_b[1].shape[1])
    positions, yaws = (np.stack((a[:, :n], b[:, :n])) for a, b in zip(traj_a, traj_b))
    # the heading-only attitudes (0, 0, sin(yaw / 2), cos(yaw / 2)) of both agents
    q = np.zeros(yaws.shape + (4,))
    q[..., 2], q[..., 3] = np.sin(0.5 * yaws), np.cos(0.5 * yaws)
    pa, pb = map(antenna_positions, positions, q, [arm.r for arm in cfg.lever_arms])
    R = yaw_matrices(*heading_cos_sin(theta))
    return _measure(np.linalg.norm(t[:, None, :] + pb @ R.swapaxes(-1, -2) - pa, axis=-1), pa, pb, cfg, rngs)


def _measure(d, pa, pb, cfg: ScenarioConfig | DriftConfig, rngs: Sequence[np.random.Generator]) -> SyncedStack:
    """The one measurement step of every simulated stream, a cell's or a
    drift run's: W problems of true ranges d (W, n) between true antenna
    positions pa and pb (W, n, 3) as a noisy `SyncedStack`. Generator i of
    rngs draws problem i's range noise, cfg.sigma_r (m) per range, then
    its odometry noise, cfg.sigma_o (m) per axis, host before target; a
    zero level draws nothing. The ranges are floored at 1e-9 m and sigma_r
    at SIGMA_R_FLOOR. The first range is d0 only where both first true
    antennas sit at their frame origins (`at_frame_origins`), which must
    hold in every problem or in none. Problem i comes out as it would in
    a stack of one, bit for bit.
    """
    n = d.shape[1]
    d_meas = d + cfg.sigma_r * np.array([g.standard_normal(n) for g in rngs]) if cfg.sigma_r > 0 else d
    np.maximum(d_meas, 1e-9, out=d_meas)
    pa_meas, pb_meas = pa, pb
    if cfg.sigma_o > 0:
        noise = [(g.standard_normal((n, 3)), g.standard_normal((n, 3))) for g in rngs]
        pa_meas = pa + cfg.sigma_o * np.array([a for a, _ in noise])
        pb_meas = pb + cfg.sigma_o * np.array([b for _, b in noise])
    at_origins = at_frame_origins(pa[:, 0], pb[:, 0])
    if at_origins.any() and not at_origins.all():
        raise ValueError("the first antenna positions sit at their frame origins in some trials only")
    d0 = d_meas[:, 0] if at_origins.all() else None
    return SyncedStack(d=d_meas, pa=pa_meas, pb=pb_meas, sigma_r=max(cfg.sigma_r, SIGMA_R_FLOOR), d0=d0)


def trial_dataset(cell: SyncedStack, i: int, dt: float = 1.0) -> SyncedDataset:
    """Trial i of a simulated stack as a dataset, sample j taken at j dt
    seconds. A simulated d0 is the first range, so the dataset's `stack()`
    has the trial's rows."""
    d0 = None if cell.d0 is None else float(cell.d0[i])
    t = np.arange(cell.d.shape[1]) * dt
    return SyncedDataset(t=t, d=cell.d[i], pa=cell.pa[i], pb=cell.pb[i], sigma_r=cell.sigma_r, d0=d0)


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
    # a stack of one trial: a leading axis of 1 on every array
    trajs = [(p[None], yaw[None]) for p, yaw in (traj_a, traj_b)]
    return T, trial_dataset(synthesize_measurements((T.t[None], np.array([T.theta])), *trajs, cfg, [rng]), 0)


def trial_data(cfg: ScenarioConfig, trials: int | Sequence[int]) -> tuple:
    """Ground truth and synthesized dataset of one trial (reproducible).

    A trial index gives (Transform4DoF, SyncedDataset). A sequence of W
    indices, such as range(cfg.trials), gives the trials as arrays: the
    truths as the pair (t (W, 3), theta (W,)) and the datasets as one
    `SyncedStack`. Each trial draws from its own substream (`trial_rng`),
    in this order: the truth (`_truth`), the host's walk, the target's
    walk, then the range noise and the odometry noise. The one loop over
    the trials draws the truths and runs the walks (`generate_trajectory`);
    `synthesize_measurements` then computes the antenna geometry and the
    ranges once on (W, n, 3) arrays and draws each trial's noise from its
    generator. `trial_data(cfg, i)` is row 0 of `trial_data(cfg,
    range(i, i + 1))`, and every row of a stack is, bit for bit, that
    trial on its own; `trial_dataset` makes row i a dataset.
    """
    if isinstance(trials, numbers.Integral):
        (t, theta), cell = trial_data(cfg, range(trials, trials + 1))
        # theta is already wrapped, and wrapping a wrapped heading leaves its bits
        return Transform4DoF(t=t[0], theta=theta[0]), trial_dataset(cell, 0)
    rngs = [trial_rng(cfg.seed, i) for i in trials]
    truths, walk_a, walk_b = [], [], []
    for rng in rngs:
        truths.append(_truth(cfg.d0, rng))
        for walks in (walk_a, walk_b):
            walks.append(generate_trajectory(cfg.D, cfg.n_poses, rng))
    t, headings = map(np.array, zip(*truths))
    theta = wrap_angle(headings)
    traj_a, traj_b = (tuple(map(np.stack, zip(*w))) for w in (walk_a, walk_b))
    return (t, theta), synthesize_measurements((t, theta), traj_a, traj_b, cfg, rngs)


def _failure(trial: int, exc: Exception) -> str:
    return f"trial {trial}: {type(exc).__name__}: {exc}"


def monte_carlo_run(cfg: ScenarioConfig, estimator: str = "qcqp") -> ErrorStats:
    """Repeated-trial evaluation of one estimator on one scenario cell.

    Each trial draws a fresh truth, trajectories and noise from its own
    substream. Failed trials are recorded, not dropped, as "trial i:
    Type: message"; aggregates are over the successful ones. The bounds
    are the CRLB at each trial's truth.

    The cell is one array pipeline, the same for every estimator:
    `trial_data` on every trial gives the truths and a `SyncedStack`,
    `fim` on them gives every bound as arrays from one stacked FIM, the
    estimator's `ESTIMATORS` entry on the stack gives its point stage (the
    (trials, 4) estimate array, NaN rows for the failed trials, with no FIM
    at the estimates), and the errors are taken on those arrays. Each
    trial's estimate and error are those of its estimator run on it alone,
    bit for bit (`nls` from zero), and solve_ms is the entry's wall_ms, the
    point stage's time per trial.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    (t, theta), cell = trial_data(cfg, range(cfg.trials))
    bounds = fim(t, theta, cell.pa, cell.pb, cell.sigma_r)
    estimates, scalars, errors = ESTIMATORS[estimator](cell)
    dt = estimates[:, :3] - t
    table = np.empty((cfg.trials, 5))
    # a failed trial's estimate is NaN, and so are its errors
    table[:, 0] = np.sqrt((dt[:, None, :] @ dt[:, :, None])[:, 0, 0])  # np.linalg.norm's BLAS dot, row by row
    table[:, 1] = np.abs(wrap_angle(estimates[:, 3] - theta))
    # NaN bounds where the information matrix is singular
    table[:, 2], table[:, 3] = bounds.crlb_t, bounds.crlb_theta
    table[:, 4] = scalars["wall_ms"]
    return ErrorStats(table, failures=[_failure(i, errors[i]) for i in sorted(errors)])


@dataclass
class DriftResult:
    """Sliding-window drift correction versus the uncorrected odometry."""

    nc_rmse: float
    corrected_rmse: float
    windows: WindowTrack


def _drift_truth_series(cfg: DriftConfig, n: int, dt: float, rng) -> tuple[Transform4DoF, np.ndarray, np.ndarray]:
    """Initial transform plus its random-walk perturbation over time.

    Returns T0, the translations, shape (n, 3), and the headings, shape
    (n,). Row i of the noise drives step i: three translation draws, then
    one heading draw. Each walk is one cumulative sum, which adds in
    sequence as a loop of float additions does; the headings are wrapped
    into [-pi, pi) once, after the sum.
    """
    T0 = sample_ground_truth(cfg.d0, rng)
    noise = rng.standard_normal((n, 4))
    sig_t = cfg.sigma_t * math.sqrt(dt)
    sig_th = cfg.sigma_theta * math.sqrt(dt)
    t = np.cumsum(np.vstack([T0.t, sig_t * noise[:-1, :3]]), axis=0)[:n]
    theta = np.cumsum(np.append(T0.theta, sig_th * noise[:-1, 3]))
    return T0, t, wrap_angle(theta)


def _sinuous(t, amplitudes, freqs, phases):
    return np.column_stack(
        [a * np.sin(2.0 * math.pi * f * t + p) for a, f, p in zip(amplitudes, freqs, phases)]
    )


def drift_scenario(cfg: DriftConfig, estimator: str = "qcqp") -> DriftResult:
    """Long-duration run with a drifting true transform, all of it set by
    `cfg`.

    The host holds accurate localization and flies a sinuous 3D pattern;
    the target scans a larger area while its odometry registration
    random-walks away from the world frame. A sliding-window estimator
    re-aligns the target trajectory; the no-correction baseline keeps the
    initial registration for the whole run. Samples before the first
    estimated window have no corrected position, and both RMSEs are taken
    over the samples that have one. The stream's noise is drawn after the
    truth series, in the measurement step (`_measure`); the host starts
    at (0, 5 sin 1.3, 4 sin 2.1), off its origin, so it has no d0.
    """
    rng = trial_rng(cfg.seed, 0)
    dt = 1.0 / cfg.rate
    n = cfg.n_samples
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
        freqs=(2.5 / cfg.duration, 4.0 / cfg.duration, 0.05),
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
    stream = trial_dataset(_measure(d[None], host[None], pb_true[None], cfg, [rng]), 0, dt)

    windows = sliding_window_estimate(stream, window=cfg.window, stride=cfg.stride, estimator=estimator)
    aligned = align_target_trajectory(stream, windows)

    nc = apply_transform(T0, stream.pb)
    nc_err = np.linalg.norm(nc - target_world, axis=1)
    corr_err = np.linalg.norm(aligned - target_world, axis=1)

    # Compare over samples where a window estimate exists.
    valid = np.isfinite(corr_err)
    nc_rmse = float(np.sqrt(np.mean(nc_err[valid] ** 2))) if valid.any() else math.nan
    corr_rmse = float(np.sqrt(np.mean(corr_err[valid] ** 2))) if valid.any() else math.nan
    return DriftResult(nc_rmse=nc_rmse, corrected_rmse=corr_rmse, windows=windows)
