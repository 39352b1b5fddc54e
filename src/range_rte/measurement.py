"""Range measurement model, log synchronization and sanity checks.

Logs are numpy structured arrays, one row per sample:

- odometry (`ODOMETRY_DTYPE`): t (s), p (3,) position in the agent's
  local frame (m), q (4,) unit quaternion (x, y, z, w) of the body in
  that frame; timestamps strictly increasing;
- ranges (`RANGE_DTYPE`): t (s) and d (m), the measured distance;
  timestamps strictly increasing.

`log["p"]` is then an (n, 3) array, and `len(log)` the number of rows.
`odometry_log` and `range_log` build and check them.

`ingest_logs` turns two odometry logs and a range log into the synced
dataset: one read-only array per field (timestamps, ranges and both
antenna positions), one row per range. Each range covered by both
odometry logs gets each agent's pose at its timestamp: the logged pose
itself on a coinciding stamp, otherwise the position interpolated
linearly and the attitude spherically between the two bracketing poses;
the lever arm is then rotated into the local frame. Uncovered ranges are
dropped, never extrapolated. `SyncedStack`, the one fit-problem form
that the estimators and the Fisher information read, holds W problems as
arrays with a leading axis of W: a dataset's own (`SyncedDataset.stack`),
a stream's windows (`SyncedDataset.windows`) or a Monte-Carlo cell
(`simulation.synthesize_measurements`). A dataset is a log's synced
rows: the outlier gate keeps some of them (`SyncedDataset.select`), and
it is fitted only through its stack.

Also here: the squared-distance debiasing used by the weighted
least-squares pipeline and the odometry-bounded range-rate gate that
rejects UWB outliers. Nothing here judges whether the motion pins the
transform down: that is the Fisher information's job, at the estimate
(the flags of `fisher.fim_arrays`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import LeverArm, Transform4DoF, interpolate_quats, quat_to_matrix

# Floor keeps noiseless (sigma_r = 0) synthetic data usable: weights and
# information matrices need a strictly positive range variance.
SIGMA_R_FLOOR = 1e-9

# Slack of the range-rate gate in units of the range-difference noise
# sqrt(2) sigma_r: a clean pair breaks the bound with probability ~6e-7.
RANGE_RATE_GATE_SIGMAS = 5.0

ODOMETRY_DTYPE = np.dtype([("t", float), ("p", float, (3,)), ("q", float, (4,))])
RANGE_DTYPE = np.dtype([("t", float), ("d", float)])


class NoOverlapError(ValueError):
    """No range measurement is covered by both odometry streams."""


# the largest double d whose 4 d^2 is finite; 4 d^2 of the next one overflows
_LARGEST_RANGE = math.sqrt(np.finfo(float).max / 4.0)


def _valid_range(x) -> np.ndarray:
    """Mask of the entries of x that are positive with a finite 4 x^2.

    The fit reads squared ranges, and `debias_squared` weights each by
    the inverse of a variance with the term 4 d^2. So a range whose square,
    or four times it, overflows (d above _LARGEST_RANGE, ~6.7e153 m) is
    rejected with the non-finite ones: its weight would silently be 0.
    4 d^2 rounds monotonically in d, so one comparison decides.
    """
    x = np.asarray(x, dtype=float)
    return (x > 0) & (x <= _LARGEST_RANGE)


def _first_bad_row(checks) -> Optional[tuple[int, str]]:
    """(row, message) of the first row that fails one of the (mask,
    message) checks, the earlier check first on a tie; None if none fails."""
    found = None
    for bad, message in checks:
        rows = np.flatnonzero(bad)
        if rows.size and (found is None or rows[0] < found[0]):
            found = (int(rows[0]), message)
    return found


def odometry_problem(log) -> Optional[tuple[int, str]]:
    """First row of an odometry log that breaks its contract, as (row,
    message), or None. Every value must be finite, every quaternion of
    unit norm within 1e-9, and the timestamps strictly
    increasing (the row that is not later than its predecessor is named)."""
    t, p, q = log["t"], log["p"], log["q"]
    norm_error = np.abs(np.sqrt(np.einsum("ij,ij->i", q, q)) - 1.0)
    return _first_bad_row(
        (
            (~np.isfinite(t), "timestamp must be finite"),
            (~np.isfinite(p).all(axis=1), "position must be finite"),
            (~(norm_error <= 1e-9), "quaternion norm deviates from 1 by more than 1e-9"),
            (~(np.diff(t, prepend=-np.inf) > 0), "timestamps must be strictly increasing"),
        )
    )


def range_problem(log) -> Optional[tuple[int, str]]:
    """First row of a range log with a non-finite timestamp, a range that
    is not positive with a finite square or a timestamp not later than its
    predecessor's, as (row, message), or None."""
    t = log["t"]
    return _first_bad_row(
        (
            (~np.isfinite(t), "timestamp must be finite"),
            (~_valid_range(log["d"]), "measured range must be positive and finite, and so must its square"),
            (~(np.diff(t, prepend=-np.inf) > 0), "timestamps must be strictly increasing"),
        )
    )


def _checked_log(dtype: np.dtype, problem, **columns) -> np.ndarray:
    log = np.empty(np.shape(columns["t"]), dtype)
    for name, values in columns.items():
        log[name] = values
    found = problem(log)
    if found is not None:
        raise ValueError(f"row {found[0]}: {found[1]}")
    return log


def odometry_log(t, p, q=(0.0, 0.0, 0.0, 1.0)) -> np.ndarray:
    """Checked odometry log (`ODOMETRY_DTYPE`) from timestamps (n,),
    positions (n, 3) and quaternions (n, 4) or one quaternion for every
    row. Raises ValueError naming the first row `odometry_problem` finds."""
    return _checked_log(ODOMETRY_DTYPE, odometry_problem, t=t, p=p, q=q)


def range_log(t, d) -> np.ndarray:
    """Checked range log (`RANGE_DTYPE`) from timestamps and distances."""
    return _checked_log(RANGE_DTYPE, range_problem, t=t, d=d)


def _read_only_copy(x, name: str, row_shape: tuple = ()) -> np.ndarray:
    """Float copy of x with shape (k, *row_shape), locked against writes."""
    a = np.array(x, dtype=float, order="C")
    if a.shape == (0,):
        a = a.reshape((0, *row_shape))
    if a.ndim != 1 + len(row_shape) or a.shape[1:] != row_shape:
        raise ValueError(f"{name} must have shape {('k', *row_shape)}, got {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SyncedDataset:
    """Time-ordered synced ranges, stored as one array per field.

    Row i is one range: t[i] its timestamp (s), d[i] the measured
    distance (m), pa[i] the host antenna position in the host local frame
    and pb[i] the target antenna position in the target's own local
    frame. t and d have shape (k,), pa and pb shape (k, 3). The
    constructor validates the inputs once, copies them and stores them
    read-only.

    d0 is the (noisy) inter-origin distance ||t|| when available; it feeds
    the norm constraint of the lifted estimator and may be None. A range
    measures ||t|| only when both antennas sit at their frame origins.
    """

    t: np.ndarray
    d: np.ndarray
    pa: np.ndarray
    pb: np.ndarray
    sigma_r: float
    d0: Optional[float] = None

    def __post_init__(self):
        for name, row_shape in (("t", ()), ("d", ()), ("pa", (3,)), ("pb", (3,))):
            object.__setattr__(self, name, _read_only_copy(getattr(self, name), name, row_shape))
        if not len(self.t) == len(self.d) == len(self.pa) == len(self.pb):
            raise ValueError("t, d, pa and pb must have the same length")
        if not _valid_range(self.d).all():
            raise ValueError("ranges must be positive and finite, and so must their squares")
        if not (np.isfinite(self.pa).all() and np.isfinite(self.pb).all()):
            raise ValueError("antenna positions must be finite")
        if not np.isfinite(self.t).all():
            raise ValueError("sample timestamps must be finite")
        if (np.diff(self.t) <= 0).any():
            raise ValueError("sample timestamps must be strictly increasing")
        if not self.sigma_r > 0:
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")
        if self.d0 is not None and not _valid_range(self.d0):
            raise ValueError(f"d0 must be positive and finite, and so must its square, when present; got {self.d0}")

    def __len__(self) -> int:
        return len(self.t)

    def select(self, keep, keep_d0: bool = True) -> "SyncedDataset":
        """Dataset restricted to the rows where the boolean mask is True."""
        keep = np.asarray(keep, dtype=bool)
        return SyncedDataset(
            t=self.t[keep],
            d=self.d[keep],
            pa=self.pa[keep],
            pb=self.pb[keep],
            sigma_r=self.sigma_r,
            d0=self.d0 if keep_d0 else None,
        )

    def stack(self) -> "SyncedStack":
        """The dataset's fit problem, as a stack of one.

        Its rows are the dataset's ranges, plus a last row (0, 0, d0)
        between the two frame origins when d0 is known but is not the
        first range itself; d0 is the stack's norm-constraint value.
        """
        d, pa, pb = self.d, self.pa, self.pb
        if self.d0 is not None and self.d0 not in d[:1]:
            origin = np.zeros((1, 3))
            d, pa, pb = np.append(d, self.d0), np.vstack([pa, origin]), np.vstack([pb, origin])
        d0 = None if self.d0 is None else np.array([self.d0])
        return SyncedStack(d=d[None], pa=pa[None], pb=pb[None], sigma_r=self.sigma_r, d0=d0)

    def windows(self, starts, length: int) -> "SyncedStack":
        """The windows of rows a:a + length, for a in starts, as a stack
        without d0: a d0 measured at the start goes stale under drift."""
        rows = np.asarray(starts)[:, None] + np.arange(length)
        return SyncedStack(d=self.d[rows], pa=self.pa[rows], pb=self.pb[rows], sigma_r=self.sigma_r)


@dataclass(frozen=True, eq=False)
class SyncedStack:
    """W fit problems of k range rows each, as arrays with a leading axis
    of W: the one problem type that the estimators and the FIM read.

    Problem i has the ranges d[i] (shape (W, k) in all) and the antenna
    positions pa[i] and pb[i] ((W, k, 3)), and all share sigma_r. d0,
    (W,) or None, is each problem's norm-constraint value; any range row
    for it is already among the k rows, which `SyncedDataset.stack`,
    `SyncedDataset.windows` and `simulation.synthesize_measurements`
    decide. The arrays are kept as given, not copied; the constructor
    checks their shapes, that the ranges and d0 are positive with finite
    squares and the antenna positions finite.
    """

    d: np.ndarray
    pa: np.ndarray
    pb: np.ndarray
    sigma_r: float
    d0: Optional[np.ndarray] = None

    def __post_init__(self):
        W, k = self.d.shape[0], self.d.shape[-1]
        d0_shape = (W,) if self.d0 is None else self.d0.shape
        if self.d.ndim != 2 or self.pa.shape != (W, k, 3) or self.pb.shape != (W, k, 3) or d0_shape != (W,):
            raise ValueError(
                "need d (W, k), pa and pb (W, k, 3) and d0 (W,) or None; "
                f"got {self.d.shape}, {self.pa.shape}, {self.pb.shape} and {d0_shape}"
            )
        if not (_valid_range(self.d).all() and (self.d0 is None or _valid_range(self.d0).all())):
            raise ValueError("ranges and d0 must be positive and finite, and so must their squares")
        if not (np.isfinite(self.pa).all() and np.isfinite(self.pb).all()):
            raise ValueError("antenna positions must be finite")
        if not self.sigma_r > 0:
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")


@dataclass(frozen=True)
class SquaredStats:
    """Debiased squared distances and the diagonal of their covariance."""

    s: np.ndarray
    sigma_s_diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "sigma_s_diag", np.asarray(self.sigma_s_diag, dtype=float))
        if np.any(self.sigma_s_diag <= 0):
            raise ValueError("squared-distance variances must be strictly positive")


def at_frame_origins(pa, pb) -> bool:
    """True when both antennas sit exactly at their frame origins, the one
    configuration in which a range measures the inter-origin distance ||t||."""
    return not (np.any(pa) or np.any(pb))


def true_range(T: Transform4DoF, pa, pb):
    """Inter-antenna distance ||t + C(theta) pb - pa|| under transform T.

    Accepts single points (3,) or batches (N, 3); broadcasting follows numpy.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    w = T.t + pb @ T.rotation().T - pa
    return np.linalg.norm(w, axis=-1)


def poses_at(odom: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Positions (k, 3) and quaternions (k, 4) of an odometry log at times t.

    A time equal to a logged stamp takes that pose as it is. Any other
    time takes the bracketing poses a and b: the position is
    p_a + s (p_b - p_a) with s = (t - t_a) / (t_b - t_a), and the attitude
    the spherical-linear interpolation from q_a to q_b at s. Raises
    ValueError for a time outside the log's first and last stamp.
    """
    stamps = odom["t"]
    t = np.asarray(t, dtype=float)
    if not ((t >= stamps[0]) & (t <= stamps[-1])).all():
        raise ValueError(f"times outside the odometry interval [{stamps[0]}, {stamps[-1]}]")
    a = np.searchsorted(stamps, t, side="right") - 1
    p, q = odom["p"][a], odom["q"][a]
    between = np.flatnonzero(stamps[a] != t)
    a = a[between]
    s = (t[between] - stamps[a]) / (stamps[a + 1] - stamps[a])
    p[between] += s[:, None] * (odom["p"][a + 1] - p[between])
    q[between] = interpolate_quats(q[between], odom["q"][a + 1], s)
    return p, q


def ingest_logs(
    odom_a: np.ndarray,
    odom_b: np.ndarray,
    ranges: np.ndarray,
    arm_a: LeverArm = LeverArm(),
    arm_b: LeverArm = LeverArm(),
    sigma_r: float = 0.1,
    d0: Optional[float] = None,
) -> tuple[SyncedDataset, int]:
    """Synchronize a range log against both odometry logs.

    Each range inside the common odometry window gets both agents' poses
    at its timestamp (`poses_at`) and, from them, the antenna positions
    p + R(q) r with each agent's lever arm r. Ranges outside the window
    are dropped (no extrapolation). The logs must satisfy the contracts
    that `odometry_log` and `range_log` check.

    Without an explicit d0 (m), the first synced range becomes d0 only
    when both first antenna positions are exactly at their frame origins,
    the one case where a range measures ||t||; otherwise d0 stays unset
    and the first range is only a row of the range model.

    Returns (dataset, n_dropped). Raises NoOverlapError when no range
    falls inside the common odometry window.
    """
    if not len(odom_a) or not len(odom_b):
        raise NoOverlapError("empty odometry stream")
    lo = max(odom_a["t"][0], odom_b["t"][0])
    hi = min(odom_a["t"][-1], odom_b["t"][-1])
    covered = (ranges["t"] >= lo) & (ranges["t"] <= hi)
    if not covered.any():
        raise NoOverlapError("no range measurement inside the common odometry window")
    t, d = ranges["t"][covered], ranges["d"][covered]
    antennas = []
    for odom, arm in ((odom_a, arm_a), (odom_b, arm_b)):
        p, q = poses_at(odom, t)
        antennas.append(p + quat_to_matrix(q) @ arm.r)
    pa, pb = antennas
    if d0 is None and at_frame_origins(pa[0], pb[0]):
        d0 = float(d[0])
    dataset = SyncedDataset(t=t, d=d, pa=pa, pb=pb, sigma_r=max(sigma_r, SIGMA_R_FLOOR), d0=d0)
    return dataset, len(ranges) - len(t)


def debias_squared(dataset: SyncedDataset | SyncedStack) -> SquaredStats:
    """Debiased squared distances of a dataset's or a stack's ranges, with
    their (diagonal) covariance.

    The noise on d~^2 is nu = 2 d eta + eta^2 with mean sigma_r^2 and
    variance sigma_r^2 (4 d~^2 + 2 sigma_r^2); subtracting the mean gives
    an approximately Gaussian squared-distance error.
    """
    var_r, d = dataset.sigma_r**2, dataset.d
    s = d**2 - var_r
    sigma_s = var_r * (4.0 * d**2 + 2.0 * var_r)
    return SquaredStats(s=s, sigma_s_diag=sigma_s)


def range_rate_outliers(dataset: SyncedDataset) -> np.ndarray:
    """Boolean mask of ranges that break the odometry-bounded range rate.

    By the triangle inequality, for every transform (t, theta)
        |d_k - d_{k-1}| <= ||pa_k - pa_{k-1}|| + ||pb_k - pb_{k-1}||,
    so consecutive clean ranges may differ by no more than the odometry
    displacements plus RANGE_RATE_GATE_SIGMAS * sqrt(2) * sigma_r of range
    noise. The gate needs no estimate. A sample is an outlier when it
    breaks the bound with every neighbour it has; a sample without
    neighbours is kept. The gate keeps no state, so one rejection never
    causes the next. A run of consecutive spikes of equal size agrees with
    itself and passes.
    """
    n = len(dataset)
    outlier = np.zeros(n, dtype=bool)
    if n < 2:
        return outlier
    motion = np.linalg.norm(np.diff(dataset.pa, axis=0), axis=1) + np.linalg.norm(np.diff(dataset.pb, axis=0), axis=1)
    broken = np.abs(np.diff(dataset.d)) > motion + RANGE_RATE_GATE_SIGMAS * math.sqrt(2.0) * dataset.sigma_r
    outlier[0], outlier[-1] = broken[0], broken[-1]
    outlier[1:-1] = broken[:-1] & broken[1:]
    return outlier

