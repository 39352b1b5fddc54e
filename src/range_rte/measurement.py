"""Range measurement model, data synchronization and sanity filters.

Covers: the synced dataset (one read-only array per field: timestamps,
ranges and both antenna positions, one row per range), temporal
alignment of ranges against both odometry streams (with lever-arm
compensation), the squared-distance debiasing used by
the weighted least-squares pipeline, the UWB outlier filters (an
odometry-bounded range-rate gate and a sliding-window variance filter),
and the motion-excitation check run before estimation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import LeverArm, Pose, Transform4DoF, antenna_world_position, interpolate_pose

# Floor keeps noiseless (sigma_r = 0) synthetic data usable: weights and
# information matrices need a strictly positive range variance.
SIGMA_R_FLOOR = 1e-9

# Slack of the range-rate gate in units of the range-difference noise
# sqrt(2) sigma_r: a clean pair breaks the bound with probability ~6e-7.
RANGE_RATE_GATE_SIGMAS = 5.0


class NoOverlapError(ValueError):
    """No range measurement is covered by both odometry streams."""


@dataclass(frozen=True)
class RangeSample:
    """One UWB range measurement: timestamp (s) and measured distance (m)."""

    t: float
    d: float

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ValueError(f"range timestamp must be finite, got {self.t}")
        if not self.d > 0:
            raise ValueError(f"measured range must be positive, got {self.d}")


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
        if not (self.d > 0).all():
            raise ValueError("ranges must be positive")
        if not (np.isfinite(self.pa).all() and np.isfinite(self.pb).all()):
            raise ValueError("antenna positions must be finite")
        if not np.isfinite(self.t).all():
            raise ValueError("sample timestamps must be finite")
        if (np.diff(self.t) <= 0).any():
            raise ValueError("sample timestamps must be strictly increasing")
        if not self.sigma_r > 0:
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")
        if self.d0 is not None and not self.d0 > 0:
            raise ValueError(f"d0 must be positive when present, got {self.d0}")

    def __len__(self) -> int:
        return len(self.t)

    def _rows(self, index, keep_d0: bool) -> "SyncedDataset":
        return SyncedDataset(
            t=self.t[index],
            d=self.d[index],
            pa=self.pa[index],
            pb=self.pb[index],
            sigma_r=self.sigma_r,
            d0=self.d0 if keep_d0 else None,
        )

    def window(self, start: int, stop: int, keep_d0: bool = False) -> "SyncedDataset":
        """Dataset restricted to rows start:stop."""
        return self._rows(slice(start, stop), keep_d0)

    def select(self, keep, keep_d0: bool = True) -> "SyncedDataset":
        """Dataset restricted to the rows where the boolean mask is True."""
        return self._rows(np.asarray(keep, dtype=bool), keep_d0)


def d0_is_extra_range(dataset: SyncedDataset) -> bool:
    """True when d0 is known but is not the first range itself: the fit
    and the information matrix then take it as one more range, between
    the two frame origins."""
    return dataset.d0 is not None and dataset.d0 != dataset.d[0]


def range_rows(dataset: SyncedDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pa, pb, d) of every range the fit and the FIM use: the dataset's
    rows, plus a last row (0, 0, d0) between the frame origins when
    `d0_is_extra_range`."""
    if not d0_is_extra_range(dataset):
        return dataset.pa, dataset.pb, dataset.d
    origin = np.zeros((1, 3))
    return np.vstack([dataset.pa, origin]), np.vstack([dataset.pb, origin]), np.append(dataset.d, dataset.d0)


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


def ingest_logs(
    odom_a: Sequence[Pose],
    odom_b: Sequence[Pose],
    ranges: Iterable[RangeSample],
    arm_a: LeverArm = LeverArm(),
    arm_b: LeverArm = LeverArm(),
    sigma_r: float = 0.1,
    d0: Optional[float] = None,
    use_first_range_as_d0: bool = True,
) -> tuple[SyncedDataset, int]:
    """Synchronize range measurements against both odometry streams.

    Each surviving range gets the interpolated, lever-arm-compensated
    antenna positions of both agents at its timestamp. Ranges not
    bracketed by odometry on BOTH sides are dropped (no extrapolation).

    With use_first_range_as_d0 and no explicit d0, the first synced range
    becomes d0 only when both first antenna positions are exactly at their
    frame origins, the one case where a range measures ||t||; otherwise d0
    stays unset and the first range is only a row of the range model.

    Returns (dataset, n_dropped). Raises NoOverlapError when no range
    falls inside the common odometry window.
    """
    odom_a = list(odom_a)
    odom_b = list(odom_b)
    if not odom_a or not odom_b:
        raise NoOverlapError("empty odometry stream")
    ta = np.array([p.t for p in odom_a])
    tb = np.array([p.t for p in odom_b])
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])

    def interp(stream, times, t):
        j = int(np.searchsorted(times, t, side="right"))
        if j == 0:
            return stream[0] if times[0] == t else None
        if j == len(times):
            return stream[-1] if times[-1] == t else None
        if times[j - 1] == t:
            return stream[j - 1]
        return interpolate_pose(stream[j - 1], stream[j], t)

    t, d, pa, pb = [], [], [], []
    dropped = 0
    for r in ranges:
        if r.t < lo or r.t > hi:
            dropped += 1
            continue
        pose_a = interp(odom_a, ta, r.t)
        pose_b = interp(odom_b, tb, r.t)
        if pose_a is None or pose_b is None:
            dropped += 1
            continue
        t.append(r.t)
        d.append(r.d)
        pa.append(antenna_world_position(pose_a, arm_a))
        pb.append(antenna_world_position(pose_b, arm_b))
    if not t:
        raise NoOverlapError("no range measurement inside the common odometry window")
    if d0 is None and use_first_range_as_d0 and at_frame_origins(pa[0], pb[0]):
        d0 = d[0]
    return SyncedDataset(t=t, d=d, pa=pa, pb=pb, sigma_r=max(sigma_r, SIGMA_R_FLOOR), d0=d0), dropped


def debias_squared(dataset: SyncedDataset) -> SquaredStats:
    """Debiased squared distances of a dataset's ranges (`debias_ranges`)."""
    return debias_ranges(dataset.d, dataset.sigma_r)


def debias_ranges(d, sigma_r: float) -> SquaredStats:
    """Debiased squared distances with their (diagonal) covariance.

    The noise on d~^2 is nu = 2 d eta + eta^2 with mean sigma_r^2 and
    variance sigma_r^2 (4 d~^2 + 2 sigma_r^2); subtracting the mean gives
    an approximately Gaussian squared-distance error.
    """
    var_r = sigma_r**2
    d = np.asarray(d, dtype=float)
    s = d**2 - var_r
    sigma_s = var_r * (4.0 * d**2 + 2.0 * var_r)
    return SquaredStats(s=s, sigma_s_diag=sigma_s)


def squared_covariance(d_tilde, sigma_r_matrix) -> np.ndarray:
    """Full covariance of the squared-distance noise for a general range
    covariance: (Sigma_s)_{ij} = (Sigma_r)_{ij} [4 d~_i d~_j + 2 (Sigma_r)_{ij}].

    Only needed when range noise is correlated; the i.i.d. pipeline uses
    debias_squared's diagonal.
    """
    d = np.asarray(d_tilde, dtype=float)
    Sr = np.asarray(sigma_r_matrix, dtype=float)
    return Sr * (4.0 * np.outer(d, d) + 2.0 * Sr)


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


def sliding_outlier_filter(
    ranges: Iterable[RangeSample],
    window: int = 20,
    threshold: float = 0.005,
    mode: str = "absolute",
) -> list[RangeSample]:
    """Reject range samples that inflate the sliding-window variance.

    This is the "absolute" and "increase" outlier_mode of the estimate
    command; `window` and `threshold` (the config keys outlier_window and
    outlier_threshold_m2) apply to these two modes only. The variance of
    raw ranges also grows with motion, and the window advances only on
    accepted samples, so on moving agents one rejection tends to be
    followed by many; the default mode is the range-rate gate
    (`range_rate_outliers`).

    A candidate is evaluated against the window of the latest `window`
    accepted samples (candidate included); it is discarded when the
    population variance exceeds `threshold` (m^2). The first `window`
    samples are always accepted so the filter can warm up.

    mode "increase" discards only when the variance *increase* over the
    previous window exceeds the threshold (alternative reading of the
    trigger; default is the absolute test).
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if mode not in ("absolute", "increase"):
        raise ValueError(f"unknown mode {mode!r}")
    buf: deque[float] = deque(maxlen=window)
    out = []
    prev_var = 0.0
    for r in ranges:
        if len(buf) < window:
            buf.append(r.d)
            out.append(r)
            prev_var = float(np.var(buf))
            continue
        cand = np.array(list(buf)[1:] + [r.d])
        var = float(np.var(cand))
        trigger = var - prev_var if mode == "increase" else var
        if trigger > threshold:
            continue
        buf.append(r.d)
        out.append(r)
        prev_var = var
    return out


def motion_excitation_check(
    recent_positions_a,
    recent_positions_b,
    var_threshold: float = 0.05,
    n: int = 100,
) -> bool | np.ndarray:
    """True when both agents show per-axis position variance above threshold.

    Uses the last `n` positions of each agent. Guards against singular
    configurations from insufficient motion (static agent, hovering,
    single-axis motion) before any estimation is attempted. Positions of
    shape (..., N, 3) stack windows; the result is then a boolean array
    over the leading axes.
    """
    excited = True
    for positions in (recent_positions_a, recent_positions_b):
        arr = np.asarray(positions, dtype=float)
        if arr.ndim < 2 or arr.shape[-1] != 3 or arr.shape[-2] == 0:
            raise ValueError("positions must be a non-empty (N, 3) array")
        excited = excited & ~np.any(np.var(arr[..., -n:, :], axis=-2) <= var_threshold, axis=-1)
    return excited if arr.ndim > 2 else bool(excited)
