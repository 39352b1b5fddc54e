"""Information analysis of the range set: the range model, the FIM with
everything derived from it, and the determinant decomposition.

`range_model` is the one range model of the package: the ranges
d = ||t + C(theta) pb - pa|| of W problems and one Jacobian row
[u^T, phi] per range, u the unit vector along the inter-antenna line in
the host frame and phi the coupling of the range to the heading through
the target's horizontal displacement. The FIM, the determinant
expansion, the `nls` refinement and cell synthesis read it. A problem's
rows are those of its `measurement.SyncedStack`, the rows the estimators
fit; a dataset's those of its `SyncedDataset.stack()`: one per range,
plus one for a d0 that is not the first range itself, between the two
frame origins (u = t / ||t||, phi = 0).

The FIM is the noise-weighted Gram matrix of the rows. `fim_arrays`
derives every quantity of a stack of FIMs in one pass, as stacked
arrays (`FimArrays`): kappa, rank, CRLB, standard errors and the
singularity flags from one eigendecomposition each, and det from an LU
factorisation. It is the one FIM code path and `FimArrays` the one
information type. `fim` takes it at the W transforms of W problems,
given as arrays the way a `SyncedStack` holds them; one problem is a
stack of one. A Monte-Carlo cell reads its
bounds at the truths, a drift track its kappa and CRLB at the window
estimates, and a dataset's report row 0 of the stack of one, its
verdicts through `singularity_flags`. Every quantity that needs an
invertible F is NaN where F is not. The standard errors, the
per-parameter flags and `confidence_intervals` all read the same CRLB
diagonal. The determinant expands over all 4-subsets of rows into
products of parallelepiped volumes, which is what makes the degenerate
trajectory classes (parallel motion, coplanar lines, static agents)
visible in closed form; it is evaluated up to DET_SUBSET_CAP rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import heading_cos_sin, yaw_matrices
from .measurement import SyncedDataset

# kappa of the FIM at the estimate above which a configuration is
# singular. Measured with `qcqp` at sigma_o 1 mm: the four singular kinds
# of `simulation.singular_scenario` (5 per kind on each of 20 seeds) have
# kappa >= 6.06e5, regular cells (default; n 8; d0 20 and 50 m; D 0.3 m;
# sigma_r 0.5 m; sigma_o 1 cm; 300 trials each) kappa <= 7.25e4. 2e5 is
# the geometric middle of that gap. Over 20000 seeds the tails stay
# apart: static targets >= 4.75e5, the d0 50 m cell <= 1.67e5
DEFAULT_KAPPA_THRESHOLD = 2e5
# a parameter is flagged unobservable when its standard error exceeds
# this multiple of the median standard error
STD_CEILING = 10.0
# the CRLB exists when the smallest eigenvalue of F exceeds RCOND times
# the largest; rank counts the eigenvalues above that floor
RCOND = 1e-12
# the determinant expansion sums C(k, 4) terms, 91390 at 40 rows (~0.1 s);
# above this many rows it is not evaluated
DET_SUBSET_CAP = 40


class SingularGeometryError(ValueError):
    """Zero range: the Jacobian of the range function is undefined."""


class InsufficientDataError(ValueError):
    """Too few measurements: fewer rows than the determinant expansion
    needs, or, in the CLI's `estimate`, no range left after the outlier
    gate. The CLI's exit code 3."""


class ExpansionTooLargeError(ValueError):
    """More rows than DET_SUBSET_CAP: the determinant expansion is not evaluated."""


@dataclass
class SingularityFlags:
    """The verdicts of one row of a `FimArrays`, as Python scalars."""

    configuration_singular: bool
    per_param_unobservable: tuple
    kappa_threshold: float


def range_model(t, theta, pa, pb) -> tuple[np.ndarray, np.ndarray]:
    """The range model of W problems, the one of the package: the ranges
    d = ||t + C(theta) pb - pa|| (W, k) and their Jacobian rows (W, k, 4).

    t (W, 3) and theta (W,) are the transforms, pa and pb (W, k, 3) the
    antenna positions of each problem's ranges. Row [u^T, phi] of a range
    is its gradient in (t, theta): u = (t + C pb - pa) / d and
    phi = [uz x (C pb)] . u. A zero range has the zero row.
    """
    R = yaw_matrices(*heading_cos_sin(theta))
    rotated_b = pb @ R.swapaxes(-1, -2)
    w = t[:, None, :] + rotated_b - pa
    d = np.linalg.norm(w, axis=-1)
    U = w / np.where(d > 0.0, d, 1.0)[..., None]
    phi = -rotated_b[..., 1] * U[..., 0] + rotated_b[..., 0] * U[..., 1]  # [uz x (C pb)] . u
    return d, np.concatenate([U, phi[..., None]], axis=-1)


@dataclass
class FimArrays:
    """Every information quantity of a stack of W FIMs (n x n), as arrays:
    the one FIM result of the package, a single FIM being a stack of one.

    crlb (W, n, n), std_errors (W, n), crlb_t and crlb_theta (W,) are NaN
    where the FIM is not invertible at RCOND. singular is kappa above
    DEFAULT_KAPPA_THRESHOLD, and unobservable (W, n) the per-parameter
    flags.
    """

    F: np.ndarray
    crlb: np.ndarray
    crlb_t: np.ndarray
    crlb_theta: np.ndarray
    std_errors: np.ndarray
    det_f: np.ndarray
    kappa: np.ndarray
    rank: np.ndarray
    invertible: np.ndarray
    singular: np.ndarray
    unobservable: np.ndarray


def fim_arrays(F) -> FimArrays:
    """Every information quantity of a stack of FIMs: det from an LU
    factorisation (`np.linalg.det`), every other one from one
    eigendecomposition each.

    F (W, n, n) holds finite, symmetric positive semidefinite matrices: an
    entry that is not finite, an asymmetry above 1e-9 max(|F|, 1) over the
    stack or an eigenvalue below -1e-8 max(lam_max, 1) raises ValueError.
    Per FIM, from its eigenpairs (lam, Q): kappa, infinite unless the smallest eigenvalue is
    positive; the rank at RCOND; the CRLB Q diag(1/lam) Q', its
    translation trace and heading entry, and the standard errors, the
    roots of its diagonal, when the FIM is invertible at RCOND; and the
    flags. The configuration is singular when kappa exceeds
    DEFAULT_KAPPA_THRESHOLD. A parameter is flagged unobservable when its
    standard error exceeds STD_CEILING times their median, and every
    parameter is when the FIM is not invertible. The FIM that `fim` takes
    of a stack's rows at a translation within `measurement.LARGEST_RANGE`
    is finite, and so is its determinant: the stack bounds its lengths.

    The configuration flag is the only singularity test of the package.
    It holds while odometry noise is small against the motion: kappa of
    a singular configuration scales as 1 / sigma_o^2, because the noise
    itself fills in the missing direction. At sigma_o ~ 3 mm a third to
    a half of static targets fall below DEFAULT_KAPPA_THRESHOLD (21 and
    29 of 60 in two seed sets), and at 1 cm 26 to 60 of 60 instances of
    each singular kind do (60 seeds per kind). No absolute bound
    on the CRLB separates them there either: a static target at 1 cm
    has sqrt(CRLB_theta) >= 1.94 rad, while the regular cell D 0.3 m,
    sigma_r 0.5 m reaches 6.5 m and 6.3 rad.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 3 or F.shape[1] != F.shape[2]:
        raise ValueError(f"F must be a stack (W, n, n) of square matrices, got shape {F.shape}")
    if not np.isfinite(F).all():
        raise ValueError("FIM must be finite")
    if np.abs(F - F.swapaxes(-1, -2)).max(initial=0.0) > 1e-9 * max(1.0, np.abs(F).max(initial=0.0)):
        raise ValueError("FIM must be symmetric")
    F = 0.5 * (F + F.swapaxes(-1, -2))
    det_f = np.linalg.det(F)
    lam, Q = np.linalg.eigh(F)
    lam, Q = np.ascontiguousarray(lam[:, ::-1]), np.ascontiguousarray(Q[:, :, ::-1])
    lam_max = np.maximum(lam[:, 0], 0.0)
    if np.any(lam[:, -1] < -1e-8 * np.maximum(lam_max, 1.0)):
        raise ValueError("FIM must be positive semidefinite within tolerance")
    invertible = (lam_max > 0) & (lam[:, -1] > RCOND * lam_max)
    rank = np.where(lam_max > 0, np.sum(lam > RCOND * lam_max[:, None], axis=1), 0)
    # a subnormal smallest eigenvalue overflows kappa and 1 / lam: kappa is
    # then infinite, and the FIM is not invertible at RCOND
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = np.where(lam[:, -1] > 0, lam[:, 0] / lam[:, -1], math.inf)
        crlb = (Q * (1.0 / lam)[:, None, :]) @ Q.swapaxes(-1, -2)
        crlb = 0.5 * (crlb + crlb.swapaxes(-1, -2))
        std = np.sqrt(np.diagonal(crlb, axis1=1, axis2=2))
    std[~invertible] = 0.0  # no standard errors: every parameter is flagged
    # the median from two middle entries: np.median costs ~5x as much on rows this short
    ranked = np.sort(std, axis=1)
    median = 0.5 * (ranked[:, (F.shape[1] - 1) // 2] + ranked[:, F.shape[1] // 2])
    unobservable = (std > STD_CEILING * median[:, None]) | ~invertible[:, None]
    crlb[~invertible] = math.nan
    std[~invertible] = math.nan
    diag = np.diagonal(crlb, axis1=1, axis2=2)
    return FimArrays(
        F=F,
        crlb=crlb,
        crlb_t=(diag[:, 0] + diag[:, 1]) + diag[:, 2],  # np.trace's order, so its bits match
        crlb_theta=diag[:, 3].copy(),
        std_errors=std,
        det_f=det_f,
        kappa=kappa,
        rank=rank,
        invertible=invertible,
        singular=kappa > DEFAULT_KAPPA_THRESHOLD,
        unobservable=unobservable,
    )


def singularity_flags(info: FimArrays) -> SingularityFlags:
    """The verdicts of row 0 of `info`, the package's one singularity test."""
    return SingularityFlags(info.singular.tolist()[0], tuple(info.unobservable.tolist()[0]), DEFAULT_KAPPA_THRESHOLD)


def fim(t, theta, pa, pb, sigma_r: float) -> FimArrays:
    """Fisher information of W problems about their (t, theta), with CRLB.

    t (W, 3) and theta (W,) are the transforms, pa and pb (W, k, 3) the
    antenna positions of each problem's ranges, as a `SyncedStack` holds
    them. F = sigma_r^-2 J^T J, derived by `fim_arrays`; with the lengths
    and sigma_r of a `SyncedStack` and |t| within `measurement.LARGEST_RANGE`
    per component it is finite.
    """
    d, J = range_model(np.asarray(t, dtype=float), np.asarray(theta, dtype=float), pa, pb)
    if np.any(d <= 0.0):
        raise SingularGeometryError("zero range encountered in dataset")
    return fim_arrays((J.swapaxes(-1, -2) @ J) / sigma_r**2)


def det_fim_geometric(t, theta: float, dataset: SyncedDataset) -> float:
    """det(F) by expansion over all 4-subsets of the rows of
    `dataset.stack()`, at the transform of translation t (3,) and heading
    theta.

    Each subset contributes the squared signed combination of the
    heading terms with the triple-product volumes of the remaining three
    unit vectors. Agrees with det of the directly assembled FIM; the
    prefactor follows from F = sigma_r^-2 J^T J (sigma_r^-8 for the
    4-parameter problem).

    The expansion has C(k, 4) terms: above DET_SUBSET_CAP rows it raises
    ExpansionTooLargeError, and `FimArrays.det_f` is the determinant (an
    analysis tool, not an estimator path).
    """
    stack = dataset.stack()
    (d,), (J,) = range_model(np.asarray(t, dtype=float)[None], np.array([theta], dtype=float), stack.pa, stack.pb)
    if np.any(d <= 0.0):
        raise SingularGeometryError("zero range encountered in dataset")
    if len(J) < 4:
        raise InsufficientDataError(f"need at least 4 measurements, got {len(J)}")
    if len(J) > DET_SUBSET_CAP:
        raise ExpansionTooLargeError(f"{len(J)} rows: the expansion is evaluated up to {DET_SUBSET_CAP} rows")
    quads = np.array(list(combinations(range(len(J)), 4)))
    u1, u2, u3, u4 = (J[quads[:, i], :3] for i in range(4))
    f1, f2, f3, f4 = (J[quads[:, i], 3] for i in range(4))
    c12 = np.cross(u1, u2)
    c13 = np.cross(u1, u3)
    c23 = np.cross(u2, u3)
    t1 = np.einsum("ij,ij->i", c23, u4)
    t2 = np.einsum("ij,ij->i", c13, u4)
    t3 = np.einsum("ij,ij->i", c12, u4)
    t4 = np.einsum("ij,ij->i", c12, u3)
    terms = -f1 * t1 + f2 * t2 - f3 * t3 + f4 * t4
    return float(np.sum(terms**2)) / dataset.sigma_r**8


def confidence_intervals(estimates, info: FimArrays) -> np.ndarray:
    """95% confidence intervals of W estimates (W, 4) of (t_x, t_y, t_z,
    theta), shape (W, 4, 2).

    Centered on each estimate with half-width 1.96 times its standard
    errors in `info`, the `FimArrays` of the W problems: NaN rows where
    the FIM is not invertible at RCOND.
    """
    half = 1.96 * info.std_errors
    return np.stack([estimates - half, estimates + half], axis=-1)
