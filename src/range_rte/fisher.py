"""Information analysis of the range set: Jacobians, FIM, CRLB, determinant
decomposition and singular-configuration detection.

Each range contributes one Jacobian row [u^T, Phi]: u is the unit vector
along the inter-antenna line in the host frame and Phi couples the range
to the heading through the target's horizontal displacement. The FIM is
the noise-weighted Gram matrix of those rows; its determinant expands
over all 4-subsets of measurements into products of parallelepiped
volumes, which is what makes the degenerate trajectory classes (parallel
motion, coplanar lines, static agents) visible in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .geometry import Transform4DoF, yaw_matrices
from .measurement import SyncedDataset, range_rows
from .solvers import eig_sym

UZ = np.array([0.0, 0.0, 1.0])

# kappa of the FIM at the estimate above which a configuration is
# singular. Measured with `qcqp` at sigma_o 1 mm: the four singular kinds
# of `simulation.singular_scenario` (5 per kind on each of 20 seeds) have
# kappa >= 6.06e5, regular cells (default; n 8; d0 20 and 50 m; D 0.3 m;
# sigma_r 0.5 m; sigma_o 1 cm; 300 trials each) kappa <= 7.25e4. 2e5 is
# the geometric middle of that gap. Over 20000 seeds the tails stay
# apart: static targets >= 4.75e5, the d0 50 m cell <= 1.67e5
DEFAULT_KAPPA_THRESHOLD = 2e5
DEFAULT_STD_CEILING = 10.0
DEFAULT_RCOND = 1e-12
DET_SUBSET_CAP = 40


class SingularGeometryError(ValueError):
    """Zero range: the Jacobian of the range function is undefined."""


class InsufficientDataError(ValueError):
    """Fewer measurements than the determinant expansion needs."""


class SingularFimError(ValueError):
    """Requested quantity needs an invertible FIM. Carries the flags."""

    def __init__(self, message: str, flags: "SingularityFlags"):
        super().__init__(message)
        self.flags = flags


@dataclass(frozen=True)
class RangeJacobian:
    """One measurement's gradient row: unit direction u, heading term phi,
    and the true range d it was evaluated at."""

    u: np.ndarray
    phi: float
    d: float

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if abs(np.linalg.norm(self.u) - 1.0) > 1e-9:
            raise ValueError("u must be a unit vector")
        if not self.d > 0:
            raise ValueError("range must be positive")

    def row(self) -> np.ndarray:
        return np.append(self.u, self.phi)


@dataclass
class FimReport:
    """FIM with its derived uncertainty quantities.

    lam and Q are the eigenpairs of F, largest first (Q holds them in
    columns). crlb (and the scalar translation/heading bounds) are
    present only when the FIM is invertible at the configured tolerance.
    """

    F: np.ndarray
    crlb: Optional[np.ndarray]
    crlb_t: Optional[float]
    crlb_theta: Optional[float]
    det_f: float
    kappa: float
    rank: int
    lam: np.ndarray
    Q: np.ndarray


@dataclass
class SingularityFlags:
    configuration_singular: bool
    per_param_unobservable: tuple
    kappa_threshold: float


def range_jacobian(T: Transform4DoF, pa, pb) -> RangeJacobian:
    """Gradient of the range w.r.t. (t_x, t_y, t_z, theta) at one sample.

    u = (t + C pb - pa) / d and phi = [uz x (C pb)] . u. Raises
    SingularGeometryError when the two antennas coincide.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    w = T.t + T.rotation() @ pb - pa
    d = float(np.linalg.norm(w))
    if d <= 0.0:
        raise SingularGeometryError("zero range: antennas coincide")
    u = w / d
    phi = float(np.cross(UZ, T.rotation() @ pb) @ u)
    return RangeJacobian(u=u, phi=phi, d=d)


def _jacobian_stack(t: np.ndarray, theta: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Jacobians of W problems, shape (W, k, 4), one row [u^T, phi] per range.

    t (W, 3) and theta (W,) are the transforms, pa and pb (W, k, 3) the
    antenna positions of each problem's ranges.
    """
    # math.cos and math.sin round as Transform4DoF.rotation does
    R = yaw_matrices([math.cos(th) for th in theta.tolist()], [math.sin(th) for th in theta.tolist()])
    rotated_b = pb @ R.swapaxes(-1, -2)
    W = t[:, None, :] + rotated_b - pa
    d = np.linalg.norm(W, axis=-1)
    if np.any(d <= 0.0):
        raise SingularGeometryError("zero range encountered in dataset")
    U = W / d[..., None]
    phi = -rotated_b[..., 1] * U[..., 0] + rotated_b[..., 0] * U[..., 1]  # [uz x (C pb)] . u
    return np.concatenate([U, phi[..., None]], axis=-1)


def jacobian_matrix(T: Transform4DoF, dataset: SyncedDataset) -> np.ndarray:
    """Stacked (k, 4) Jacobian, one row [u^T, phi] per sample."""
    return _jacobian_stack(T.t[None], np.array([T.theta]), dataset.pa[None], dataset.pb[None])[0]


def fim_stack(t, theta, pa, pb, sigma_r: float, rcond: float = DEFAULT_RCOND) -> list[FimReport]:
    """Fisher information of W problems about their (t, theta), with CRLB.

    t (W, 3) and theta (W,) are the transforms, pa and pb (W, k, 3) the
    antenna positions of each problem's ranges. F = sigma_r^-2 J^T J, and
    one batched eigendecomposition gives every F its eigenpairs, kappa,
    rank and CRLB. The CRLB is reported when the smallest eigenvalue
    clears rcond relative to the largest; otherwise the configuration is
    rank-deficient and the crlb fields are None.
    """
    J = _jacobian_stack(np.asarray(t, dtype=float), np.asarray(theta, dtype=float), pa, pb)
    F = (J.swapaxes(-1, -2) @ J) / sigma_r**2
    F = 0.5 * (F + F.swapaxes(-1, -2))
    lam, Q = np.linalg.eigh(F)
    lam, Q = np.ascontiguousarray(lam[:, ::-1]), np.ascontiguousarray(Q[:, :, ::-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        crlb = (Q * (1.0 / lam)[:, None, :]) @ Q.swapaxes(-1, -2)
    crlb = 0.5 * (crlb + crlb.swapaxes(-1, -2))
    lam_max = np.maximum(lam[:, 0], 0.0)
    invertible = (lam_max > 0) & (lam[:, -1] > rcond * lam_max)
    rank = np.where(lam_max > 0, np.sum(lam > max(rcond, 1e-13) * lam_max[:, None], axis=1), 0)
    det_f = np.linalg.det(F)
    return [
        FimReport(
            F=F[i],
            crlb=crlb[i] if invertible[i] else None,
            crlb_t=float(np.trace(crlb[i, :3, :3])) if invertible[i] else None,
            crlb_theta=float(crlb[i, 3, 3]) if invertible[i] else None,
            det_f=float(det_f[i]),
            kappa=float(lam[i, 0] / lam[i, -1]) if lam[i, -1] > 0 else math.inf,
            rank=int(rank[i]),
            lam=lam[i],
            Q=Q[i],
        )
        for i in range(len(F))
    ]


def fim(T: Transform4DoF, dataset: SyncedDataset, rcond: float = DEFAULT_RCOND) -> FimReport:
    """Fisher information of the dataset about (t, theta), with CRLB.

    `fim_stack` for one problem. A d0 that the estimators fit as one more
    range (`d0_is_extra_range`) adds its row (t/||t||, 0), the range
    between the two frame origins.
    """
    pa, pb, _ = range_rows(dataset)
    return fim_stack(T.t[None], np.array([T.theta]), pa[None], pb[None], dataset.sigma_r, rcond)[0]


def _subset_indices(k: int, size: int, max_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """All `size`-subsets of a (possibly subsampled) index set.

    Above `max_samples` measurements, an evenly spaced deterministic
    subsample keeps the combinatorial expansion tractable.
    """
    idx = np.arange(k)
    if k > max_samples:
        idx = np.unique(np.linspace(0, k - 1, max_samples).round().astype(int))
    combos = np.array(list(combinations(idx, size)), dtype=int)
    return idx, combos


def _u_phi(T: Transform4DoF, dataset: SyncedDataset, planar: bool) -> tuple[np.ndarray, np.ndarray]:
    """Unit relative vectors and heading terms, optionally with the
    geometry projected onto the horizontal plane (z elements zeroed)."""
    pa = dataset.pa.copy()
    pb = dataset.pb.copy()
    if planar:
        pa[:, 2] = 0.0
        pb[:, 2] = 0.0
    W = T.t + pb @ T.rotation().T - pa
    if planar:
        W[:, 2] = 0.0
    d = np.linalg.norm(W, axis=1)
    if np.any(d <= 0.0):
        raise SingularGeometryError("zero range encountered in dataset")
    U = W / d[:, None]
    rotated_b = pb @ T.rotation().T
    phi = np.einsum("ij,ij->i", np.cross(np.broadcast_to(UZ, rotated_b.shape), rotated_b), U)
    return U, phi


def det_fim_geometric(
    T: Transform4DoF,
    dataset: SyncedDataset,
    max_samples: int = DET_SUBSET_CAP,
) -> float:
    """det(F) by expansion over all 4-subsets of measurements.

    Each subset contributes the squared signed combination of the
    heading terms with the triple-product volumes of the remaining three
    unit vectors. Agrees with det of the directly assembled FIM; the
    prefactor follows from F = sigma_r^-2 J^T J (sigma_r^-8 for the
    4-parameter problem).

    Complexity is C(k, 4); datasets beyond `max_samples` measurements are
    deterministically subsampled (analysis tool, not an estimator path).
    """
    k = len(dataset)
    if k < 4:
        raise InsufficientDataError(f"need at least 4 measurements, got {k}")
    U, phi = _u_phi(T, dataset, planar=False)
    _, quads = _subset_indices(k, 4, max_samples)
    u1, u2, u3, u4 = (U[quads[:, i]] for i in range(4))
    f1, f2, f3, f4 = (phi[quads[:, i]] for i in range(4))
    c12 = np.cross(u1, u2)
    c13 = np.cross(u1, u3)
    c23 = np.cross(u2, u3)
    t1 = np.einsum("ij,ij->i", c23, u4)
    t2 = np.einsum("ij,ij->i", c13, u4)
    t3 = np.einsum("ij,ij->i", c12, u4)
    t4 = np.einsum("ij,ij->i", c12, u3)
    terms = -f1 * t1 + f2 * t2 - f3 * t3 + f4 * t4
    return float(np.sum(terms**2)) / dataset.sigma_r**8


def det_fim_subproblem(
    variant: str,
    dataset: SyncedDataset,
    T: Transform4DoF,
    max_samples: int = DET_SUBSET_CAP,
) -> float:
    """det(F) for the reduced estimation problems.

    variant "3d_known_theta": state (t_x, t_y, t_z); sum of squared
    triple products over measurement triples.
    variant "2d_unknown_theta": state (t_x, t_y, theta) on the projected
    geometry (z elements zeroed); signed planar angles with heading terms.
    variant "2d_known_theta": state (t_x, t_y); squared planar sines over
    measurement pairs.
    """
    k = len(dataset)
    if variant == "3d_known_theta":
        if k < 3:
            raise InsufficientDataError(f"need at least 3 measurements, got {k}")
        U, _ = _u_phi(T, dataset, planar=False)
        _, triples = _subset_indices(k, 3, max_samples)
        u1, u2, u3 = (U[triples[:, i]] for i in range(3))
        vol = np.einsum("ij,ij->i", np.cross(u1, u2), u3)
        return float(np.sum(vol**2)) / dataset.sigma_r**6
    if variant == "2d_unknown_theta":
        if k < 3:
            raise InsufficientDataError(f"need at least 3 measurements, got {k}")
        U, phi = _u_phi(T, dataset, planar=True)
        _, triples = _subset_indices(k, 3, max_samples)
        u1, u2, u3 = (U[triples[:, i]] for i in range(3))
        f1, f2, f3 = (phi[triples[:, i]] for i in range(3))
        s23 = np.cross(u2, u3)[:, 2]
        s13 = np.cross(u1, u3)[:, 2]
        s12 = np.cross(u1, u2)[:, 2]
        terms = f1 * s23 - f2 * s13 + f3 * s12
        return float(np.sum(terms**2)) / dataset.sigma_r**6
    if variant == "2d_known_theta":
        if k < 2:
            raise InsufficientDataError(f"need at least 2 measurements, got {k}")
        U, _ = _u_phi(T, dataset, planar=True)
        _, pairs = _subset_indices(k, 2, max_samples)
        s12 = np.cross(U[pairs[:, 0]], U[pairs[:, 1]])[:, 2]
        return float(np.sum(s12**2)) / dataset.sigma_r**4
    raise ValueError(f"unknown variant {variant!r}")


def singularity_flags(
    lam,
    Q,
    kappa_threshold: float = DEFAULT_KAPPA_THRESHOLD,
    std_ceiling: float = DEFAULT_STD_CEILING,
    rcond: float = DEFAULT_RCOND,
) -> list[SingularityFlags]:
    """`singularity_report` for W eigendecompositions at once.

    lam (W, n) holds each FIM's eigenvalues, largest first, and Q
    (W, n, n) the matching eigenvectors in columns.

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
    lam = np.asarray(lam, dtype=float)
    lam_max = np.maximum(lam[:, 0], 0.0)
    if np.any(lam[:, -1] < -1e-8 * np.maximum(lam_max, 1.0)):
        raise ValueError("FIM must be positive semidefinite within tolerance")
    positive = (lam_max > 0) & (lam[:, -1] > 0)
    invertible = (lam_max > 0) & (lam[:, -1] > rcond * lam_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(positive, lam[:, 0] / lam[:, -1], math.inf)
        std = np.sqrt(np.maximum(np.einsum("wij,wj,wij->wi", Q, 1.0 / lam, Q), 0.0))
    med = np.median(std, axis=1)
    per_param = (std > std_ceiling * med[:, None]) & (med > 0)[:, None]
    per_param[~invertible] = True
    return [
        SingularityFlags(
            configuration_singular=bool(k > kappa_threshold),
            per_param_unobservable=tuple(flags),
            kappa_threshold=kappa_threshold,
        )
        for k, flags in zip(kappa.tolist(), per_param.tolist())
    ]


def singularity_report(
    F_hat,
    kappa_threshold: float = DEFAULT_KAPPA_THRESHOLD,
    std_ceiling: float = DEFAULT_STD_CEILING,
    rcond: float = DEFAULT_RCOND,
) -> SingularityFlags:
    """Classify a (estimated) FIM as singular and flag suspect parameters.

    The configuration flag fires on the condition number. Per-parameter
    flags: with an invertible FIM, a parameter is flagged when its
    standard error exceeds `std_ceiling` times the median standard error;
    when the FIM is rank-deficient no standard error is certifiable and
    every parameter is flagged.
    """
    lam, Q = eig_sym(F_hat)
    return singularity_flags(lam[None], Q[None], kappa_threshold, std_ceiling, rcond)[0]


def confidence_intervals(
    T_hat: Transform4DoF,
    F_hat,
    rcond: float = DEFAULT_RCOND,
    kappa_threshold: float = DEFAULT_KAPPA_THRESHOLD,
) -> np.ndarray:
    """95% confidence intervals for (t_x, t_y, t_z, theta), shape (4, 2).

    Centered on the estimate with half-width 1.96 sqrt([F^-1]_ii). F_hat
    is the FIM, or a FimReport, whose eigenpairs are then reused. Raises
    SingularFimError (carrying singularity flags) when the FIM is not
    invertible at the tolerance.
    """
    if isinstance(F_hat, FimReport):
        F, lam, Q = F_hat.F, F_hat.lam, F_hat.Q
    else:
        F = np.asarray(F_hat, dtype=float)
        lam, Q = eig_sym(F)
    lam_max = max(float(lam[0]), 0.0)
    if not (lam_max > 0 and lam[-1] > rcond * lam_max):
        flags = singularity_flags(lam[None], Q[None], kappa_threshold=kappa_threshold, rcond=rcond)[0]
        raise SingularFimError("confidence intervals unavailable: FIM is singular", flags)
    crlb_diag = np.einsum("ij,j,ij->i", Q, 1.0 / lam, Q)
    half = 1.96 * np.sqrt(np.maximum(crlb_diag, 0.0))
    center = T_hat.as_vector()
    return np.column_stack([center - half, center + half])
