"""Benchmark metrics and the Gaussian-utilization audit suite.

Grid metrics: binary occupied-vs-empty IoU and the per-class mean IoU over
non-empty classes, both driven by a confusion matrix.

Utilization metrics for a Gaussian set against a reference grid:

* percentage of Gaussians whose mean sits in an occupied voxel;
* mean L1 distance from each mean to its nearest occupied voxel center;
* overall overlap: summed 90%-confidence ellipsoid volumes over the
  Monte Carlo estimate of the union coverage volume, whose hit test is
  the field's cutoff test at :data:`CHI2_3DOF_90`;
* individual overlap: mean summed pairwise Bhattacharyya coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianPrimitive, GaussianSet, build_covariance, covariance_matrices, seeded_stream
from .field import EvalOptions, FieldEvaluator, scatter_sum
from .grid import VoxelGrid

# Chi-square critical value at 90% for three degrees of freedom; the
# Mahalanobis ball d2 <= CHI2 is the 90% confidence ellipsoid.
CHI2_3DOF_90 = 6.251

# 90% ellipsoid volume per unit product of the scales.
_VOLUME_90 = (4.0 / 3.0) * np.pi * CHI2_3DOF_90**1.5

# Samples per Monte Carlo chunk; fixed so the per-chunk random streams,
# and therefore the estimate, do not depend on execution schedule.
_MC_CHUNK = 1 << 17

# Gaussian pairs per block of individual overlap, which bounds its memory.
# One 512 KB column of a block fits a core's L2 cache; 2^16 pairs ran
# faster than 2^17 or 2^18 at 2048 Gaussians.
_INDIV_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are ground truth, columns are prediction."""

    counts: np.ndarray

    @classmethod
    def from_grids(cls, pred: VoxelGrid, gt: VoxelGrid) -> "ConfusionMatrix":
        if not pred.spec.describes_same_grid(gt.spec):
            raise ValueError("prediction and ground-truth grids must share one spec")
        k = gt.spec.num_classes_total
        joint = gt.labels_flat.astype(np.int64) * k + pred.labels_flat.astype(np.int64)
        counts = np.bincount(joint, minlength=k * k).reshape(k, k)
        return cls(counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def per_class_iou(self) -> np.ndarray:
        """IoU per class; NaN where a class appears in neither grid."""
        tp = np.diag(self.counts).astype(np.float64)
        union = self.counts.sum(axis=0) + self.counts.sum(axis=1) - np.diag(self.counts)
        with np.errstate(invalid="ignore"):
            return np.where(union > 0, tp / union, np.nan)


def iou(pred: VoxelGrid, gt: VoxelGrid) -> float:
    """Binary occupied-vs-empty IoU; two entirely empty grids score 1."""
    if not pred.spec.describes_same_grid(gt.spec):
        raise ValueError("prediction and ground-truth grids must share one spec")
    p = pred.occupied_mask
    g = gt.occupied_mask
    tp = int(np.count_nonzero(p & g))
    union = int(np.count_nonzero(p | g))
    if union == 0:
        return 1.0
    return tp / union


def miou(pred: VoxelGrid, gt: VoxelGrid, include_absent: bool = False) -> float:
    """Mean IoU over the non-empty classes.

    Classes absent from both grids have an undefined 0/0 IoU and are
    excluded from the mean by default; ``include_absent`` counts them as 0
    instead. If every semantic class is absent from both grids the two
    grids agree perfectly on emptiness and the result is 1.
    """
    cm = ConfusionMatrix.from_grids(pred, gt)
    per_class = cm.per_class_iou()[1:]
    if include_absent:
        per_class = np.nan_to_num(per_class, nan=0.0)
    defined = per_class[~np.isnan(per_class)]
    if defined.size == 0:
        return 1.0
    return float(defined.mean())


def perc_correct(gs: GaussianSet, gt: VoxelGrid) -> float:
    """Percentage of Gaussians whose mean lies in an occupied voxel.

    Means outside the grid count as incorrectly placed.
    """
    return 100.0 * float(np.count_nonzero(gt.labels_at_points(gs.means))) / len(gs)


def mean_nearest_dist(gs: GaussianSet, gt: VoxelGrid) -> float:
    """Mean L1 distance from each Gaussian mean to the nearest occupied
    voxel center, averaged over all Gaussians."""
    centers = gt.occupied_centers()
    if centers.shape[0] == 0:
        raise ValueError("ground truth has no occupied voxels; distance undefined")
    from scipy.spatial import cKDTree  # imported here so only the audit loads scipy

    dists, _ = cKDTree(centers).query(gs.means, k=1, p=1)
    return float(np.mean(dists))


def ellipsoid_volume_90(g: GaussianPrimitive) -> float:
    """Volume of the 90% confidence ellipsoid,
    ``(4/3) pi chi2^{3/2} sqrt(det Sigma)``."""
    return _VOLUME_90 * float(np.prod(g.scale))


def _bbox_arrays(scene_bbox) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(scene_bbox[0], dtype=np.float64)
    hi = np.asarray(scene_bbox[1], dtype=np.float64)
    if lo.shape != (3,) or hi.shape != (3,) or not np.all(hi > lo):
        raise ValueError("scene_bbox must be (min, max) 3-vectors with max > min")
    return lo, hi


def mc_coverage_volume(gs: GaussianSet, scene_bbox, mc_samples: int, seed: int) -> float:
    """Monte Carlo volume of the union of 90% ellipsoids.

    Uniform samples in the scene bounding box hit when the field, cut off
    at :data:`CHI2_3DOF_90`, gives them a nonzero occupancy: it is exactly
    0 beyond every 90% ellipsoid and at least ``exp(-CHI2_3DOF_90 / 2)``
    inside any. The union volume is the box volume times the hit fraction.
    Raises when not a single sample lands inside.
    """
    lo, hi = _bbox_arrays(scene_bbox)
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    ev = FieldEvaluator(gs, EvalOptions(cutoff_mahalanobis_sq=CHI2_3DOF_90))
    n_in = 0
    for chunk_index, done in enumerate(range(0, mc_samples, _MC_CHUNK)):
        pts = seeded_stream(seed, chunk_index).uniform(lo, hi, size=(min(_MC_CHUNK, mc_samples - done), 3))
        n_in += int(np.count_nonzero(ev.alpha(pts) > 0.0))
    if n_in == 0:
        raise ValueError("no coverage detected: no Monte Carlo sample hit any ellipsoid")
    box_volume = float(np.prod(hi - lo))
    return box_volume * n_in / mc_samples


def overall_overlap(gs: GaussianSet, scene_bbox, mc_samples: int, seed: int) -> float:
    """Summed 90% ellipsoid volumes over the Monte Carlo coverage volume.

    1.0 means the ellipsoids tile their union without overlap; higher
    values mean redundant coverage. ``math.fsum`` rounds the summed volumes
    once, so the result does not depend on the order of the Gaussians.
    """
    return _summed_volume_90(gs) / mc_coverage_volume(gs, scene_bbox, mc_samples, seed)


def _summed_volume_90(gs: GaussianSet) -> float:
    try:
        return math.fsum(_VOLUME_90 * np.prod(gs.scales, axis=1))
    except OverflowError:  # finite volumes whose sum exceeds the float range
        return math.inf


def bhattacharyya_coef(gi: GaussianPrimitive, gj: GaussianPrimitive) -> float:
    """Bhattacharyya coefficient between two Gaussians, in (0, 1].

    Computed in log space from the average covariance; exactly 1 for
    identical Gaussians.
    """
    ci = build_covariance(gi).covariance
    cj = build_covariance(gj).covariance
    avg = 0.5 * (ci + cj)
    # One determinant routine for all three matrices: identical inputs then
    # cancel exactly and BC(g, g) is exactly 1.
    log_det_i = np.linalg.slogdet(ci)[1]
    log_det_j = np.linalg.slogdet(cj)[1]
    log_det_avg = np.linalg.slogdet(avg)[1]
    diff = gi.mean - gj.mean
    quad = float(diff @ np.linalg.solve(avg, diff))
    log_bc = 0.25 * (log_det_i + log_det_j) - 0.5 * log_det_avg - 0.125 * quad
    return float(np.exp(log_bc))


def _spd3_cholesky(a, b, c, d, e, f, x=None):
    """Closed-form Cholesky of symmetric positive-definite 3x3 matrices
    ``[[a, b, c], [b, d, e], [c, e, f]]``, each entry a 1-D array over the
    matrices. Returns ``log det``; given offsets ``x`` (3, n), also the
    quadratic forms ``x^T S^-1 x``, by forward substitution."""
    l11 = np.sqrt(a)
    l21 = b / l11
    l31 = c / l11
    p2 = d - l21 * l21
    l22 = np.sqrt(p2)
    l32 = (e - l21 * l31) / l22
    p3 = f - l31 * l31 - l32 * l32
    log_det = np.log(a) + np.log(p2) + np.log(p3)
    if x is None:
        return log_det
    y1 = x[0] / l11
    y2 = (x[1] - l21 * y1) / l22
    y3 = (x[2] - l31 * y1 - l32 * y2) / np.sqrt(p3)
    return log_det, y1 * y1 + y2 * y2 + y3 * y3


def indiv_overlap(gs: GaussianSet) -> float:
    """Mean over Gaussians of the summed Bhattacharyya coefficients to all
    other Gaussians; 0 for a single Gaussian. The pairs ``i < j`` are
    visited in blocks of whole rows ``i`` of at most
    :data:`_INDIV_PAIR_BLOCK` pairs, or of one row, and each pair's 3x3
    algebra runs in closed form (:func:`_spd3_cholesky`). Raises when a
    covariance overflows the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        covs = covariance_matrices(gs)
    finite = np.all(np.isfinite(covs), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"Gaussian {int(np.argmin(finite))} has a non-finite covariance")
    p = len(gs)
    if p == 1:
        return 0.0
    # Upper-triangle components (6, P); one routine for the per-Gaussian and
    # the pair-average determinants, so identical Gaussians give BC = 1.
    comp = np.ascontiguousarray(covs.reshape(p, 9)[:, [0, 1, 2, 4, 5, 8]].T)
    means = np.ascontiguousarray(gs.means.T)
    log_dets = _spd3_cholesky(*comp)
    overlap = np.zeros(p)
    rows = max(1, _INDIV_PAIR_BLOCK // (p - 1))
    for first in range(0, p - 1, rows):
        # Row i pairs with j = i + 1 .. p - 1: repeat its own columns and
        # concatenate the slices after it.
        last = min(first + rows, p - 1)
        counts = p - 1 - np.arange(first, last)
        ii = np.repeat(np.arange(first, last), counts)
        jj = np.concatenate([np.arange(i + 1, p) for i in range(first, last)])
        avg = np.repeat(comp[:, first:last], counts, axis=1)
        avg += np.concatenate([comp[:, i + 1 :] for i in range(first, last)], axis=1)
        avg *= 0.5
        diff = np.repeat(means[:, first:last], counts, axis=1)
        diff -= np.concatenate([means[:, i + 1 :] for i in range(first, last)], axis=1)
        log_det_avg, quad = _spd3_cholesky(*avg, x=diff)
        bc = np.exp(0.25 * (log_dets[ii] + log_dets[jj]) - 0.5 * log_det_avg - 0.125 * quad)
        overlap += scatter_sum(ii, bc, p) + scatter_sum(jj, bc, p)
    return float(overlap.mean())


@dataclass(frozen=True)
class UtilizationReport:
    """Position and overlap audit of a Gaussian set against a grid."""

    perc_correct: float
    mean_dist: float
    overall_overlap: float
    indiv_overlap: float
    mc_samples: int
    mc_stderr: float  # binomial standard error of the Monte Carlo hit fraction


def utilization_report(
    gs: GaussianSet,
    gt: VoxelGrid,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> UtilizationReport:
    """Run the full audit; the scene bounding box is the grid extent.

    ``mc_stderr`` is the binomial standard error ``sqrt(f (1 - f) / n)`` of
    the coverage estimate's hit fraction ``f`` over ``n = mc_samples``.
    """
    bbox = (gt.spec.min_corner, gt.spec.max_corner)
    pc = perc_correct(gs, gt)
    dist = mean_nearest_dist(gs, gt)
    coverage = mc_coverage_volume(gs, bbox, mc_samples, seed)
    # The coverage is box_volume * hits / mc_samples with two roundings, so
    # rounding recovers the integer hit count (below about 1e15 samples).
    box_volume = float(np.prod(gt.spec.max_corner - gt.spec.min_corner))
    hit_frac = round(coverage * mc_samples / box_volume) / mc_samples
    return UtilizationReport(
        perc_correct=pc,
        mean_dist=dist,
        overall_overlap=_summed_volume_90(gs) / coverage,
        indiv_overlap=indiv_overlap(gs),
        mc_samples=int(mc_samples),
        mc_stderr=math.sqrt(hit_frac * (1.0 - hit_frac) / mc_samples),
    )
