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

# Individual overlap leaves out the pairs whose Bhattacharyya coefficient
# is provably at most this, so each Gaussian's sum loses at most (P - 1)
# times it.
_INDIV_EPS = 1e-16

# A pair's coefficient is at most _INDIV_EPS once |dmu|^2 exceeds this
# times the sum of its two largest covariance eigenvalues.
_INDIV_REACH = 4.0 * math.log(1.0 / _INDIV_EPS)

# Broadcast (row, column) candidates per block of individual overlap,
# which bounds its memory: one 256 KB float64 block, with its two
# siblings and the kept pairs' arrays, stays in a core's 2 MB L2 cache.
# 2^15 ran faster than 2^14, 2^16 or 2^17 at 2048 and 6400 Gaussians; the
# tracemalloc peak at 6400 is 4.5 MB (13 MB at 2^17).
_INDIV_PAIR_BLOCK = 1 << 15

# (point, row, z) candidates per block of the nearest-occupied search.
_NEAREST_BLOCK = 1 << 16


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
    voxel center, averaged over all Gaussians.

    Each distance equals the brute-force
    ``min(sum(abs(gt.occupied_centers() - m), axis=1))`` bit for bit. That
    value is ``fl(fl(dx_i + dy_j) + dz_k)`` minimized over the occupied
    ``(i, j, k)``, with ``dx_i = |x_i - m_x|`` and so on. Rounded addition
    is monotone in each argument, so the minimum over ``i`` moves inside
    both roundings: ``min_jk fl(fl(min_i dx_i + dy_j) + dz_k)``, with no
    tie handling and no tolerance. In each ``(j, k)`` column the smallest
    ``dx_i`` over occupied ``i`` belongs to the nearest occupied center on
    either side of ``m_x``, which two running extrema over x give for
    every column at once (:func:`_nearest_occupied_l1`).
    """
    occupied = gt.occupied_mask
    if not occupied.any():
        raise ValueError("ground truth has no occupied voxels; distance undefined")
    return float(np.mean(_nearest_occupied_l1(gs.means, occupied, gt.spec.centers().axes())))


@np.errstate(over="ignore")  # a distance beyond the float range is inf, as in the brute-force sum
def _nearest_occupied_l1(points: np.ndarray, occupied: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
    """(N,) L1 distance from each point to the nearest center
    ``(axes[0][i], axes[1][j], axes[2][k])`` with ``occupied[i, j, k]``
    (at least one is), rounded as the brute-force search rounds it.

    A point looks first at the y-rows within ``w`` of its own. Rounded
    addition is monotone, so a candidate on row ``j`` is at least
    ``fl(fl(dx_min + dy_j) + dz_min)``, with ``dx_min`` and ``dz_min`` the
    point's distances to the nearest center of any voxel along x and z,
    and ``dy`` grows away from the point on either side. A minimum no
    larger than this bound at the nearest row outside the window is final.
    The points left over retry with ``w`` doubled, until the window covers
    every row.
    """
    ax, ay, az = axes
    nx, ny, nz = occupied.shape
    # below[s, j, k] - 1 is the largest occupied x-index < s in column
    # (j, k) and above[s, j, k] the smallest >= s; x_below and x_above
    # map them to centers, and "none" (0 and nx) to -inf and +inf. Plane
    # i starts as i + 1 (below) or i (above) where occupied, as 0 or nx
    # elsewhere. The running extrema go one x-plane at a time: accumulate
    # along axis 0 took three times as long.
    index = np.arange(nx, dtype=np.int32)[:, None, None]
    below = np.zeros((nx + 1, ny, nz), dtype=np.int32)
    np.multiply(occupied, index + 1, out=below[1:])
    above = np.full((nx + 1, ny, nz), nx, dtype=np.int32)
    np.multiply(occupied, index - nx, out=above[:-1])
    above[:-1] += nx
    for i in range(nx):
        np.maximum(below[i + 1], below[i], out=below[i + 1])
        np.minimum(above[nx - 1 - i], above[nx - i], out=above[nx - 1 - i])
    below = below.reshape(-1, nz)
    above = above.reshape(-1, nz)
    x_below = np.concatenate([[-np.inf], ax])
    x_above = np.concatenate([ax, [np.inf]])

    x, y, z = (np.ascontiguousarray(points[:, a]) for a in range(3))
    # Centers with an index below the split lie below the coordinate.
    sx = np.searchsorted(ax, x)
    sy = np.searchsorted(ay, y)
    dx_min = np.abs(np.clip(x, ax[0], ax[-1]) - x)
    out = np.empty(points.shape[0])
    todo = np.arange(points.shape[0])
    w = 1
    while todo.size:
        # The window's rows, then the nearest row outside it on each side.
        offsets = np.arange(-w - 1, w + 1)
        block = max(1, _NEAREST_BLOCK // (offsets.size * nz))
        left = []
        for start in range(0, todo.size, block):
            t = todo[start : start + block]
            rows = sy[t, None] + offsets
            in_grid = (rows >= 0) & (rows < ny)
            rows = np.clip(rows, 0, ny - 1)
            dy = np.where(in_grid, np.abs(ay[rows] - y[t, None]), np.inf)
            dz = np.abs(az - z[t, None])
            flat = sx[t, None] * ny + rows[:, 1:-1]
            xt = x[t, None, None]
            dx = np.minimum(np.abs(x_below[below[flat]] - xt), np.abs(x_above[above[flat]] - xt))
            best = ((dx + dy[:, 1:-1, None]) + dz[:, None, :]).min(axis=(1, 2))
            bound = (dx_min[t] + np.minimum(dy[:, 0], dy[:, -1])) + dz.min(axis=1)
            final = best <= bound
            out[t[final]] = best[final]
            left.append(t[~final])
        todo = np.concatenate(left)
        w *= 2
    return out


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
    identical Gaussians. Raises when a covariance overflows the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ci, cj = (build_covariance(g).covariance for g in (gi, gj))
    _require_finite_covariances(np.stack([ci, cj]))
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


def _require_finite_covariances(covs: np.ndarray) -> None:
    finite = np.all(np.isfinite(covs), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"Gaussian {int(np.argmin(finite))} has a non-finite covariance")


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


def _eigenvalue_bounds(scales: np.ndarray) -> np.ndarray:
    """(P,) upper bounds on the largest eigenvalue of each covariance as
    :func:`covariance_matrices` computes it: ``max(s)^2`` with a margin far
    above its rounding, which ``eigvalsh`` put at up to 2.4e-15 relative
    over 100,000 randomly rotated covariances."""
    return np.max(scales, axis=1) ** 2 * (1.0 + 1e-12)


def _indiv_pairs(means: np.ndarray, lam: np.ndarray):
    """Yield blocks ``(ii, jj)`` that list each pair ``i != j`` with
    ``|mu_i - mu_j|^2 <= _INDIV_REACH (lam_i + lam_j)`` exactly once.

    The Gaussians are stable-sorted by mean x. Row ``i`` (in that order)
    reaches the later columns whose x lies within
    ``sqrt(_INDIV_REACH (lam_i + max lam))`` of its own; each block of
    consecutive rows runs the d2 test on one broadcast (rows, columns)
    array of contiguous columns with at most :data:`_INDIV_PAIR_BLOCK`
    entries, or on one row."""
    p = len(lam)
    order = np.argsort(means[:, 0], kind="stable")
    pts = np.ascontiguousarray(means[order].T)
    lam = lam[order]
    x = pts[0]
    # Sums and squares that overflow to inf keep or drop a pair as their
    # exact values would.
    with np.errstate(over="ignore"):
        reach = np.sqrt(_INDIV_REACH * (lam + lam.max()))
        # Pad the window far beyond the rounding of x + reach and of the d2
        # test below, so it never cuts off a pair the test keeps.
        reach += 1e-9 * (reach + np.abs(x))
        ends = np.maximum.accumulate(np.searchsorted(x, x + reach, side="right"))
    # One set of buffers for every block: fresh arrays of this size would be
    # mapped and page-faulted anew at each block.
    size = max(_INDIV_PAIR_BLOCK, int(np.max(ends - np.arange(p))))
    d2_buf, step_buf = np.empty((2, size))
    keep_buf = np.empty(size, dtype=bool)
    first = 0
    while first < p - 1:
        # Rows first .. last - 1 against columns first + 1 .. end - 1; the
        # entry count grows with last because ends is nondecreasing.
        entries = np.arange(1, p - first) * (ends[first : p - 1] - first - 1)
        last = first + max(1, int(np.searchsorted(entries, _INDIV_PAIR_BLOCK, side="right")))
        end = ends[last - 1]
        rows, cols = slice(first, last), slice(first + 1, end)
        shape = (last - first, end - first - 1)
        d2, step, keep = (buf[: shape[0] * shape[1]].reshape(shape) for buf in (d2_buf, step_buf, keep_buf))
        with np.errstate(over="ignore"):
            np.square(np.subtract(pts[0, rows, None], pts[0, None, cols], out=d2), out=d2)
            for axis in (1, 2):
                np.subtract(pts[axis, rows, None], pts[axis, None, cols], out=step)
                d2 += np.square(step, out=step)
            np.add(lam[rows, None], lam[None, cols], out=step)
            step *= _INDIV_REACH
        flat = np.flatnonzero(np.less_equal(d2, step, out=keep))
        ri = np.repeat(np.arange(shape[0]), np.count_nonzero(keep, axis=1))
        ci = flat - ri * shape[1]
        upper = ci >= ri  # column first + 1 + ci after row first + ri
        yield order[first + ri[upper]], order[first + 1 + ci[upper]]
        first = last


def indiv_overlap(gs: GaussianSet) -> float:
    """Mean over Gaussians of the summed Bhattacharyya coefficients to all
    other Gaussians; 0 for a single Gaussian. Raises when a covariance
    overflows the float range.

    Pairs whose coefficient cannot exceed ``_INDIV_EPS`` = 1e-16 are left
    out. The log-determinant term of the Bhattacharyya distance is >= 0,
    and by Weyl's inequality the averaged covariance has a largest
    eigenvalue of at most ``(lam_i + lam_j) / 2``, with ``lam`` the
    :func:`_eigenvalue_bounds`; so ``BC <= exp(-|dmu|^2 / (4 (lam_i +
    lam_j)))``, and a pair is dropped iff ``|dmu|^2 > 4 ln(1 / eps)
    (lam_i + lam_j)``. The result therefore differs from the sum over all
    pairs by at most ``(P - 1) * 1e-16`` absolute, plus summation order.
    The kept pairs come from :func:`_indiv_pairs`, whose blocks bound the
    memory, and each pair's 3x3 algebra runs in closed form
    (:func:`_spd3_cholesky`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        covs = covariance_matrices(gs)
    _require_finite_covariances(covs)
    p = len(gs)
    if p == 1:
        return 0.0
    # Upper-triangle components (6, P); one routine for the per-Gaussian and
    # the pair-average determinants, so identical Gaussians give BC = 1.
    comp = np.ascontiguousarray(covs.reshape(p, 9)[:, [0, 1, 2, 4, 5, 8]].T)
    means = np.ascontiguousarray(gs.means.T)
    log_dets = _spd3_cholesky(*comp)
    overlap = np.zeros(p)
    for ii, jj in _indiv_pairs(gs.means, _eigenvalue_bounds(gs.scales)):
        avg = np.take(comp, ii, axis=1)
        avg += np.take(comp, jj, axis=1)
        avg *= 0.5
        diff = np.take(means, ii, axis=1)
        diff -= np.take(means, jj, axis=1)
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
