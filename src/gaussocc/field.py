"""Occupancy field evaluation over a set of semantic Gaussians.

Two models are implemented:

* the probabilistic superposition: each Gaussian induces an occupancy
  probability ``exp(-d2/2)`` that is 1 at its center, geometry is the
  complement-product aggregate ``1 - prod(1 - alpha_i)``, semantics are
  the mixture-posterior expectation of per-Gaussian softmax distributions,
  and the composed prediction is ``[1 - alpha, alpha * e]`` with the empty
  class first;
* the legacy additive model: raw opacity-weighted Gaussian values times
  raw logits, summed, unbounded, kept for baseline comparison (its logits
  include the empty class as channel 0).

The aggregate runs in log space: per Gaussian the log survival term is
``log(-expm1(-d2/2))`` which is exact both near the center (where it goes
to -inf, forcing the aggregate to exactly 1) and in the far field. A query
point farther than the Mahalanobis cutoff from every Gaussian contributes
no term, so its aggregate is exactly 0.

Every evaluation runs on a list of (Gaussian, point) pairs grouped by
Gaussian, and per-point and per-Gaussian sums run over that list. With a
finite cutoff, one of two generators lists the candidate pairs, chosen by
the kind of query points:

* arbitrary points (Monte Carlo samples, fit batches, the public
  :class:`FieldEvaluator` methods on an array): a cell join
  (:class:`_CellIndex`) lists the pairs inside each Gaussian's cutoff
  bounding box;
* the voxel centers of a grid (:class:`VoxelCenters`, which ``voxelize``,
  ``voxelize_legacy``, ``gaussocc eval`` and the fit's evaluations pass):
  :class:`_VoxelLattice` lists, from voxel index ranges, the voxels whose
  centers lie in the cutoff ellipsoid, bounded in closed form per x-row
  and per (x, y) column.

Both bound the ellipsoid from outside with a padded cutoff, and the pairs
beyond the cutoff are then dropped by the same ``d2 <= cutoff`` test on
the same local-frame d2, so both give the same live pairs and skip only
terms that are exactly zero. Each point's pairs come in ascending Gaussian
order from either generator, so every per-point sum adds the same values
in the same order and gives the same bits. Without a cutoff every pair is
visited, in chunks of bounded size. A pass over the voxel centers of a
grid never builds them all at once: it takes spans of whole x-rows of at
most :data:`_SPAN_VOXELS` voxels (or one x-row), with or without a cutoff.
The fitting loss of :mod:`gaussocc.fit` runs on the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import GaussianPrimitive, GaussianSet, mahalanobis_sq, rotation_matrices

# Below this density the mixture posterior is treated as undefined and the
# expectation falls back to the uniform class distribution.
GMM_DENOMINATOR_FLOOR = 1e-300

_LOG_GMM_FLOOR = np.log(GMM_DENOMINATOR_FLOOR)
_LOG_2PI = np.log(2.0 * np.pi)
_DEFAULT_CHUNK = 8192
# Pairs per chunk when every (Gaussian, point) pair is visited (no cutoff).
_PAIR_BUDGET = 1 << 20
# Candidate pairs per lattice span, bounded before the span is expanded.
_SPAN_PAIRS = 1 << 17
# Voxels per span of whole x-rows, in every pass over a grid's centers.
_SPAN_VOXELS = 1 << 17
# Voxels at or below this alpha are labelled empty without their semantics.
_EMPTY_ALPHA = 0.5 - 1e-9
# Relative padding of the cutoff boxes, far above the rounding error of d2,
# so the cell join never drops a pair that the distance test would keep.
_BOX_PAD = 1e-9
# Cell-join columns per Gaussian, on average, before the cells grow.
_COLUMNS_PER_GAUSSIAN = 64
_LN2 = np.log(2.0)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array: shift by the row max, exponentiate,
    divide by the row sum (the operations of ``scipy.special.softmax``)."""
    e = np.exp(x - np.max(x, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def log1mexp(a: np.ndarray) -> np.ndarray:
    """log(1 - exp(-a)) for a >= 0, accurate at both ends; -inf at a = 0."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore"):
        small = np.log(-np.expm1(-np.minimum(a, _LN2)))
        large = np.log1p(-np.exp(-np.maximum(a, _LN2)))
    return np.where(a < _LN2, small, large)


@dataclass(frozen=True)
class EvalOptions:
    """Evaluation policy shared by all field operations.

    ``cutoff_mahalanobis_sq`` drops any Gaussian whose squared Mahalanobis
    distance to the query point exceeds it (contribution exactly zero);
    ``None`` or ``inf`` disables the cutoff. A finite cutoff always runs on
    the sparse pair kernel. ``neighbor_index`` is still accepted but no
    longer changes speed or results. Where the mixture denominator
    vanishes, the semantics are the uniform class distribution (see
    :func:`gmm_expectation`).
    """

    cutoff_mahalanobis_sq: Optional[float] = 25.0
    neighbor_index: bool = False

    def __post_init__(self):
        c = self.cutoff_mahalanobis_sq
        if c is not None and not c > 0.0:
            raise ValueError(f"cutoff_mahalanobis_sq must be > 0, got {c}")

    @property
    def cutoff(self) -> float:
        c = self.cutoff_mahalanobis_sq
        return np.inf if c is None else float(c)


@dataclass(frozen=True)
class FieldSample:
    """Everything the field knows at one query point."""

    geometry_prob: float
    semantics_expectation: np.ndarray
    full_prediction: np.ndarray


# -- the (Gaussian, point) pair kernel ---------------------------------------


class _Pairs(NamedTuple):
    """(Gaussian, point) pairs grouped by Gaussian: the pairs of Gaussian
    ``g`` are the slice ``bounds[g]:bounds[g + 1]`` of ``gauss`` and
    ``point``."""

    gauss: np.ndarray
    point: np.ndarray
    bounds: np.ndarray

    @classmethod
    def every(cls, num_gaussians: int, num_points: int) -> "_Pairs":
        return cls(
            np.repeat(np.arange(num_gaussians), num_points),
            np.tile(np.arange(num_points), num_gaussians),
            np.arange(num_gaussians + 1) * num_points,
        )

    def select(self, keep: np.ndarray) -> "_Pairs":
        kept_before = np.concatenate([[0], np.cumsum(keep)])
        return _Pairs(np.compress(keep, self.gauss), np.compress(keep, self.point), kept_before[self.bounds])


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs ``first[i], first[i] + 1, ..., first[i] + count[i] - 1``,
    concatenated in order."""
    ends = np.cumsum(count)
    return np.repeat(first - (ends - count), count) + np.arange(ends[-1] if ends.size else 0)


def _cutoff_boxes(means: np.ndarray, cov_diag: np.ndarray, cutoff: float) -> np.ndarray:
    """(P, 3) half-widths ``sqrt(cutoff * Sigma[a, a])`` of the boxes that
    enclose the cutoff ellipsoids, padded by :data:`_BOX_PAD`; raises when
    a box is not finite."""
    half = np.sqrt(cutoff * cov_diag) * (1.0 + _BOX_PAD)
    finite = np.all(np.isfinite(means - half) & np.isfinite(means + half), axis=1)
    if not np.all(finite):
        raise ValueError(f"Gaussian {int(np.argmin(finite))} has a non-finite cutoff box")
    return half


class _CellIndex:
    """Cell join between query points and the cutoff boxes of the Gaussians.

    The axis-aligned box enclosing one Gaussian's cutoff ellipsoid has
    half-width ``sqrt(cutoff * Sigma[a, a])`` along world axis ``a``. Space
    is cut into cubic cells, and each Gaussian owns one column per (x, y)
    cell its box touches: a run of cells contiguous along z, so a column is
    one interval of point cell keys. A point is a candidate of every
    Gaussian with a column over its cell. Every skipped pair lies outside
    the box, hence beyond the cutoff, where its term is exactly zero.
    """

    def __init__(self, means: np.ndarray, cov_diag: np.ndarray, cutoff: float):
        half = _cutoff_boxes(means, cov_diag, cutoff)
        lo, hi = means - half, means + half
        p = means.shape[0]
        self.origin = lo.min(axis=0)
        self.top = hi.max(axis=0)
        # Cells start at half the median half-width, so a typical box spans
        # four or five cells per axis, and double while the columns exceed
        # their budget. Cells of at least 2^-20 of the extent keep keys in
        # int64.
        cell = max(0.5 * float(np.median(half)), float(np.max(self.top - self.origin)) * 2.0**-20)
        while True:
            first = np.floor((lo - self.origin) / cell).astype(np.int64)
            last = np.floor((hi - self.origin) / cell).astype(np.int64)
            span = last - first + 1
            columns = span[:, 0] * span[:, 1]
            if columns.sum() <= _COLUMNS_PER_GAUSSIAN * p:
                break
            cell *= 2.0
        self.cell = cell
        self.shape = last.max(axis=0) + 1
        self.column_bounds = np.concatenate([[0], np.cumsum(columns)])
        self.column_gauss = g = np.repeat(np.arange(p), columns)
        j = _runs(np.zeros_like(columns), columns)
        ix = first[g, 0] + j // span[g, 1]
        iy = first[g, 1] + j % span[g, 1]
        base = (ix * self.shape[1] + iy) * self.shape[2]
        self.key_lo = base + first[g, 2]
        self.key_hi = base + last[g, 2] + 1

    def pairs(self, points: np.ndarray) -> _Pairs:
        """Candidate pairs of ``points``: each Gaussian with the points in
        its columns."""
        inside = np.flatnonzero(np.all((points >= self.origin) & (points <= self.top), axis=1))
        cells = np.floor((points[inside] - self.origin) / self.cell).astype(np.int64)
        keys = (cells[:, 0] * self.shape[1] + cells[:, 1]) * self.shape[2] + cells[:, 2]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        start = np.searchsorted(keys, self.key_lo)
        count = np.searchsorted(keys, self.key_hi) - start
        pair_ends = np.concatenate([[0], np.cumsum(count)])
        return _Pairs(
            np.repeat(self.column_gauss, count),
            inside[order[_runs(start, count)]],
            pair_ends[self.column_bounds],
        )


class VoxelCenters(NamedTuple):
    """The centers ``min_corner + (index + 0.5) * voxel_size`` of a grid
    with ``resolution`` voxels per axis, in the flat x-major order
    ``(ix * Y + iy) * Z + iz``. Evaluated at these points, the field lists
    its pairs from voxel index ranges (:class:`_VoxelLattice`)."""

    min_corner: np.ndarray
    voxel_size: np.ndarray
    resolution: np.ndarray

    @property
    def num_voxels(self) -> int:
        return int(np.prod(self.resolution))

    def axes(self) -> list[np.ndarray]:
        """The center coordinates along each axis."""
        return [self.min_corner[a] + (np.arange(self.resolution[a]) + 0.5) * self.voxel_size[a] for a in range(3)]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """(N, 3) centers of the x-rows ``start:stop``, in flat order,
        written in place from the three axes."""
        ax, ay, az = self.axes()
        ax = ax[start:stop]
        out = np.empty((ax.size, ay.size, az.size, 3))
        out[..., 0] = ax[:, None, None]
        out[..., 1] = ay[:, None]
        out[..., 2] = az
        return out.reshape(-1, 3)

    def take(self, flat: np.ndarray) -> np.ndarray:
        """(N, 3) centers of the voxels with the given flat indices."""
        idx = np.unravel_index(flat, tuple(int(n) for n in self.resolution))
        return np.stack([ax[i] for ax, i in zip(self.axes(), idx)], axis=-1)


def _row_spans(resolution) -> list[tuple[int, int]]:
    """The spans ``(start, stop)`` of whole x-rows, of at most
    :data:`_SPAN_VOXELS` voxels each or one x-row, that cover a grid."""
    x, per_row = int(resolution[0]), int(resolution[1]) * int(resolution[2])
    step = max(1, _SPAN_VOXELS // per_row)
    return [(start, min(start + step, x)) for start in range(0, x, step)]


class _VoxelLattice:
    """The candidate pairs between the Gaussians and the voxel centers of a
    grid, listed straight from voxel index ranges, one span of whole x-rows
    at a time.

    With ``Sigma = R diag(s^2) R^T`` and its inverse ``Lambda``, a cutoff
    ellipsoid reaches the x-rows within ``sqrt(cutoff * Sigma_xx)`` of its
    mean. On the row at offset ``dx``, the ellipse it casts onto the xy
    plane covers the y-offsets within ``sqrt(v_y (cutoff - dx^2 /
    Sigma_xx))`` of ``dx Sigma_xy / Sigma_xx``; ``v_y = det Sigma_2 /
    Sigma_xx`` is the variance of y given x, and ``det Sigma_2``, the
    determinant of the xy marginal, is ``sum_m R_zm^2 s_k^2 s_l^2`` over
    the local axes ``{k, l, m}``. Over the column at ``(dx, dy)``, whose
    smallest d2 is ``q``, the ellipsoid covers the z-offsets within
    ``sqrt((cutoff - q) / Lambda_zz)`` of the conditional mean offset
    ``-(Lambda_zx dx + Lambda_zy dy) / Lambda_zz``. ``Sigma_xx``, ``Lambda_zz`` and
    ``det Sigma_2`` are sums of positive terms, so thin Gaussians lose no
    digits to cancellation. Every interval is taken at the cutoff padded
    as the cell join's boxes are (``cutoff (1 + _BOX_PAD)^2``), far above
    the rounding error of d2 and of the bounds, so no pair within the
    cutoff is missed. An interval that is not finite (an overflow) covers
    its whole axis.

    Only the per-(Gaussian, x-row) stage is built for the whole grid. The
    x-rows are cut into spans that hold at most ``voxel_budget`` voxels and
    whose pairs, bounded before expansion by each row's column count times
    its Gaussian's z-box, stay within ``budget``; a span of one x-row may
    exceed either. One span is expanded to columns and pairs at a time.
    Pairs are grouped by Gaussian within a span.
    """

    def __init__(self, means, rot, scales, cutoff: float, centers: VoxelCenters, budget: int, voxel_budget: int):
        self.axes = centers.axes()
        self.centers = centers
        self.shape = tuple(int(n) for n in centers.resolution)
        self.means = means
        self.reach = cutoff * (1.0 + _BOX_PAD) ** 2
        p = means.shape[0]
        cov_diag = _cov_diag(rot, scales)
        half = _cutoff_boxes(means, cov_diag, cutoff)
        s2 = scales**2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sxx = cov_diag[:, 0]
            slope_y = np.einsum("pk,pk,pk->p", rot[:, 0], rot[:, 1], s2) / sxx
            self.var_y = np.einsum("pk,pk->p", rot[:, 2] ** 2, s2[:, [1, 2, 0]] * s2[:, [2, 0, 1]]) / sxx
            prec_z = rot[:, 2] / s2
            lzz = np.einsum("pk,pk->p", prec_z, rot[:, 2])
            self.slope_zx = -np.einsum("pk,pk->p", prec_z, rot[:, 0]) / lzz
            self.slope_zy = -np.einsum("pk,pk->p", prec_z, rot[:, 1]) / lzz
            self.var_z = 1.0 / lzz
            # The per-(Gaussian, x-row) stage: each row's y-interval.
            x0, x1 = self._range(0, means[:, 0], np.sqrt(self.reach * sxx))
            nx = np.maximum(x1 - x0 + 1, 0)
            g = np.repeat(np.arange(p), nx)
            ix = _runs(x0, nx)
            dx = self.axes[0][ix] - means[g, 0]
            qx = dx * dx / sxx[g]
            rem = self.reach - qx
            y_off = slope_y[g] * dx
            y0, y1 = self._range(1, means[g, 1] + y_off, np.sqrt(self.var_y[g] * rem))
        ny = np.where(rem < 0.0, 0, np.maximum(y1 - y0 + 1, 0))
        rows = np.flatnonzero(ny)
        self.g, self.ix, self.dx, self.qx, self.y_off, self.y0, self.ny = (
            a[rows] for a in (g, ix, dx, qx, y_off, y0, ny)
        )
        z0, z1 = self._range(2, means[:, 2], half[:, 2])
        bound = np.bincount(self.ix, self.ny * np.maximum(z1 - z0 + 1, 0)[self.g], minlength=self.shape[0])
        max_rows = max(1, voxel_budget // (self.shape[1] * self.shape[2]))
        self.spans = []
        start, total = 0, 0.0
        for x, b in enumerate(bound.tolist()):
            if x > start and (total + b > budget or x - start >= max_rows):
                self.spans.append((start, x))
                start, total = x, 0.0
            total += b
        self.spans.append((start, self.shape[0]))

    def _range(self, a: int, mid: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and last voxel index along axis ``a`` whose center lies within
        ``half`` of ``mid``, clipped to the grid (first > last when there is
        none); NaN spans the axis."""
        size, n = self.centers.voxel_size[a], self.shape[a]
        t = (mid - self.centers.min_corner[a]) / size - 0.5
        h = half / size
        first = np.fmin(np.fmax(np.ceil(t - h), 0.0), n)
        last = np.fmax(np.fmin(np.floor(t + h), n - 1.0), -1.0)
        return first.astype(np.int64), last.astype(np.int64)

    def span_pairs(self, start: int, stop: int) -> tuple[np.ndarray, _Pairs]:
        """The centers of x-rows ``start:stop`` and their candidate pairs,
        point indices counting from the span's first voxel."""
        ny_all, nz_all = self.shape[1], self.shape[2]
        r = np.flatnonzero((self.ix >= start) & (self.ix < stop))
        ny = self.ny[r]
        col = np.repeat(r, ny)
        iy = _runs(self.y0[r], ny)
        g = self.g[col]
        with np.errstate(over="ignore", invalid="ignore"):
            dy = self.axes[1][iy] - self.means[g, 1]
            t = dy - self.y_off[col]
            rem = self.reach - (self.qx[col] + t * t / self.var_y[g])
            z_mid = self.means[g, 2] + self.slope_zx[g] * self.dx[col] + self.slope_zy[g] * dy
            z0, z1 = self._range(2, z_mid, np.sqrt(self.var_z[g] * rem))
        nz = np.where(rem < 0.0, 0, np.maximum(z1 - z0 + 1, 0))
        first = ((self.ix[col] - start) * ny_all + iy) * nz_all + z0
        per_gauss = np.bincount(g, nz, minlength=self.means.shape[0]).astype(np.int64)
        pairs = _Pairs(
            np.repeat(g, nz),
            _runs(first, nz),
            np.concatenate([[0], np.cumsum(per_gauss)]),
        )
        return self.centers.rows(start, stop), pairs


def _cov_diag(rot: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(P, 3) diagonals of the covariances ``R diag(s^2) R^T``; an overflow
    here is rejected by the cell join."""
    with np.errstate(over="ignore"):
        return np.einsum("pab,pb,pab->pa", rot, scales**2, rot)


def _local_coords(points, pairs: _Pairs, means, rot, scales) -> np.ndarray:
    """(M, 3) pair offsets in the scaled local frame, ``R^T (x - m) / s``;
    a row's squared norm is the pair's d2. The shift and the scaling run
    one column at a time against the per-pair repeat of that column, and
    each Gaussian's segment is rotated by one matmul, so only the points
    are gathered per pair. (``np.take`` and ``np.compress`` gather several
    times faster than indexing.)"""
    diff = np.take(points, pairs.point, axis=0)
    counts = np.diff(pairs.bounds)
    for a in range(3):
        np.subtract(diff[:, a], np.repeat(means[:, a], counts), out=diff[:, a])
    local = np.empty_like(diff)
    b = pairs.bounds.tolist()
    for g in np.flatnonzero(counts).tolist():
        np.matmul(diff[b[g] : b[g + 1]], rot[g], out=local[b[g] : b[g + 1]])
    for a in range(3):
        np.divide(local[:, a], np.repeat(scales[:, a], counts), out=local[:, a])
    return local


def _squared_norms(local: np.ndarray) -> np.ndarray:
    """Row sums of squares, added in the order ``np.sum(local**2, axis=1)``
    uses, without its per-row reduction overhead."""
    sq = local * local
    return sq[:, 0] + sq[:, 1] + sq[:, 2]


def live_pairs(points, means, rot, scales, cutoff: float) -> tuple[_Pairs, np.ndarray, np.ndarray]:
    """The pairs within the cutoff (every pair for an infinite cutoff),
    with their local offsets and d2."""
    if not np.isfinite(cutoff):
        pairs = _Pairs.every(means.shape[0], points.shape[0])
        local = _local_coords(points, pairs, means, rot, scales)
        return pairs, local, _squared_norms(local)
    pairs = _CellIndex(means, _cov_diag(rot, scales), cutoff).pairs(points)
    local = _local_coords(points, pairs, means, rot, scales)
    d2 = _squared_norms(local)
    keep = d2 <= cutoff
    return pairs.select(keep), np.compress(keep, local, axis=0), np.compress(keep, d2)


def scatter_sum(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum pair values onto the point or Gaussian each pair names:
    (M,) -> (n,), or (k, M) -> (n, k)."""
    if values.ndim == 2:
        return np.stack([scatter_sum(index, row, n) for row in values], axis=1)
    # bincount returns integers when there is nothing to sum.
    return np.bincount(index, values, minlength=n).astype(np.float64, copy=False)


def log_mixture_weights(opacities: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(P,) log mixture weights ``log(opacity) - log(det Sigma) / 2``, with
    ``log(det Sigma) / 2 = sum(log s)``; -inf at zero opacity."""
    with np.errstate(divide="ignore"):
        return np.log(opacities) - np.sum(np.log(scales), axis=1)


def gmm_expectation(w, point, values, n: int, num_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixture-posterior expectation of per-pair class probabilities
    ``values``, (C, M) rows or one (M,) column, from the pairs' log weights
    ``w = log_mixture_weights - d2 / 2``.

    Returns ``(e, rho, undefined)``: the (n, C) or (n,) expectation, the
    posterior (it sums to 1 over each point's pairs) and the points with no
    live Gaussian or a mixture density, with its ``(2 pi)^{-3/2}``
    normalizer, below :data:`GMM_DENOMINATOR_FLOOR`; there ``e`` is the
    uniform ``1 / num_classes``.
    """
    wmax = np.full(n, -np.inf)
    np.maximum.at(wmax, point, w)
    shift = np.where(np.isfinite(wmax), wmax, 0.0)
    expw = np.exp(w - shift[point])
    denom = scatter_sum(point, expw, n)
    with np.errstate(divide="ignore"):
        log_norm = shift + np.log(denom)
    undefined = ~np.isfinite(log_norm) | (log_norm - 1.5 * _LOG_2PI < _LOG_GMM_FLOOR)
    rho = expw / np.where(denom > 0.0, denom, 1.0)[point]
    e = scatter_sum(point, rho * values, n)
    e[undefined] = 1.0 / num_classes
    return e, rho, undefined


def additive_logits(pairs: _Pairs, d2: np.ndarray, opacities, logits, n: int) -> np.ndarray:
    """(n, channels) additive-model outputs: per point the sum of
    ``opacity * exp(-d2 / 2) * logits`` over its pairs."""
    g = opacities[pairs.gauss] * np.exp(-0.5 * d2)
    return scatter_sum(pairs.point, g * np.take(np.ascontiguousarray(logits.T), pairs.gauss, axis=1), n)


class FieldEvaluator:
    """Batch evaluator binding one GaussianSet to one EvalOptions.

    Precomputes the rotations, log mixture weights and softmaxed semantics
    once, and checks that every cutoff box is finite. All methods take an
    (N, 3) array of query points or the :class:`VoxelCenters` of a grid
    and are pure. Arbitrary points are evaluated in chunks of ``chunk``
    points (fewer without a cutoff, where every pair is visited) through
    the cell join, which is built on first use. Voxel centers are built
    and evaluated one span of whole x-rows at a time: with a cutoff the
    spans and their pairs come from :class:`_VoxelLattice`, without one
    each :func:`_row_spans` span is cut into chunks as arbitrary points
    are.
    """

    def __init__(self, gs: GaussianSet, opts: EvalOptions | None = None, chunk: int = _DEFAULT_CHUNK):
        self.gs = gs
        self.opts = opts or EvalOptions()
        self._means = gs.means
        self._rot = rotation_matrices(gs.rotations)
        self._scales = gs.scales
        self._log_weight = log_mixture_weights(gs.opacities, gs.scales)
        self._sem_t = np.ascontiguousarray(softmax(gs.logits).T)
        self._cutoff = self.opts.cutoff
        if np.isfinite(self._cutoff):
            _cutoff_boxes(self._means, _cov_diag(self._rot, self._scales), self._cutoff)
            self._step = int(chunk)
        else:
            self._step = max(1, min(int(chunk), _PAIR_BUDGET // len(gs)))

    @cached_property
    def _index(self) -> _CellIndex:
        return _CellIndex(self._means, _cov_diag(self._rot, self._scales), self._cutoff)

    # -- low-level blocks --------------------------------------------------

    def _d2(self, points: np.ndarray, pairs: _Pairs) -> np.ndarray:
        """d2 of every candidate pair of one chunk, in the local-frame form
        ``sum(((R^T (x - m)) / s)^2)`` of the primitive-level distance."""
        return _squared_norms(_local_coords(points, pairs, self._means, self._rot, self._scales))

    def _live(self, points: np.ndarray, candidates: _Pairs) -> tuple[_Pairs, np.ndarray]:
        d2 = self._d2(points, candidates)
        keep = d2 <= self._cutoff
        if np.all(keep):
            return candidates, d2
        return candidates.select(keep), np.compress(keep, d2)

    def _chunks(self, points) -> Iterator[tuple[slice, _Pairs, np.ndarray]]:
        """Yield (rows, live pairs, their d2) per chunk of query points;
        pair point indices count from the chunk's first row. Voxel centers
        with a cutoff take the lattice spans, other points the cell join,
        and without a cutoff every pair is visited."""
        if not isinstance(points, VoxelCenters):
            yield from self._point_chunks(points, 0)
            return
        row = int(points.resolution[1] * points.resolution[2])
        if not np.isfinite(self._cutoff):
            for start, stop in _row_spans(points.resolution):
                yield from self._point_chunks(points.rows(start, stop), start * row)
            return
        lattice = _VoxelLattice(self._means, self._rot, self._scales, self._cutoff, points, _SPAN_PAIRS,
                                _SPAN_VOXELS)
        for start, stop in lattice.spans:
            centers, candidates = lattice.span_pairs(start, stop)
            yield slice(start * row, stop * row), *self._live(centers, candidates)

    def _point_chunks(self, points: np.ndarray, first: int) -> Iterator[tuple[slice, _Pairs, np.ndarray]]:
        """:meth:`_chunks` over an (N, 3) array whose first row is query
        point ``first``."""
        for start in range(0, points.shape[0], self._step):
            chunk = points[start : start + self._step]
            if np.isfinite(self._cutoff):
                pairs, d2 = self._live(chunk, self._index.pairs(chunk))
            else:
                pairs = _Pairs.every(len(self.gs), chunk.shape[0])
                d2 = self._d2(chunk, pairs)
            yield slice(first + start, first + start + chunk.shape[0]), pairs, d2

    def _fill(self, points, row_shape: tuple, rows_of, dtype=np.float64) -> np.ndarray:
        """(N, *row_shape) array of ``rows_of(pairs, d2, n)`` over the chunks
        of ``points``: the one chunk loop of the public methods."""
        if isinstance(points, VoxelCenters):
            n = points.num_voxels
        else:
            points = np.atleast_2d(np.asarray(points, dtype=np.float64))
            n = points.shape[0]
        out = np.empty((n,) + row_shape, dtype=dtype)
        for rows, pairs, d2 in self._chunks(points):
            out[rows] = rows_of(pairs, d2, rows.stop - rows.start)
        return out

    def _alpha(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        alpha = -np.expm1(scatter_sum(pairs.point, log1mexp(0.5 * d2), n))
        # The aggregate can never fall below the largest single term; guard
        # against the one-ulp loss of the exp/log round trip.
        nearest = np.full(n, np.inf)
        np.minimum.at(nearest, pairs.point, d2)
        return np.clip(np.maximum(alpha, np.exp(-0.5 * nearest)), 0.0, 1.0)

    def _semantics(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        w = self._log_weight[pairs.gauss] - 0.5 * d2
        sem = np.take(self._sem_t, pairs.gauss, axis=1)
        return gmm_expectation(w, pairs.point, sem, n, self.gs.num_classes)[0]

    def _compose(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        return _composed(self._alpha(pairs, d2, n), self._semantics(pairs, d2, n))

    def _compose_label(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        """Argmax of :meth:`_compose`, with semantics only where alpha can
        win: below 1/2 the empty class does, since ``1 - alpha > 1/2 >
        alpha * e_k``; the margin covers ``e_k`` rounding above 1."""
        a = self._alpha(pairs, d2, n)
        labels = np.zeros(n, dtype=np.int64)
        contested = a > _EMPTY_ALPHA
        if np.any(contested):
            keep = contested[pairs.point]
            e = self._semantics(pairs.select(keep), np.compress(keep, d2), n)
            labels[contested] = np.argmax(_composed(a[contested], e[contested]), axis=1)
        return labels

    def _legacy(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        return additive_logits(pairs, d2, self.gs.opacities, self.gs.logits, n)

    def _require_opacity(self):
        if not np.any(self.gs.opacities > 0.0):
            raise ValueError("invalid set: all opacities are zero, mixture prior is undefined")

    # -- public batch API --------------------------------------------------

    def alpha(self, points) -> np.ndarray:
        """(N,) aggregate occupancy probabilities."""
        return self._fill(points, (), self._alpha)

    def semantics(self, points) -> np.ndarray:
        """(N, C) mixture-expected class distributions."""
        self._require_opacity()
        return self._fill(points, (self.gs.num_classes,), self._semantics)

    def compose(self, points) -> np.ndarray:
        """(N, C + 1) composed predictions, empty class first."""
        self._require_opacity()
        return self._fill(points, (self.gs.num_classes + 1,), self._compose)

    def legacy(self, points) -> np.ndarray:
        """(N, channels) additive-model outputs; raw, unnormalized."""
        return self._fill(points, (self.gs.num_classes,), self._legacy)

    def compose_labels(self, points) -> np.ndarray:
        """(N,) uint16 argmax of :meth:`compose`; ties go to the lowest class."""
        self._require_opacity()
        return self._fill(points, (), self._compose_label, np.uint16)

    def legacy_labels(self, points) -> np.ndarray:
        """(N,) uint16 argmax of :meth:`legacy`."""
        return self._fill(points, (), lambda pairs, d2, n: np.argmax(self._legacy(pairs, d2, n), axis=1), np.uint16)


def _composed(alpha: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The composed prediction ``[1 - alpha, alpha * e]``, empty class first."""
    return np.column_stack([1.0 - alpha, alpha[:, None] * e])


# -- single-point operations ----------------------------------------------


def single_occupancy_prob(x, g: GaussianPrimitive) -> float:
    """Occupancy probability induced by one Gaussian: ``exp(-d2/2)``,
    exactly 1 at the center."""
    return float(np.exp(-0.5 * mahalanobis_sq(x, g)))


def aggregate_geometry(x, gs: GaussianSet, opts: EvalOptions | None = None) -> float:
    """Overall occupancy probability ``1 - prod(1 - alpha_i)`` at a point."""
    return float(FieldEvaluator(gs, opts).alpha(np.asarray(x, dtype=np.float64)[None, :])[0])


def gmm_semantics(x, gs: GaussianSet, opts: EvalOptions | None = None) -> np.ndarray:
    """Expected class distribution at a point under the Gaussian mixture."""
    return FieldEvaluator(gs, opts).semantics(np.asarray(x, dtype=np.float64)[None, :])[0]


def compose_occupancy(x, gs: GaussianSet, opts: EvalOptions | None = None) -> np.ndarray:
    """Composed (C + 1)-way prediction at a point, empty class first."""
    return FieldEvaluator(gs, opts).compose(np.asarray(x, dtype=np.float64)[None, :])[0]


def legacy_additive(x, gs_with_empty: GaussianSet, opts: EvalOptions | None = None) -> np.ndarray:
    """Additive-model output at a point.

    The set's logits must carry the empty class as channel 0; the result
    is an unnormalized, unbounded accumulation.
    """
    return FieldEvaluator(gs_with_empty, opts).legacy(np.asarray(x, dtype=np.float64)[None, :])[0]


def sample_field(x, gs: GaussianSet, opts: EvalOptions | None = None) -> FieldSample:
    """Bundle geometry, semantics and the composed prediction at a point."""
    ev = FieldEvaluator(gs, opts)
    point = np.asarray(x, dtype=np.float64)[None, :]
    e, alpha = ev.semantics(point), ev.alpha(point)
    full = _composed(alpha, e)
    return FieldSample(geometry_prob=float(alpha[0]), semantics_expectation=e[0], full_prediction=full[0])
