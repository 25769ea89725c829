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

Every evaluation runs on a list of (Gaussian, point) pairs, and per-point
and per-Gaussian sums run over that list. A pair list stores each pair's
point and each Gaussian's segment bounds; a pair's Gaussian is implied by
its segment. Per-point sums scatter onto the pairs' points
(:func:`scatter_sum`); per-Gaussian sums, which the fit's backward pass
takes, are segment sums (:meth:`_Pairs.sum`). One of two generators lists
the candidate pairs, chosen by the kind of query points:

* arbitrary points (Monte Carlo samples, fit batches, the public
  :class:`FieldEvaluator` methods on an array): a cell join
  (:class:`_CellIndex`) lists the pairs inside each Gaussian's cutoff
  bounding box, or every pair is listed when there is no cutoff;
* the voxel centers of a grid (:class:`VoxelCenters`, which ``voxelize``,
  ``voxelize_legacy``, ``gaussocc eval`` and the fit's evaluations pass):
  :class:`_VoxelLattice` lists, from voxel index ranges, the voxels whose
  centers lie in the cutoff ellipsoid, bounded in closed form per x-row
  and per (x, y) column, and yields each pair's offset ``x - m`` from the
  per-row, per-column and per-Gaussian differences it has already taken,
  without building the centers.

Both bound the ellipsoid from outside with a padded cutoff (without one,
every pair is a candidate), and the pairs beyond the cutoff are then
dropped by the same ``d2 <= cutoff`` test on the same local-frame d2, so
both give the same live pairs and skip only terms that are exactly zero.
Each point's pairs come in ascending Gaussian order from either
generator, so every per-point sum adds the same values in the same order
and gives the same bits.

One planner, :func:`_ranges`, cuts every pass into contiguous ranges of
rows whose candidate pairs, bounded before any pair is listed, number at
most :data:`_SPAN_PAIRS`; a row with more than that is a range by itself.
For arbitrary points a row is a point, its bound is its count of
candidates from the cell join's columns (P without a cutoff), and a range
holds at most ``chunk`` points. For voxel centers a row is an x-row of
the grid, its bound is :class:`_VoxelLattice`'s per-x-row bound, and a
range (a span) holds at most :data:`_SPAN_VOXELS` voxels or one x-row.
The fit's loss and gradient take their whole batch at once.

A candidate pair holds, at a pass's peak, its point index (8 bytes) and
its (M, 3) offsets (24), which :func:`_scaled_local` turns into the local
frame in place, plus one (M,) temporary (8): about 40 bytes in a lattice
span or a range of points. :func:`live_pairs` keeps the local offsets
for the fit's backward pass, so d2 takes a scratch column (48 bytes), and
copying the live pairs out adds about 48 bytes per live pair while the
candidate offsets are still held. Sums over classes or channels run one
at a time, so no pass builds a (C, M) array.

Voxel labels take the exact occupancy and semantics only at the voxels
that a one-``exp``-per-pair upper bound on the occupancy leaves open
(:meth:`FieldEvaluator._compose_label`). The fitting loss of
:mod:`gaussocc.fit` runs on the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import GaussianPrimitive, GaussianSet, _count, _finite_points, mahalanobis_sq, rotation_matrices

# Below this density the mixture posterior is treated as undefined and the
# expectation falls back to the uniform class distribution.
GMM_DENOMINATOR_FLOOR = 1e-300

_LOG_GMM_FLOOR = np.log(GMM_DENOMINATOR_FLOOR)
_LOG_2PI = np.log(2.0 * np.pi)
_DEFAULT_CHUNK = 8192
# Candidate pairs per lattice span and per range of arbitrary points,
# bounded before the pairs are listed.
_SPAN_PAIRS = 1 << 17
# Voxels per span of whole x-rows when voxelization lists a grid's lattice pairs.
_SPAN_VOXELS = 1 << 17
# Voxels at or below this alpha are labelled empty without their semantics.
_EMPTY_ALPHA = 0.5 - 1e-9
# The unit roundoff of float64, in the margin of the label bound.
_UNIT_ROUNDOFF = 2.0**-53
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
    """log(1 - exp(-a)) for a >= 0, accurate at both ends; -inf at a = 0.
    ``log(-expm1(-a))`` below ln 2 and ``log1p(-exp(-a))`` above, each
    computed in place in one buffer."""
    a = np.asarray(a, dtype=np.float64)
    small, large = np.empty_like(a), np.empty_like(a)
    np.negative(np.minimum(a, _LN2, out=small), out=small)
    np.negative(np.expm1(small, out=small), out=small)
    np.negative(np.maximum(a, _LN2, out=large), out=large)
    np.negative(np.exp(large, out=large), out=large)
    with np.errstate(divide="ignore"):
        np.log(small, out=small)
        np.log1p(large, out=large)
    np.copyto(large, small, where=a < _LN2)
    return large


@dataclass(frozen=True)
class EvalOptions:
    """Evaluation policy shared by all field operations.

    ``cutoff_mahalanobis_sq`` drops any Gaussian whose squared Mahalanobis
    distance to the query point exceeds it (contribution exactly zero);
    ``None`` or ``inf`` disables the cutoff: every pair is a candidate of
    the same pair kernel. ``neighbor_index`` is still accepted but no
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
    """(Gaussian, point) pairs grouped by Gaussian. A pair list stores each
    pair's point and each Gaussian's segment bounds; a pair's Gaussian is
    implied by its segment: Gaussian ``g`` has ``point[bounds[g]:bounds[g + 1]]``."""

    point: np.ndarray
    bounds: np.ndarray

    @classmethod
    def every(cls, num_gaussians: int, num_points: int) -> "_Pairs":
        return cls(np.tile(np.arange(num_points), num_gaussians), np.arange(num_gaussians + 1) * num_points)

    @property
    def counts(self) -> np.ndarray:
        """(P,) pairs per Gaussian."""
        return np.diff(self.bounds)

    def spread(self, per_gaussian: np.ndarray, axis: int = 0) -> np.ndarray:
        """Each pair's entry of ``per_gaussian`` along ``axis`` (a repeat: faster than a gather)."""
        return np.repeat(per_gaussian, self.counts, axis=axis)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-Gaussian sums of per-pair ``values`` along the last axis:
        (M,) -> (P,), or (k, M) -> (k, P). One ``np.add.reduceat`` over the
        non-empty segments; an empty segment sums to 0 (``reduceat`` would
        return the next pair's value)."""
        counts = self.counts
        out = np.zeros(values.shape[:-1] + counts.shape)
        full = np.flatnonzero(counts)
        if full.size:
            out[..., full] = np.add.reduceat(values, self.bounds[full], axis=-1)
        return out

    def select(self, keep: np.ndarray) -> "_Pairs":
        """The pairs where ``keep`` holds; the new bounds are the running
        sums of each segment's kept count, so no per-pair index is built."""
        kept = np.zeros(self.bounds.size - 1, dtype=np.int64)
        full = np.flatnonzero(self.counts)
        if full.size:
            kept[full] = np.add.reduceat(keep, self.bounds[full], dtype=np.int64)
        return _Pairs(np.compress(keep, self.point), np.concatenate([[0], np.cumsum(kept)]))

    def within(self, d2: np.ndarray, cutoff: float) -> tuple["_Pairs", np.ndarray]:
        """``(pairs, d2)`` of the pairs with ``d2 <= cutoff``."""
        keep = d2 <= cutoff
        if np.all(keep):
            return self, d2
        return self.select(keep), np.compress(keep, d2)

    def restrict(self, d2: np.ndarray, mask: np.ndarray) -> tuple["_Pairs", np.ndarray, np.ndarray]:
        """The pairs of the points where ``mask`` holds, those points
        renumbered ``0..k-1`` in order, with their ``d2`` and the points'
        indices. Each point keeps its pairs in their order."""
        keep = np.take(mask, self.point)
        sub = self.select(keep)
        rank = np.cumsum(mask) - 1
        return sub._replace(point=np.take(rank, sub.point)), np.compress(keep, d2), np.flatnonzero(mask)


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs ``first[i], first[i] + 1, ..., first[i] + count[i] - 1``,
    concatenated in order: each run's start less its position, repeated,
    plus the positions added in place, so one (M,) temporary at most."""
    ends = np.cumsum(count)
    out = np.repeat(first - (ends - count), count)
    out += np.arange(out.size)
    return out


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
        g = np.repeat(np.arange(p), columns)
        j = _runs(np.zeros_like(columns), columns)
        ix = first[g, 0] + j // span[g, 1]
        iy = first[g, 1] + j % span[g, 1]
        base = (ix * self.shape[1] + iy) * self.shape[2]
        self.key_lo = base + first[g, 2]
        self.key_hi = base + last[g, 2] + 1

    def _keys(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``points`` inside the index's extent, and their cell keys."""
        inside = np.flatnonzero(np.all((points >= self.origin) & (points <= self.top), axis=1))
        cells = np.floor((points[inside] - self.origin) / self.cell).astype(np.int64)
        return inside, (cells[:, 0] * self.shape[1] + cells[:, 1]) * self.shape[2] + cells[:, 2]

    @cached_property
    def _sorted_key_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.sort(self.key_lo), np.sort(self.key_hi)

    def counts(self, points: np.ndarray) -> np.ndarray:
        """(N,) candidates per point of ``points``, counted without listing
        a pair: the columns whose ``[key_lo, key_hi)`` holds the point's
        cell key, i.e. those with ``key_lo <= key`` less those with ``key_hi
        <= key`` (a column's ``key_lo`` is below its ``key_hi``). The keys
        are sorted first: binary searches for ascending keys walk the bounds
        in order, several times faster than in random order."""
        inside, keys = self._keys(points)
        order = np.argsort(keys)
        keys = keys[order]
        lo, hi = self._sorted_key_bounds
        found = np.searchsorted(lo, keys, "right")
        found -= np.searchsorted(hi, keys, "right")
        counts = np.zeros(points.shape[0], dtype=np.int64)
        counts[inside[order]] = found
        return counts

    def pairs(self, points: np.ndarray) -> _Pairs:
        """Candidate pairs of ``points``: each Gaussian with the points in
        its columns."""
        inside, keys = self._keys(points)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        start = np.searchsorted(keys, self.key_lo)
        count = np.searchsorted(keys, self.key_hi) - start
        pair_ends = np.concatenate([[0], np.cumsum(count)])
        return _Pairs(np.take(inside[order], _runs(start, count)), pair_ends[self.column_bounds])


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

    def _coordinate(self, a: int, index) -> np.ndarray:
        """Center coordinates along axis ``a`` of the voxel indices ``index``."""
        return self.min_corner[a] + (index + 0.5) * self.voxel_size[a]

    def axes(self) -> list[np.ndarray]:
        """The center coordinates along each axis."""
        return [self._coordinate(a, np.arange(self.resolution[a])) for a in range(3)]

    def take(self, flat: np.ndarray) -> np.ndarray:
        """(N, 3) centers of the voxels with the given flat indices."""
        idx = np.unravel_index(flat, tuple(int(n) for n in self.resolution))
        return np.stack([self._coordinate(a, i) for a, i in enumerate(idx)], axis=-1)


class _VoxelLattice:
    """The candidate pairs between the Gaussians and the voxel centers of a
    grid, listed straight from voxel index ranges, one span of whole x-rows
    at a time; the evaluator plans the spans with :func:`_ranges` from
    ``row_bound``.

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
    cutoff is missed. An interval that is not finite (an overflow, or an
    infinite cutoff) covers its whole axis.

    Only the per-(Gaussian, x-row) stage is built for the whole grid, and
    from it ``row_bound``: each x-row's candidate pairs, bounded before
    expansion by each (Gaussian, x-row)'s column count times its
    Gaussian's z-box. One span is expanded to columns and pairs at a time.
    Pairs are grouped by Gaussian within a span, and each comes with its
    offset ``x - m``: the x-row's ``dx``, the column's ``dy`` and the
    ``az[iz] - m_z`` of a per-Gaussian table over its z-box, built once.
    These are the subtractions that :func:`_offsets` makes on the centers,
    so they give the same bits. A column's z-interval is clipped to its
    Gaussian's z-box, which drops only pairs beyond the padded cutoff.
    At an infinite cutoff the per-(Gaussian, x-row) stage has all P X rows,
    tens of MB for P = 6400 on the nuScenes grid, where the pass visits
    P 640,000 pairs.
    """

    def __init__(self, means, rot, scales, cutoff: float, centers: VoxelCenters):
        self.axes = centers.axes()
        self.centers = centers
        self.shape = tuple(int(n) for n in centers.resolution)
        self.means = means
        self.reach = cutoff * (1.0 + _BOX_PAD) ** 2
        p = means.shape[0]
        cov_diag = _cov_diag(rot, scales)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s2 = scales**2
            half_z = np.sqrt(cutoff * cov_diag[:, 2]) * (1.0 + _BOX_PAD)
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
        self.z0, self.z1 = self._range(2, means[:, 2], half_z)
        nz = np.maximum(self.z1 - self.z0 + 1, 0)
        self.dz = self.axes[2][_runs(self.z0, nz)] - np.repeat(means[:, 2], nz)
        self.dz_start = np.cumsum(nz) - nz - self.z0
        self.row_bound = np.bincount(self.ix, self.ny * nz[self.g], minlength=self.shape[0])

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

    def _columns(self, start: int, stop: int) -> tuple:
        """Per (Gaussian, x, y) column of x-rows ``start:stop``, in
        Gaussian order: its first point index, counting from the span's
        first voxel, its z count, the shift from a pair's point index to
        its index into the ``dz`` table, and the column's dx and dy; and
        the pairs per Gaussian."""
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
        z0, z1 = np.maximum(z0, self.z0[g]), np.minimum(z1, self.z1[g])
        nz = np.where(rem < 0.0, 0, np.maximum(z1 - z0 + 1, 0))
        first = ((self.ix[col] - start) * ny_all + iy) * nz_all + z0
        per_gauss = np.bincount(g, nz, minlength=self.means.shape[0]).astype(np.int64)
        return first, nz, self.dz_start[g] + z0 - first, self.dx[col], dy, per_gauss

    def span_pairs(self, start: int, stop: int) -> tuple[np.ndarray, _Pairs]:
        """The candidate pairs of x-rows ``start:stop``, point indices
        counting from the span's first voxel, and their (M, 3) offsets
        ``x - m``. Only the :meth:`_columns` outputs outlive the columns'
        bounds. A pair's index into the ``dz`` table is its point index
        plus its column's shift, so one run index serves both, and the
        expansion holds the points, the offsets and one (M,) temporary."""
        first, nz, shift, dx, dy, per_gauss = self._columns(start, stop)
        pairs = _Pairs(_runs(first, nz), np.concatenate([[0], np.cumsum(per_gauss)]))
        index = np.repeat(shift, nz)
        index += pairs.point
        dz = np.take(self.dz, index)
        del index
        offsets = np.empty((pairs.point.size, 3))
        offsets[:, 2] = dz
        del dz
        offsets[:, 0] = np.repeat(dx, nz)
        offsets[:, 1] = np.repeat(dy, nz)
        return offsets, pairs


def _ranges(ends: np.ndarray, step: int, budget: int) -> list[slice]:
    """Contiguous row ranges, in order, each of at most ``step`` rows whose
    counts, with cumulative sums ``ends``, sum to at most ``budget``; a row
    whose count alone exceeds that is a range by itself. A range takes each
    next row that fits. The one planner of every pass: a row is a point or
    an x-row of a voxel lattice, and its count bounds its candidate pairs."""
    ranges, start = [], 0
    while start < ends.size:
        before = int(ends[start - 1]) if start else 0
        stop = min(max(int(np.searchsorted(ends, before + budget, "right")), start + 1), start + step)
        ranges.append(slice(start, stop))
        start = stop
    return ranges


def _cov_diag(rot: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(P, 3) diagonals of the covariances ``R diag(s^2) R^T``; with a
    finite cutoff, an overflow here is rejected by :func:`_cutoff_boxes`."""
    with np.errstate(over="ignore"):
        return np.einsum("pab,pb,pab->pa", rot, scales**2, rot)


def _offsets(points, pairs: _Pairs, means) -> np.ndarray:
    """(M, 3) pair offsets ``x - m``: the points gathered per pair, then
    shifted one column at a time against the per-pair spread of that
    column of the means. (``np.take`` and ``np.compress`` gather several
    times faster than indexing.)"""
    diff = np.take(points, pairs.point, axis=0)
    for a in range(3):
        np.subtract(diff[:, a], pairs.spread(means[:, a]), out=diff[:, a])
    return diff


def _scaled_local(diff: np.ndarray, pairs: _Pairs, rot, scales) -> np.ndarray:
    """The (M, 3) pair offsets ``diff`` turned, in place, into the scaled
    local frame ``R^T (x - m) / s``, and returned; a row's squared norm is
    the pair's d2. Each Gaussian's segment is rotated by one ``np.dot``
    (the gemm of ``np.matmul``, with less dispatch) and copied back, so
    one segment at a time is held twice, and the scaling runs one column
    at a time against the per-pair spread of that column."""
    b = pairs.bounds.tolist()
    for g in np.flatnonzero(pairs.counts).tolist():
        segment = diff[b[g] : b[g + 1]]
        segment[...] = np.dot(segment, rot[g])
    for a in range(3):
        np.divide(diff[:, a], pairs.spread(scales[:, a]), out=diff[:, a])
    return diff


def _squared_norms(local: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Row sums of squares of (M, 3) ``local``, added into one output in
    the order ``np.sum(local**2, axis=1)`` uses. With ``overwrite`` the
    squares go into ``local`` itself; otherwise those of the last two
    columns go, one at a time, to one scratch column."""
    if overwrite:
        sq = np.multiply(local, local, out=local)
        d2 = np.add(sq[:, 0], sq[:, 1])
        d2 += sq[:, 2]
        return d2
    d2 = local[:, 0] * local[:, 0]
    scratch = np.empty_like(d2)
    for a in (1, 2):
        d2 += np.multiply(local[:, a], local[:, a], out=scratch)
    return d2


def live_pairs(points, means, rot, scales, cutoff: float) -> tuple[_Pairs, np.ndarray, np.ndarray]:
    """The pairs within the cutoff (every pair for an infinite cutoff),
    with their (M, 3) local offsets and d2. d2 and the pair list are cut
    to the live pairs first, each candidate copy let go at once, so the
    live offsets are copied out while the candidate offsets and the mask
    are all that is left of the candidates."""
    pairs = (_CellIndex(means, _cov_diag(rot, scales), cutoff).pairs(points) if np.isfinite(cutoff)
             else _Pairs.every(means.shape[0], points.shape[0]))
    local = _scaled_local(_offsets(points, pairs, means), pairs, rot, scales)
    d2 = _squared_norms(local)
    keep = d2 <= cutoff
    if np.all(keep):
        return pairs, local, d2
    d2 = np.compress(keep, d2)
    pairs = pairs.select(keep)
    return pairs, np.compress(keep, local, axis=0), d2


def scatter_sum(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum pair values onto the point each pair names, or onto another
    per-pair index that is not a segment (an endpoint of the audit's
    Gaussian pairs, the fit's flat (Gaussian, class) key): (M,) -> (n,), or
    (k, M) -> (n, k). Per-Gaussian sums of a pair list are :meth:`_Pairs.sum`."""
    if values.ndim == 2:
        return np.stack([scatter_sum(index, row, n) for row in values], axis=1)
    # bincount returns integers when there is nothing to sum.
    return np.bincount(index, values, minlength=n).astype(np.float64, copy=False)


def additive_sums(pairs: _Pairs, weights: np.ndarray, logits: np.ndarray, n: int) -> np.ndarray:
    """(n, C) per-point sums over the pairs of ``weights`` times the (P, C)
    ``logits`` of the pair's Gaussian: the additive model's outputs. One
    channel at a time, so no (C, M) array is built."""
    out = np.empty((n, logits.shape[1]))
    for c in range(logits.shape[1]):
        term = pairs.spread(logits[:, c])
        term *= weights
        out[:, c] = scatter_sum(pairs.point, term, n)
        del term  # before the next channel's is built
    return out


def log_mixture_weights(opacities: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(P,) log mixture weights ``log(opacity) - log(det Sigma) / 2``, with
    ``log(det Sigma) / 2 = sum(log s)``; -inf at zero opacity."""
    with np.errstate(divide="ignore"):
        return np.log(opacities) - np.sum(np.log(scales), axis=1)


def gmm_expectation(w, point, columns, n: int, num_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixture-posterior expectation of per-pair class probabilities, given
    as ``columns``, an iterable of (M,) arrays taken one class at a time,
    from the pairs' log weights ``w = log_mixture_weights - d2 / 2``.

    Returns ``(e, rho, undefined)``: the (n, k) expectation of the k
    columns, the posterior (it sums to 1 over each point's pairs) and the
    points with no live Gaussian or a mixture density, with its ``(2
    pi)^{-3/2}`` normalizer, below :data:`GMM_DENOMINATOR_FLOOR`; there
    ``e`` is the uniform ``1 / num_classes``.
    """
    wmax = np.full(n, -np.inf)
    np.maximum.at(wmax, point, w)
    shift = np.where(np.isfinite(wmax), wmax, 0.0)
    rho = np.subtract(w, np.take(shift, point))
    np.exp(rho, out=rho)
    denom = scatter_sum(point, rho, n)
    with np.errstate(divide="ignore"):
        log_norm = shift + np.log(denom)
    undefined = ~np.isfinite(log_norm) | (log_norm - 1.5 * _LOG_2PI < _LOG_GMM_FLOOR)
    rho /= np.take(np.where(denom > 0.0, denom, 1.0), point)
    e = np.stack([scatter_sum(point, rho * column, n) for column in columns], axis=1)
    e[undefined] = 1.0 / num_classes
    return e, rho, undefined


class FieldEvaluator:
    """Batch evaluator binding one GaussianSet to one EvalOptions.

    Precomputes the rotations, log mixture weights and softmaxed semantics
    once, and checks that every cutoff box is finite. All methods take an
    (N, 3) array of query points or the :class:`VoxelCenters` of a grid
    and are pure; an array that is not (N, 3) or holds a non-finite
    coordinate raises ValueError. Arbitrary points are evaluated in
    contiguous ranges of at most ``chunk`` points (an integer >= 1) and
    about :data:`_SPAN_PAIRS` candidate pairs, counted per point before the
    pairs are listed (one point may exceed it alone), through the cell
    join, which is built on first use, or every pair. Voxel centers are
    evaluated one span of whole x-rows at a time, from the pairs of
    :class:`_VoxelLattice`. Both cut their ranges with :func:`_ranges`.
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
        self._step = _count(chunk, "chunk")
        if np.isfinite(self._cutoff):
            _cutoff_boxes(self._means, _cov_diag(self._rot, self._scales), self._cutoff)

    @cached_property
    def _index(self) -> _CellIndex:
        return _CellIndex(self._means, _cov_diag(self._rot, self._scales), self._cutoff)

    # -- low-level blocks --------------------------------------------------

    def _d2(self, diff: np.ndarray, pairs: _Pairs) -> np.ndarray:
        """d2 of every candidate pair of one chunk from its offsets
        ``x - m``, in the local-frame form ``sum(((R^T (x - m)) / s)^2)`` of
        the primitive-level distance."""
        return _squared_norms(_scaled_local(diff, pairs, self._rot, self._scales), overwrite=True)

    def _chunks(self, points) -> Iterator[tuple[slice, _Pairs, np.ndarray]]:
        """Yield (rows, live pairs, their d2) per chunk of query points;
        pair point indices count from the chunk's first row. Voxel centers
        take the :func:`_ranges` of the lattice's per-x-row bounds and its
        span pairs, other points the :func:`_ranges` of their candidate
        counts and :meth:`_point_pairs`, and every chunk then takes the same
        d2 and cutoff test. The generators hold no reference to a chunk's
        offsets or candidates once yielded, so each is freed as soon as it
        is used, and a chunk's live pairs go before the next chunk's are
        listed."""
        if isinstance(points, VoxelCenters):
            row = int(points.resolution[1] * points.resolution[2])
            lattice = _VoxelLattice(self._means, self._rot, self._scales, self._cutoff, points)
            spans = _ranges(np.cumsum(lattice.row_bound), max(1, _SPAN_VOXELS // row), _SPAN_PAIRS)
            chunks = ((slice(x.start * row, x.stop * row), *lattice.span_pairs(x.start, x.stop)) for x in spans)
        else:
            # Cumulative candidate counts; without a cutoff every point has P.
            ranges = _ranges(np.cumsum(self._index.counts(points)) if np.isfinite(self._cutoff)
                             else len(self.gs) * np.arange(1, points.shape[0] + 1), self._step, _SPAN_PAIRS)
            chunks = ((rows, *self._point_pairs(points[rows])) for rows in ranges)
        for rows, offsets, candidates in chunks:
            d2 = self._d2(offsets, candidates)
            del offsets
            pairs, d2 = candidates.within(d2, self._cutoff)
            del candidates
            yield rows, pairs, d2
            del pairs, d2

    def _point_pairs(self, points: np.ndarray) -> tuple[np.ndarray, _Pairs]:
        """The (M, 3) offsets ``x - m`` and candidate pairs of a chunk of
        points: the cell join's, or every pair without a cutoff."""
        pairs = self._index.pairs(points) if np.isfinite(self._cutoff) else _Pairs.every(len(self.gs), points.shape[0])
        return _offsets(points, pairs, self._means), pairs

    def _fill(self, points, row_shape: tuple, rows_of, dtype=np.float64) -> np.ndarray:
        """(N, *row_shape) array of ``rows_of(pairs, d2, n)`` over the chunks
        of ``points``: the one chunk loop of the public methods."""
        if isinstance(points, VoxelCenters):
            n = points.num_voxels
        else:
            points = _finite_points(points)
            n = points.shape[0]
        out = np.empty((n,) + row_shape, dtype=dtype)
        for rows, pairs, d2 in self._chunks(points):
            out[rows] = rows_of(pairs, d2, rows.stop - rows.start)
            del pairs, d2
        return out

    def _alpha(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        alpha = -np.expm1(scatter_sum(pairs.point, log1mexp(0.5 * d2), n))
        # The aggregate can never fall below the largest single term; guard
        # against the one-ulp loss of the exp/log round trip.
        nearest = np.full(n, np.inf)
        np.minimum.at(nearest, pairs.point, d2)
        return np.clip(np.maximum(alpha, np.exp(-0.5 * nearest)), 0.0, 1.0)

    def _semantics(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        """(n, C) mixture expectation, summed one class at a time."""
        w = pairs.spread(self._log_weight) - 0.5 * d2
        columns = (pairs.spread(row) for row in self._sem_t)
        return gmm_expectation(w, pairs.point, columns, n, self.gs.num_classes)[0]

    def _compose(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        return _composed(self._alpha(pairs, d2, n), self._semantics(pairs, d2, n))

    def _compose_label(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        """Argmax of :meth:`_compose`, with the exact terms only where the
        label is open.

        At or below :data:`_EMPTY_ALPHA` the empty class wins, since
        ``1 - alpha > 1/2 > alpha * e_k``; the 1e-9 covers ``e_k`` rounding
        above 1. With ``a_i = exp(-d2_i / 2)``, ``alpha = 1 - prod(1 - a_i)
        <= sum a_i``, so the sum, one ``exp`` per pair and one bincount,
        bounds alpha from above. Computed, it may fall below the computed
        alpha by rounding, by at most a few ulps per term: with ``u =
        2^-53`` and ``m <= P`` terms at a voxel, the sum and each ``exp``
        lose at most ``(m + 1) u`` of the bound relatively. The log-survival
        sum gains at most ``(m + 8) u`` relatively, from its additions and
        the few ulps of each ``log1mexp`` term, and is at most ``ln 2``
        where alpha is at most 1/2, so ``-expm1`` adds under ``(m + 8) u``
        to alpha; the nearest-term guard is one of the summed terms. A
        voxel whose sum is at most ``_EMPTY_ALPHA - 4 (P + 8) u`` therefore
        has a computed alpha at most :data:`_EMPTY_ALPHA` and is empty; the
        margin stays below 1e-9 for P up to about 10^6. Alpha is then
        computed on the pairs of the open voxels, and the semantics on those
        of the voxels it contests. Each voxel keeps its pairs in their
        order, so both have the bits of the full evaluation.
        """
        labels = np.zeros(n, dtype=np.int64)
        terms = np.multiply(d2, -0.5)
        bound = scatter_sum(pairs.point, np.exp(terms, out=terms), n)
        del terms
        pairs, d2, open_ = pairs.restrict(d2, bound > _EMPTY_ALPHA - 4.0 * (len(self.gs) + 8) * _UNIT_ROUNDOFF)
        del bound
        a = self._alpha(pairs, d2, open_.size)
        contested = a > _EMPTY_ALPHA
        if not np.any(contested):
            return labels
        pairs, d2, won = pairs.restrict(d2, contested)
        e = self._semantics(pairs, d2, won.size)
        del pairs, d2
        labels[open_[won]] = np.argmax(_composed(a[won], e), axis=1)
        return labels

    def _legacy(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        """(n, channels) additive-model outputs: per point the sum of
        ``opacity * exp(-d2 / 2) * logits`` over its pairs, one channel at a
        time."""
        g = np.multiply(d2, -0.5)
        np.exp(g, out=g)
        g *= pairs.spread(self.gs.opacities)
        return additive_sums(pairs, g, self.gs.logits, n)

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

    def covered(self, points) -> np.ndarray:
        """(N,) bool: whether some Gaussian lies within the cutoff of each
        point, i.e. the point has a live pair; found without evaluating the
        field."""
        return self._fill(points, (), lambda pairs, d2, n: np.bincount(pairs.point, minlength=n) > 0, bool)

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
