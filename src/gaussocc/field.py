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
Gaussian. With a finite cutoff, a cell join (:class:`_CellIndex`) lists
only the pairs inside each Gaussian's cutoff bounding box, and the pairs
beyond the cutoff are then dropped; both skip only terms that are exactly
zero. Without a cutoff every pair is visited, in chunks of bounded size.
Per-point and per-Gaussian sums run over the pair list. The fitting loss
of :mod:`gaussocc.fit` runs on the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    GaussianPrimitive,
    GaussianSet,
    log_determinants,
    mahalanobis_sq,
    rotation_matrices,
)

# Below this density the mixture posterior is treated as undefined and the
# configured fallback takes over.
GMM_DENOMINATOR_FLOOR = 1e-300

_LOG_GMM_FLOOR = np.log(GMM_DENOMINATOR_FLOOR)
_LOG_2PI = np.log(2.0 * np.pi)
_DEFAULT_CHUNK = 8192
# Pairs per chunk when every (Gaussian, point) pair is visited (no cutoff).
_PAIR_BUDGET = 1 << 20
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
    longer changes speed or results. ``gmm_fallback`` names the policy for
    points where the mixture denominator vanishes; only ``"uniform"`` is
    defined.
    """

    cutoff_mahalanobis_sq: Optional[float] = 25.0
    neighbor_index: bool = False
    gmm_fallback: str = "uniform"

    def __post_init__(self):
        c = self.cutoff_mahalanobis_sq
        if c is not None and not c > 0.0:
            raise ValueError(f"cutoff_mahalanobis_sq must be > 0, got {c}")
        if self.gmm_fallback != "uniform":
            raise ValueError(f"unknown gmm_fallback policy {self.gmm_fallback!r}")

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
        half = np.sqrt(cutoff * cov_diag) * (1.0 + _BOX_PAD)  # (P, 3)
        lo, hi = means - half, means + half
        finite = np.all(np.isfinite(lo) & np.isfinite(hi), axis=1)
        if not np.all(finite):
            raise ValueError(f"Gaussian {int(np.argmin(finite))} has a non-finite cutoff box")
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
        self.column_gauss = np.repeat(np.arange(p), columns)
        g = self.column_gauss
        j = np.arange(g.size) - self.column_bounds[g]
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
        start = np.zeros(self.key_lo.size, dtype=np.int64)
        count = np.zeros_like(start)
        if keys.size:
            # Only the columns that overlap the points' key range are searched.
            near = np.flatnonzero((self.key_hi > keys[0]) & (self.key_lo <= keys[-1]))
            start[near] = np.searchsorted(keys, self.key_lo[near])
            count[near] = np.searchsorted(keys, self.key_hi[near]) - start[near]
        ends = np.cumsum(count)
        pos = np.repeat(start - (ends - count), count) + np.arange(ends[-1])
        pair_ends = np.concatenate([[0], ends])
        return _Pairs(
            np.repeat(self.column_gauss, count),
            inside[order[pos]],
            pair_ends[self.column_bounds],
        )


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


def per_gaussian(pairs: _Pairs, values: np.ndarray) -> np.ndarray:
    """Sum pair values onto their Gaussians: (M, ...) -> (P, ...)."""
    b = pairs.bounds
    out = np.zeros((b.size - 1,) + values.shape[1:])
    nonempty = np.flatnonzero(b[1:] > b[:-1])
    if nonempty.size:
        out[nonempty] = np.add.reduceat(values, b[nonempty], axis=0)
    return out


def gmm_posterior(w: np.ndarray, point: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixture posterior of each pair from its log weight
    ``log(opacity) - log(det Sigma) / 2 - d2 / 2``.

    Returns ``(rho, undefined)``: ``rho`` sums to 1 over the pairs of each
    of the ``n`` points, and ``undefined`` flags the points where the
    caller's fallback replaces it: no live Gaussian, or a mixture density,
    with its ``(2 pi)^{-3/2}`` normalizer, below
    :data:`GMM_DENOMINATOR_FLOOR`.
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
    return rho, undefined


def additive_logits(pairs: _Pairs, d2: np.ndarray, opacities, logits, n: int) -> np.ndarray:
    """(n, channels) additive-model outputs: per point the sum of
    ``opacity * exp(-d2 / 2) * logits`` over its pairs."""
    g = opacities[pairs.gauss] * np.exp(-0.5 * d2)
    return scatter_sum(pairs.point, g * np.take(np.ascontiguousarray(logits.T), pairs.gauss, axis=1), n)


class FieldEvaluator:
    """Batch evaluator binding one GaussianSet to one EvalOptions.

    Precomputes the rotations, log mixture weights, softmaxed semantics
    and, with a finite cutoff, the cell join once; all methods take an
    (N, 3) array of query points, evaluate it in chunks of ``chunk`` points
    (fewer without a cutoff, where every pair is visited) and are pure and
    thread-safe.
    """

    def __init__(self, gs: GaussianSet, opts: EvalOptions | None = None, chunk: int = _DEFAULT_CHUNK):
        self.gs = gs
        self.opts = opts or EvalOptions()
        self._means = gs.means
        self._rot = rotation_matrices(gs.rotations)
        self._scales = gs.scales
        with np.errstate(divide="ignore"):
            self._log_weight = np.log(gs.opacities) - 0.5 * log_determinants(gs)
        self._sem_t = np.ascontiguousarray(softmax(gs.logits).T)
        self._cutoff = self.opts.cutoff
        if np.isfinite(self._cutoff):
            self._index = _CellIndex(self._means, _cov_diag(self._rot, self._scales), self._cutoff)
            self._step = int(chunk)
        else:
            self._index = None
            self._step = max(1, min(int(chunk), _PAIR_BUDGET // len(gs)))

    # -- low-level blocks --------------------------------------------------

    def _d2(self, points: np.ndarray, pairs: _Pairs) -> np.ndarray:
        """d2 of every candidate pair of one chunk, in the local-frame form
        ``sum(((R^T (x - m)) / s)^2)`` of the primitive-level distance."""
        return _squared_norms(_local_coords(points, pairs, self._means, self._rot, self._scales))

    def _chunks(self, points: np.ndarray) -> Iterator[tuple[slice, _Pairs, np.ndarray]]:
        """Yield (rows, live pairs, their d2) per chunk of query points;
        pair point indices count from the chunk's first row."""
        for start in range(0, points.shape[0], self._step):
            chunk = points[start : start + self._step]
            if self._index is None:
                pairs = _Pairs.every(len(self.gs), chunk.shape[0])
                d2 = self._d2(chunk, pairs)
            else:
                candidates = self._index.pairs(chunk)
                d2 = self._d2(chunk, candidates)
                keep = d2 <= self._cutoff
                pairs, d2 = candidates.select(keep), np.compress(keep, d2)
            yield slice(start, start + chunk.shape[0]), pairs, d2

    def _fill(self, points, row_shape: tuple, rows_of) -> np.ndarray:
        """(N, *row_shape) array of ``rows_of(pairs, d2, n)`` over the chunks
        of ``points``: the one chunk loop of the public methods."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.empty((points.shape[0],) + row_shape)
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
        rho, undefined = gmm_posterior(self._log_weight[pairs.gauss] - 0.5 * d2, pairs.point, n)
        e = scatter_sum(pairs.point, rho * np.take(self._sem_t, pairs.gauss, axis=1), n)
        e[undefined] = 1.0 / self.gs.num_classes
        return e

    def _compose(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        a = self._alpha(pairs, d2, n)
        return np.column_stack([1.0 - a, a[:, None] * self._semantics(pairs, d2, n)])

    def _legacy(self, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
        return additive_logits(pairs, d2, self.gs.opacities, self.gs.logits, n)

    def _require_opacity(self):
        if not np.any(self.gs.opacities > 0.0):
            raise ValueError("invalid set: all opacities are zero, mixture prior is undefined")

    # -- public batch API --------------------------------------------------

    def alpha(self, points: np.ndarray) -> np.ndarray:
        """(N,) aggregate occupancy probabilities."""
        return self._fill(points, (), self._alpha)

    def semantics(self, points: np.ndarray) -> np.ndarray:
        """(N, C) mixture-expected class distributions."""
        self._require_opacity()
        return self._fill(points, (self.gs.num_classes,), self._semantics)

    def compose(self, points: np.ndarray) -> np.ndarray:
        """(N, C + 1) composed predictions, empty class first."""
        self._require_opacity()
        return self._fill(points, (self.gs.num_classes + 1,), self._compose)

    def legacy(self, points: np.ndarray) -> np.ndarray:
        """(N, channels) additive-model outputs; raw, unnormalized."""
        return self._fill(points, (self.gs.num_classes,), self._legacy)


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
    pt = np.asarray(x, dtype=np.float64)[None, :]
    alpha = float(ev.alpha(pt)[0])
    e = ev.semantics(pt)[0]
    full = np.concatenate([[1.0 - alpha], alpha * e])
    return FieldSample(geometry_prob=alpha, semantics_expectation=e, full_prediction=full)
