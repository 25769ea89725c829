"""Gaussian primitive data model and the covariance algebra built on it.

A primitive is an anisotropic 3D Gaussian: a mean position, per-axis
scales, a unit quaternion orientation, a nonnegative opacity weight and
a vector of semantic logits. The covariance is never stored; it is the
factored product ``R @ diag(s) @ diag(s).T @ R.T``, so the inverse and
determinant come straight from the factors instead of a general matrix
inversion.

The rules on input (shapes, finiteness, nonnegative opacity, the
``MIN_SCALE`` clamp and unit quaternions) are written once, in
:class:`GaussianSet`; a primitive is validated as a one-row set.
Quaternions are made unit once: a row already unit to within
``_UNIT_TOL`` is kept as it is, so a set rebuilt from its own rows is
bit for bit the same set.

The other inputs of the library are checked here too, each by one rule:
every count by :func:`_count`, every seed by :func:`_seed`, every (N, 3)
array of points by :func:`_points` (with :func:`_finite_points` where a
point must be finite) and every axis-aligned box, a grid's extent or the
audit's scene box, by :func:`_box`.

All types are immutable after construction (arrays are copied and marked
read-only) and every operation here is a pure function, so values can be
shared freely across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Scales at or below this floor are clamped at construction so the
# covariance stays comfortably non-singular.
MIN_SCALE = 1e-3

# A quaternion whose computed norm is this close to 1 is already unit; one
# divided by its norm lands within about 1.5 eps of 1.
_UNIT_TOL = 8 * np.finfo(np.float64).eps


def _as_float_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _count(value, name: str, low: int = 1) -> int:
    """``value`` as an int; raises unless it is an integer >= ``low`` (not a bool)."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or operator.index(value) < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return operator.index(value)


def _seed(value) -> int:
    """``value`` as an int; raises unless it is an integer in [0, 2**64) (not a
    bool), the range of the uint64 that keys the random streams."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or not 0 <= operator.index(value) < 2**64:
        raise ValueError(f"seed must be >= 0 and < 2**64, got {value!r}")
    return operator.index(value)


def _points(value) -> np.ndarray:
    """``value`` as a float64 (N, 3) array of points (one point may come as a
    3-vector); raises ValueError for any other shape."""
    points = np.atleast_2d(np.asarray(value, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"query points must be an (N, 3) array, got shape {points.shape}")
    return points


def _finite_points(value) -> np.ndarray:
    """:func:`_points`, which must also be finite; raises ValueError naming
    the first row that is not."""
    points = _points(value)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"query point {row} is not finite: {points[row].tolist()}")
    return points


def _box(corners) -> tuple[np.ndarray, np.ndarray]:
    """``corners``, an axis-aligned box given as ``(min_corner,
    max_corner)``, as two float64 3-vectors; raises ValueError unless both
    corners are finite 3-vectors, ``max_corner`` exceeds ``min_corner`` on
    every axis and the extent is finite."""
    corners = [np.asarray(c, dtype=np.float64) for c in corners]
    if len(corners) != 2 or any(c.shape != (3,) for c in corners):
        raise ValueError(f"a box must be two 3-vectors (min_corner, max_corner), got shapes "
                         f"{[c.shape for c in corners]}")
    lo, hi = corners
    for name, arr in (("min_corner", lo), ("max_corner", hi)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    if not np.all(hi > lo):
        raise ValueError("max_corner must exceed min_corner on every axis")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(hi - lo)):
            raise ValueError("max_corner - min_corner must be finite on every axis")
    return lo, hi


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _unit_quaternions(q: np.ndarray) -> np.ndarray:
    """Quaternions (..., 4) scaled to unit norm. A row already unit to within
    ``_UNIT_TOL`` is returned unchanged, which makes this idempotent."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("zero-norm quaternion has no orientation")
    if np.any(np.isinf(norm)):
        raise ValueError("quaternion norm overflows the float range")
    return np.where(np.abs(norm - 1.0) <= _UNIT_TOL, q, q / norm)


def rotation_matrices(quats: np.ndarray) -> np.ndarray:
    """Convert scalar-first quaternions of shape (..., 4) to rotation matrices.

    Quaternions are normalized internally; a zero or overflowing norm
    raises ``ValueError``.
    """
    q = np.asarray(quats, dtype=np.float64)
    if q.shape[-1] != 4:
        raise ValueError(f"quaternions must have trailing dimension 4, got {q.shape}")
    w, x, y, z = np.moveaxis(_unit_quaternions(q), -1, 0)

    out = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a single scalar-first quaternion.

    The input is normalized first; the result satisfies ``R.T @ R = I``
    and ``det(R) = +1``.
    """
    q = _as_float_array(q, (4,), "quaternion")
    return rotation_matrices(q)


@dataclass(frozen=True)
class GaussianPrimitive:
    """One anisotropic semantic Gaussian.

    ``semantics`` holds raw logits for the non-empty classes only; the
    empty class is produced by the field composition, not stored here.
    (The additive legacy model instead packs the empty class as channel 0,
    see :func:`gaussocc.field.legacy_additive`.) The fields are those of
    the one-row :class:`GaussianSet` built from them, so a primitive obeys
    the set's rules and raises its errors.
    """

    mean: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    semantics: np.ndarray

    def __post_init__(self):
        row = GaussianSet(*(np.expand_dims(v, 0) for v in (self.mean, self.scale, self.rotation, self.opacity,
                                                           self.semantics)))
        object.__setattr__(self, "mean", row.means[0])
        object.__setattr__(self, "scale", row.scales[0])
        object.__setattr__(self, "rotation", row.rotations[0])
        object.__setattr__(self, "opacity", float(row.opacities[0]))
        object.__setattr__(self, "semantics", row.logits[0])

    @property
    def num_classes(self) -> int:
        return self.semantics.shape[0]


@dataclass(frozen=True)
class GaussianSet:
    """Ordered collection of Gaussians stored column-wise for fast math.

    ``means`` is (P, 3), ``scales`` (P, 3), ``rotations`` (P, 4) scalar
    first, ``opacities`` (P,) and ``logits`` (P, C). Every array must be
    finite and every opacity >= 0; scales are clamped to ``MIN_SCALE`` and
    quaternions made unit, except one already unit to within ``_UNIT_TOL``,
    which is kept as it is.
    """

    means: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    logits: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2 or means.shape[1] != 3 or means.shape[0] < 1:
            raise ValueError(f"means must be (P, 3) with P >= 1, got {means.shape}")
        p = means.shape[0]
        scales = _as_float_array(self.scales, (p, 3), "scales")
        rotations = _as_float_array(self.rotations, (p, 4), "rotations")
        opacities = _as_float_array(self.opacities, (p,), "opacities")
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 2 or logits.shape[0] != p or logits.shape[1] == 0:
            raise ValueError(f"logits must be (P, C) with C >= 1, got {logits.shape}")
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(logits)):
            raise ValueError("means and logits must be finite")
        if np.any(opacities < 0.0):
            bad = int(np.argmax(opacities < 0.0))
            raise ValueError(f"opacity must be >= 0, got {opacities[bad]} (Gaussian {bad})")

        object.__setattr__(self, "means", _frozen(means))
        object.__setattr__(self, "scales", _frozen(np.maximum(scales, MIN_SCALE)))
        object.__setattr__(self, "rotations", _frozen(_unit_quaternions(rotations)))
        object.__setattr__(self, "opacities", _frozen(opacities))
        object.__setattr__(self, "logits", _frozen(logits))

    @classmethod
    def from_primitives(cls, primitives: Iterable[GaussianPrimitive]) -> "GaussianSet":
        prims = list(primitives)
        if not prims:
            raise ValueError("a GaussianSet needs at least one primitive")
        classes = {p.num_classes for p in prims}
        if len(classes) != 1:
            raise ValueError(f"all primitives must share one class count, got {sorted(classes)}")
        return cls(
            means=np.stack([p.mean for p in prims]),
            scales=np.stack([p.scale for p in prims]),
            rotations=np.stack([p.rotation for p in prims]),
            opacities=np.array([p.opacity for p in prims]),
            logits=np.stack([p.semantics for p in prims]),
        )

    def rows(self) -> np.ndarray:
        """(P, 11 + C) rows, one per Gaussian: mean (3), scale (3),
        quaternion wxyz (4), opacity (1), logits (C). The one row layout,
        shared by the GSOCC file and the fit's parameter blocks."""
        return np.concatenate([self.means, self.scales, self.rotations, self.opacities[:, None], self.logits], axis=1)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "GaussianSet":
        """The set whose :meth:`rows` are ``rows``, validated and normalized
        as by the constructor."""
        return cls(means=rows[:, 0:3], scales=rows[:, 3:6], rotations=rows[:, 6:10], opacities=rows[:, 10],
                   logits=rows[:, 11:])

    def primitive(self, i: int) -> GaussianPrimitive:
        return GaussianPrimitive(self.means[i], self.scales[i], self.rotations[i], self.opacities[i], self.logits[i])

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]


@dataclass(frozen=True)
class CovarianceDecomposition:
    """Factored covariance of one primitive: rotation, scales, and the
    derived covariance, inverse and determinant."""

    rotation_matrix: np.ndarray
    scale_matrix: np.ndarray
    covariance: np.ndarray
    inverse: np.ndarray
    det: float


def build_covariance(g: GaussianPrimitive) -> CovarianceDecomposition:
    """Assemble the covariance factors of a primitive.

    The inverse is ``R @ diag(1/s^2) @ R.T`` and the determinant is
    ``prod(s)**2``; both are exact consequences of the factorization. A
    determinant beyond the float range is ``inf``.
    """
    rot = quat_to_rotation(g.rotation)
    s = g.scale
    cov = (rot * (s * s)) @ rot.T
    inv = (rot / (s * s)) @ rot.T
    with np.errstate(over="ignore"):
        det = float(np.square(np.prod(s)))
    return CovarianceDecomposition(
        rotation_matrix=_frozen(rot),
        scale_matrix=_frozen(np.diag(s)),
        covariance=_frozen(cov),
        inverse=_frozen(inv),
        det=det,
    )


def mahalanobis_sq(x, g: GaussianPrimitive) -> float:
    """Squared Mahalanobis distance of a point from a primitive.

    Evaluated in the Gaussian's local frame, ``sum((R.T (x - m) / s)^2)``,
    which is exact and never forms the inverse covariance explicitly.
    """
    x = _as_float_array(x, (3,), "x")
    rot = quat_to_rotation(g.rotation)
    local = rot.T @ (x - g.mean)
    return float(np.sum((local / g.scale) ** 2))


def covariance_matrices(gs: GaussianSet) -> np.ndarray:
    """Stacked (P, 3, 3) covariances of a set."""
    rot = rotation_matrices(gs.rotations)
    s2 = gs.scales**2
    return np.einsum("pab,pb,pcb->pac", rot, s2, rot)


def seeded_stream(seed: int, lane: int) -> np.random.Generator:
    """Independent counter-based random stream per (seed, lane): the draws
    of one lane never depend on how many draws another lane made."""
    return np.random.Generator(np.random.Philox(key=(_seed(seed) << 64) | lane))
