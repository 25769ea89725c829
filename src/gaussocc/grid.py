"""Axis-aligned labeled voxel grids: data model, voxelization and file I/O.

Label 0 is always the empty class. The flat layout is x-major:
``flat = (ix * Y + iy) * Z + iz``, which is exactly the C-order raveling
of the (X, Y, Z) label array.

The on-disk format is ``OGRID v1``: one ASCII header line

    OGRID 1 <X> <Y> <Z> <num_classes> <minx> <miny> <minz> <maxx> <maxy> <maxz>

followed by the labels in flat-layout order, either as whitespace-
separated integers (text variant) or as little-endian uint16 (binary
variant). Reads auto-detect the variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianSet
from .field import EvalOptions, FieldEvaluator, VoxelCenters

_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class GridSpec:
    """Geometry and class count of a voxel grid (labels not included)."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    resolution: np.ndarray
    num_classes_total: int

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64)
        hi = np.asarray(self.max_corner, dtype=np.float64)
        res = np.asarray(self.resolution, dtype=np.int64)
        if lo.shape != (3,) or hi.shape != (3,) or res.shape != (3,):
            raise ValueError("min_corner, max_corner and resolution must be 3-vectors")
        for name, arr in (("min_corner", lo), ("max_corner", hi)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()}")
        if not np.all(hi > lo):
            raise ValueError("max_corner must exceed min_corner on every axis")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise ValueError("max_corner - min_corner must be finite on every axis")
        if not np.all(res > 0):
            raise ValueError("resolution must be positive")
        if math.prod(res.tolist()) > np.iinfo(np.int64).max:
            raise ValueError(f"resolution {res.tolist()} has more voxels than an int64 can count")
        if self.num_classes_total < 2:
            raise ValueError("need at least the empty class plus one semantic class")
        for name, arr in (("min_corner", lo), ("max_corner", hi), ("resolution", res)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def voxel_size(self) -> np.ndarray:
        return (self.max_corner - self.min_corner) / self.resolution

    @property
    def num_voxels(self) -> int:
        return int(np.prod(self.resolution))

    def centers(self) -> VoxelCenters:
        """The voxel centers, as the field evaluates them from index ranges."""
        return VoxelCenters(self.min_corner, self.voxel_size, self.resolution)

    def all_centers(self) -> np.ndarray:
        """All voxel centers, (X*Y*Z, 3), in flat-layout order. Nothing in
        the package calls this: its passes over a grid take
        ``centers().rows()`` one span of x-rows at a time."""
        return self.centers().rows(0, int(self.resolution[0]))

    def point_to_voxel(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map points to integer voxel indices.

        Returns (indices (N, 3), inside (N,)); indices of outside points,
        including far and non-finite ones, are clipped into range and must
        be masked by ``inside``.
        """
        cols, inside = self.voxel_columns(points)
        return np.stack(cols, axis=1), inside

    def voxel_columns(self, points: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """:meth:`point_to_voxel` one axis at a time: the (N,) index column
        of each axis, and inside (N,)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        size = self.voxel_size
        cols = []
        inside = np.ones(points.shape[0], dtype=bool)
        for a in range(3):
            n = self.resolution[a]
            with np.errstate(over="ignore", invalid="ignore"):
                rel = (points[:, a] - self.min_corner[a]) / size[a]
            # floor(r) lies in [0, n) exactly when r does; fmax/fmin send NaN to 0.
            inside &= (rel >= 0) & (rel < n)
            cols.append(np.floor(np.fmin(np.fmax(rel, 0), n - 1)).astype(np.int64))
        return cols, inside

    def describes_same_grid(self, other: "GridSpec") -> bool:
        return (
            np.array_equal(self.resolution, other.resolution)
            and np.allclose(self.min_corner, other.min_corner)
            and np.allclose(self.max_corner, other.max_corner)
            and self.num_classes_total == other.num_classes_total
        )


@dataclass(frozen=True)
class VoxelGrid:
    """A grid spec plus one label per voxel, stored as (X, Y, Z) uint16."""

    spec: GridSpec
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        expected = tuple(self.spec.resolution)
        if labels.shape == (self.spec.num_voxels,):
            labels = labels.reshape(expected)
        if labels.shape != expected:
            raise ValueError(f"labels must have shape {expected} or be flat, got {labels.shape}")
        if labels.min() < 0 or labels.max() >= self.spec.num_classes_total:
            raise ValueError("labels must lie in [0, num_classes_total)")
        labels = labels.astype(np.uint16)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def labels_flat(self) -> np.ndarray:
        return self.labels.reshape(-1)

    @property
    def occupied_mask(self) -> np.ndarray:
        return self.labels != 0

    def occupied_centers(self) -> np.ndarray:
        """Centers of all non-empty voxels, (V, 3), flat-layout order."""
        return self.spec.centers().take(np.flatnonzero(self.labels_flat))

    def occupied_labels(self) -> np.ndarray:
        flat = self.labels_flat
        return flat[flat != 0]

    def class_voxel_counts(self) -> np.ndarray:
        """(num_classes_total,) voxel count per class."""
        return np.bincount(self.labels_flat, minlength=self.spec.num_classes_total)

    def labels_at_points(self, points: np.ndarray) -> np.ndarray:
        """Labels at arbitrary points; outside the grid reads as empty."""
        (ix, iy, iz), inside = self.spec.voxel_columns(points)
        _, ny, nz = self.labels.shape
        out = self.labels_flat[(ix * ny + iy) * nz + iz].astype(np.int64)
        out[~inside] = 0
        return out


def voxel_center(spec: GridSpec, ix: int, iy: int, iz: int) -> np.ndarray:
    """Center of voxel (ix, iy, iz): ``min + (index + 0.5) * voxel_size``."""
    idx = np.array([ix, iy, iz], dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= spec.resolution):
        raise IndexError(f"voxel index {(ix, iy, iz)} outside resolution {tuple(spec.resolution)}")
    return spec.min_corner + (idx + 0.5) * spec.voxel_size


def voxelize(
    gs: GaussianSet,
    spec: GridSpec,
    opts: EvalOptions | None = None,
    threads: int = 1,
) -> VoxelGrid:
    """Label every voxel with the argmax of the composed prediction at its
    center; ties resolve to the lowest class index. ``threads`` is accepted
    but ignored: voxelization runs on the calling thread."""
    return _voxelize_model(gs, spec, "probabilistic", opts)


def voxelize_legacy(
    gs_with_empty: GaussianSet,
    spec: GridSpec,
    opts: EvalOptions | None = None,
    threads: int = 1,
) -> VoxelGrid:
    """Voxelize under the additive baseline model.

    The set's logits must include the empty class as channel 0. Labels are
    the argmax of the raw additive output (the softmax a trained baseline
    applies is monotone, so the argmax is identical); a voxel beyond every
    Gaussian's reach accumulates all zeros, which ties to class 0, empty.
    ``threads`` is accepted but ignored, as in :func:`voxelize`.
    """
    return _voxelize_model(gs_with_empty, spec, "additive", opts)


# Per field model: the channels its sets carry beyond the grid's semantic
# classes, what they are, and the FieldEvaluator method that labels voxels.
_MODELS = {
    "probabilistic": (0, "one per semantic class", "compose_labels"),
    "additive": (1, "empty first", "legacy_labels"),
}


def _voxelize_model(gs: GaussianSet, spec: GridSpec, model: str | None = None,
                    opts: EvalOptions | None = None) -> VoxelGrid:
    """Voxelize under ``model``, a key of :data:`_MODELS`. ``None`` picks
    the model from the set's channel count: C channels are probabilistic,
    C + 1 (empty class included) additive. The one voxelize body."""
    semantic = spec.num_classes_total - 1
    if model is None:
        model = {semantic: "probabilistic", semantic + 1: "additive"}.get(gs.num_classes)
        if model is None:
            raise ValueError(
                f"set has {gs.num_classes} channels; grid with {spec.num_classes_total} "
                "classes accepts C (probabilistic) or C+1 (additive)"
            )
    extra, layout, method = _MODELS[model]
    if gs.num_classes != semantic + extra:
        raise ValueError(f"{model} set needs {semantic + extra} channels ({layout}), got {gs.num_classes}")
    labels = getattr(FieldEvaluator(gs, opts), method)(spec.centers())
    return VoxelGrid(spec=spec, labels=labels)


# -- OGRID v1 file format ----------------------------------------------------


def _header_line(grid: VoxelGrid) -> str:
    spec = grid.spec
    nums = [_FLOAT_FMT % v for v in (*spec.min_corner, *spec.max_corner)]
    x, y, z = (int(v) for v in spec.resolution)
    return f"OGRID 1 {x} {y} {z} {spec.num_classes_total} " + " ".join(nums)


def save_grid(path, grid: VoxelGrid, binary: bool = False) -> None:
    """Write a grid as OGRID v1, text by default."""
    header = _header_line(grid).encode("ascii") + b"\n"
    flat = grid.labels_flat
    with open(path, "wb") as fh:
        fh.write(header)
        if binary:
            fh.write(flat.astype("<u2").tobytes())
        else:
            per_line = 64
            for start in range(0, flat.size, per_line):
                fh.write(" ".join(str(v) for v in flat[start : start + per_line]).encode("ascii"))
                fh.write(b"\n")


def load_grid(path) -> VoxelGrid:
    """Read an OGRID v1 file, auto-detecting the text/binary variant."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        body = fh.read()
    if len(header) != 12 or header[0] != b"OGRID" or header[1] != b"1":
        raise ValueError(f"{path}: not an OGRID v1 file")
    try:
        spec = GridSpec(
            min_corner=np.array([float(v) for v in header[6:9]]),
            max_corner=np.array([float(v) for v in header[9:12]]),
            resolution=np.array([int(v) for v in header[2:5]]),
            num_classes_total=int(header[5]),
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: a resolution beyond int64
        raise ValueError(f"{path}: bad OGRID header: {exc}") from None
    count = spec.num_voxels
    # The text variant is digits and whitespace only; binary uint16 labels
    # always contain a non-digit byte (the high byte of any label below
    # 12336 is not an ASCII digit).
    if body.translate(None, delete=b"0123456789 \t\r\n") == b"":
        tokens = body.decode("ascii").split()
        if len(tokens) != count:
            raise ValueError(f"{path}: expected {count} labels, found {len(tokens)}")
        try:
            labels = np.array([int(t) for t in tokens], dtype=np.uint16)
        except OverflowError:
            raise ValueError(f"{path}: a label exceeds the uint16 range") from None
    elif len(body) == 2 * count:
        labels = np.frombuffer(body, dtype="<u2").astype(np.uint16)
    else:
        raise ValueError(f"{path}: body is neither {count} text labels nor {2 * count} bytes")
    return VoxelGrid(spec=spec, labels=labels)


# -- benchmark grid conventions ----------------------------------------------


def nuscenes_grid_spec(num_classes_total: int = 17) -> GridSpec:
    """The surround-view benchmark convention: 100 m x 100 m x 8 m around
    the ego vehicle at 0.5 m voxels (200 x 200 x 16)."""
    return GridSpec(
        min_corner=np.array([-50.0, -50.0, -5.0]),
        max_corner=np.array([50.0, 50.0, 3.0]),
        resolution=np.array([200, 200, 16]),
        num_classes_total=num_classes_total,
    )


def kitti360_grid_spec(num_classes_total: int = 19) -> GridSpec:
    """The monocular benchmark convention: 51.2 m x 51.2 m x 6.4 m ahead of
    the ego vehicle at 0.2 m voxels (256 x 256 x 32)."""
    return GridSpec(
        min_corner=np.array([0.0, -25.6, -2.0]),
        max_corner=np.array([51.2, 25.6, 4.4]),
        resolution=np.array([256, 256, 32]),
        num_classes_total=num_classes_total,
    )
