"""Axis-aligned labeled voxel grids: labels, voxelization and file I/O.

A grid's geometry is a :class:`gaussocc.core.GridSpec`, re-exported here;
:class:`VoxelGrid` adds one label per voxel. Label 0 is always the empty
class. The flat layout is x-major: ``flat = (ix * Y + iy) * Z + iz``,
which is exactly the C-order raveling of the (X, Y, Z) label array.

The on-disk format is ``OGRID v1``: one ASCII header line

    OGRID 1 <X> <Y> <Z> <num_classes> <minx> <miny> <minz> <maxx> <maxy> <maxz>

followed by the labels in flat-layout order, either as whitespace-
separated integers (text variant) or as little-endian uint16 (binary
variant). Reads auto-detect the variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianSet, GridSpec, _count, _points
from .field import EvalOptions, FieldEvaluator

_FLOAT_FMT = "%.17g"
# Labels per bincount when counting classes: bincount copies its input to
# int64, so counting in blocks bounds that copy.
_COUNT_BLOCK = 1 << 17


@dataclass(frozen=True)
class VoxelGrid:
    """A grid spec plus one label per voxel, stored as (X, Y, Z) uint16.

    The labels are read-only. A C-contiguous uint16 array that no one can
    write (it and every array it views are read-only) is kept as is; any
    other is copied, so a caller's writable array never changes a grid.
    """

    spec: GridSpec
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        expected = tuple(self.spec.resolution)
        if labels.shape == (self.spec.num_voxels,):
            labels = labels.reshape(expected)
        if labels.shape != expected:
            raise ValueError(f"labels must have shape {expected} or be flat, got {labels.shape}")
        k = self.spec.num_classes_total
        if labels.min() < 0 or labels.max() >= k:
            bad = tuple(int(i) for i in np.unravel_index(np.argmax((labels < 0) | (labels >= k)), expected))
            raise ValueError(f"labels must lie in [0, num_classes_total) = [0, {k}), got {labels[bad]} at voxel {bad}")
        if labels.dtype != np.uint16 or not labels.flags.c_contiguous or not _read_only(labels):
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
        return self.spec.take(np.flatnonzero(self.labels_flat))

    def occupied_labels(self) -> np.ndarray:
        flat = self.labels_flat
        return flat[flat != 0]

    def class_voxel_counts(self) -> np.ndarray:
        """(num_classes_total,) voxel count per class."""
        return _label_counts(self.spec.num_classes_total, self.labels_flat)

    def labels_at_points(self, points: np.ndarray) -> np.ndarray:
        """Labels at arbitrary (N, 3) points; outside the grid, non-finite
        points included, reads as empty."""
        # voxel_index overwrites each axis row, so it gets a (3, N) copy.
        flat = self.spec.voxel_index(_points(points).T.copy())
        outside = flat == self.spec.num_voxels
        out = self.labels_flat.take(flat, mode="clip").astype(np.int64)
        out[outside] = 0
        return out


def _read_only(a: np.ndarray) -> bool:
    """Whether neither ``a`` nor any array it views can be written. An array
    over a buffer numpy does not own (bytes, a memoryview) does not count."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _label_counts(k: int, *flats: np.ndarray) -> np.ndarray:
    """(k,) * len(flats) voxel counts of the joint labels of equally long flat
    label arrays: entry [a, b] counts the voxels labelled a in the first and b
    in the second. The keys ``a * k + b`` are counted per :data:`_COUNT_BLOCK`."""
    counts = np.zeros(k ** len(flats), dtype=np.intp)
    for start in range(0, flats[0].size, _COUNT_BLOCK):
        block = slice(start, start + _COUNT_BLOCK)
        key = flats[0][block].astype(np.intp)
        for flat in flats[1:]:
            key *= k
            key += flat[block]
        counts += np.bincount(key, minlength=counts.size)
    return counts.reshape((k,) * len(flats))


def voxel_center(spec: GridSpec, ix: int, iy: int, iz: int) -> np.ndarray:
    """Center of voxel (ix, iy, iz), by the spec's center formula."""
    idx = np.array([_count(i, "voxel index", 0) for i in (ix, iy, iz)])
    if np.any(idx >= spec.resolution):
        raise IndexError(f"voxel index {(ix, iy, iz)} outside resolution {tuple(spec.resolution)}")
    return np.array([spec._coordinate(a, idx[a]) for a in range(3)])


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
        model = {semantic + extra: name for name, (extra, _, _) in _MODELS.items()}.get(gs.num_classes)
        if model is None:
            raise ValueError(
                f"set has {gs.num_classes} channels; grid with {spec.num_classes_total} "
                "classes accepts C (probabilistic) or C+1 (additive)"
            )
    extra, layout, method = _MODELS[model]
    if gs.num_classes != semantic + extra:
        raise ValueError(f"{model} set needs {semantic + extra} channels ({layout}), got {gs.num_classes}")
    labels = getattr(FieldEvaluator(gs, opts), method)(spec)
    labels.setflags(write=False)
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
    labels.setflags(write=False)
    try:
        return VoxelGrid(spec=spec, labels=labels)
    except ValueError as exc:  # a label at or above num_classes_total
        raise ValueError(f"{path}: {exc}") from None


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
