"""Synthetic desk-scale scenes: labeled grids built from simple shapes.

A recipe is an ordered list of shapes; each voxel takes the label of the
last shape containing its center. Built-in recipes:

* ``ground-plane-only`` — a ground slab, nothing else;
* ``single-box`` — one voxel-aligned box (exact analytic voxel count);
* ``mini-street`` — ground slab, two car boxes, one building box and two
  poles, with seed-jittered placement.

Class indices are fixed per recipe and listed in the returned metadata.
A shape's ``contains(x, y, z)`` takes coordinate arrays that broadcast
together, such as the grid's axes under ``np.ix_`` or the columns of an
(N, 3) array, and returns a mask of their broadcast shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import _seed
from .grid import GridSpec, VoxelGrid

DEFAULT_CLASS_NAMES = ("empty", "ground", "car", "building", "pole")


@dataclass(frozen=True)
class GroundPlane:
    """Slab from the grid floor up to (excluding) ``z_top``."""

    z_top: float
    label: int

    def contains(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return z < self.z_top


@dataclass(frozen=True)
class Box:
    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]
    label: int

    def contains(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        (x0, y0, z0), (x1, y1, z1) = self.min_corner, self.max_corner
        return ((x >= x0) & (x < x1)) & ((y >= y0) & (y < y1)) & ((z >= z0) & (z < z1))


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder over [z_min, z_max)."""

    center_xy: tuple[float, float]
    radius: float
    z_min: float
    z_max: float
    label: int

    def contains(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        dx = x - self.center_xy[0]
        dy = y - self.center_xy[1]
        in_z = (z >= self.z_min) & (z < self.z_max)
        return in_z & (dx * dx + dy * dy < self.radius**2)


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    label: int

    def contains(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        dx, dy, dz = x - self.center[0], y - self.center[1], z - self.center[2]
        return (dx * dx + dy * dy) + dz * dz < self.radius**2


Shape = GroundPlane | Box | Cylinder | Sphere


def default_grid_spec() -> GridSpec:
    """40 x 40 x 16 voxels of 0.5 m over [-10, 10] x [-10, 10] x [0, 8]."""
    return GridSpec(
        min_corner=np.array([-10.0, -10.0, 0.0]),
        max_corner=np.array([10.0, 10.0, 8.0]),
        resolution=np.array([40, 40, 16]),
        num_classes_total=len(DEFAULT_CLASS_NAMES),
    )


def _ground_plane_only(rng: np.random.Generator, spec: GridSpec) -> list[Shape]:
    return [GroundPlane(z_top=float(spec.min_corner[2] + 2.0 * spec.voxel_size[2]), label=1)]


def _single_box(rng: np.random.Generator, spec: GridSpec) -> list[Shape]:
    # Snapped to voxel boundaries so the rasterized count is the exact
    # analytic volume.
    vs = spec.voxel_size
    lo = spec.min_corner + np.array([16, 16, 2]) * vs
    hi = spec.min_corner + np.array([24, 24, 6]) * vs
    return [Box(min_corner=tuple(lo), max_corner=tuple(hi), label=2)]


def _mini_street(rng: np.random.Generator, spec: GridSpec) -> list[Shape]:
    lo, hi = spec.min_corner, spec.max_corner
    ground_top = float(lo[2] + 2.0 * spec.voxel_size[2])
    shapes: list[Shape] = [GroundPlane(z_top=ground_top, label=1)]

    def jitter(scale: float) -> float:
        return float(rng.uniform(-scale, scale))

    # Two cars on the "street", one each side of the x axis.
    for side in (-1.0, 1.0):
        cx = jitter(3.0)
        cy = side * (3.5 + jitter(1.5))
        length = 4.0 + jitter(0.5)
        width = 2.0 + jitter(0.2)
        height = 1.5 + jitter(0.15)
        shapes.append(
            Box(
                min_corner=(cx - length / 2, cy - width / 2, ground_top),
                max_corner=(cx + length / 2, cy + width / 2, ground_top + height),
                label=2,
            )
        )

    # One building block in a corner.
    bx = 5.5 + jitter(1.5)
    by = 5.5 + jitter(1.5)
    size = 6.0 + jitter(1.0)
    bh = 5.5 + jitter(1.0)
    shapes.append(
        Box(
            min_corner=(bx - size / 2, by - size / 2, ground_top),
            max_corner=(min(bx + size / 2, hi[0]), min(by + size / 2, hi[1]), ground_top + bh),
            label=3,
        )
    )

    # Two poles along the street.
    for px in (-6.0, 6.0):
        shapes.append(
            Cylinder(
                center_xy=(px + jitter(1.0), -7.0 + jitter(1.0)),
                radius=0.45 + jitter(0.1),
                z_min=ground_top,
                z_max=ground_top + 4.0 + jitter(0.8),
                label=4,
            )
        )
    return shapes


RECIPES: dict[str, Callable[[np.random.Generator, GridSpec], list[Shape]]] = {
    "ground-plane-only": _ground_plane_only,
    "single-box": _single_box,
    "mini-street": _mini_street,
}


def rasterize(shapes: Sequence[Shape], spec: GridSpec) -> VoxelGrid:
    """Label voxel centers by the last containing shape.

    Each shape is tested once on the grid's axes, broadcast as
    ``np.ix_(ax, ay, az)``; its mask broadcasts to (X, Y, Z), and the
    shapes write their labels in recipe order."""
    if not shapes:
        raise ValueError("empty recipe: no shapes to rasterize")
    for shape in shapes:
        if not 0 < shape.label < spec.num_classes_total:
            raise ValueError(f"shape label {shape.label} outside grid classes")
    x, y, z = np.ix_(*spec.centers().axes())
    labels = np.zeros(spec.resolution, dtype=np.uint16)
    for shape in shapes:
        np.copyto(labels, shape.label, where=shape.contains(x, y, z))
    labels.setflags(write=False)
    return VoxelGrid(spec=spec, labels=labels)


def synth_scene(
    seed: int,
    recipe: str = "mini-street",
    spec: GridSpec | None = None,
) -> tuple[VoxelGrid, dict]:
    """Build a deterministic labeled scene from a named recipe.

    Returns the grid and a metadata dict with the recipe name, the seed,
    class names and per-class voxel counts.
    """
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}; choices: {sorted(RECIPES)}")
    seed = _seed(seed)
    spec = spec or default_grid_spec()
    rng = np.random.Generator(np.random.Philox(key=seed))
    shapes = RECIPES[recipe](rng, spec)
    grid = rasterize(shapes, spec)
    counts = grid.class_voxel_counts()
    if np.count_nonzero(counts) < 2:
        raise ValueError(f"recipe {recipe!r} produced fewer than two classes")
    names = DEFAULT_CLASS_NAMES[: spec.num_classes_total]
    metadata = {
        "recipe": recipe,
        "seed": seed,
        "class_names": list(names) + [f"class_{k}" for k in range(len(names), spec.num_classes_total)],
        "class_voxel_counts": {int(k): int(v) for k, v in enumerate(counts)},
    }
    return grid, metadata
