"""Camera rays, per-ray occupancy labels and the matching training loss.

A pinhole camera shoots one ray per pixel (through the pixel center);
reference points are placed at equal depth intervals along the ray and
labeled by looking up the reference grid: 1 where the containing voxel is
occupied, 0 elsewhere (points outside the grid are 0). The binary
cross-entropy between predicted and reference profiles is the training
signal for an occupancy-distribution predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _count, _frozen
from .grid import VoxelGrid

BCE_EPS = 1e-7


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a camera-to-world rigid transform.

    ``intrinsics`` must be ``[[fx, 0, cx], [0, fy, cy], [0, 0, 1]]`` with
    positive focal lengths: the only entries :func:`ray_directions` reads
    and a camera file stores. ``pose`` must be a rotation (orthonormal,
    det +1) and a translation over the row ``[0, 0, 0, 1]``.
    """

    intrinsics: np.ndarray
    pose: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64)
        pose = np.asarray(self.pose, dtype=np.float64)
        if k.shape != (3, 3):
            raise ValueError("intrinsics must be 3x3")
        if pose.shape != (4, 4):
            raise ValueError("pose must be a 4x4 rigid transform")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(pose))):
            raise ValueError("intrinsics and pose must be finite")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        if np.any(k[[0, 1, 2, 2], [1, 0, 0, 1]] != 0.0) or k[2, 2] != 1.0:
            raise ValueError(f"intrinsics must be pinhole [[fx, 0, cx], [0, fy, cy], [0, 0, 1]], got {k.tolist()}")
        if np.any(pose[3] != [0.0, 0.0, 0.0, 1.0]):
            raise ValueError(f"pose must be a 4x4 rigid transform with last row [0, 0, 0, 1], got {pose[3].tolist()}")
        rot = pose[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-8):
            raise ValueError("pose rotation block must be orthonormal")
        det = np.linalg.det(rot)
        if det <= 0.0:
            raise ValueError(f"pose rotation block must have det +1, not a reflection, got det {det:.6g}")
        w, h = (_count(v, "image_size") for v in self.image_size)
        object.__setattr__(self, "intrinsics", _frozen(k))
        object.__setattr__(self, "pose", _frozen(pose))
        object.__setattr__(self, "image_size", (w, h))

    @property
    def width(self) -> int:
        return self.image_size[0]

    @property
    def height(self) -> int:
        return self.image_size[1]


@dataclass(frozen=True)
class RaySampling:
    """Equal-interval depth sampling along a ray."""

    depth_min: float = 1.0
    depth_max: float = 51.2
    num_refs: int = 64

    def __post_init__(self):
        if not (np.isfinite(self.depth_min) and np.isfinite(self.depth_max)):
            raise ValueError(f"depths must be finite, got {self.depth_min} and {self.depth_max}")
        if not 0.0 < self.depth_min < self.depth_max:
            raise ValueError("need 0 < depth_min < depth_max")
        _count(self.num_refs, "num_refs", 2)

    @property
    def depths(self) -> np.ndarray:
        return np.linspace(self.depth_min, self.depth_max, self.num_refs)


def pixel_ray(cam: CameraModel, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """World-space ray through pixel (u, v): (origin, unit direction).

    The ray passes through the pixel center (u + 0.5, v + 0.5); the
    direction is bitwise that pixel's row of :func:`camera_rays`.
    """
    if not (0 <= u < cam.width and 0 <= v < cam.height):
        raise ValueError(f"pixel {(u, v)} outside a {cam.width}x{cam.height} image")
    p = v * cam.width + u
    return cam.pose[:3, 3].copy(), ray_directions(cam, p, p + 1)[0]


def camera_rays(cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Rays for every pixel, row-major (index = v * width + u).

    Returns (origin (3,), directions (H*W, 3) unit).
    """
    return cam.pose[:3, 3].copy(), ray_directions(cam, 0, cam.width * cam.height)


def ray_directions(cam: CameraModel, start: int, stop: int) -> np.ndarray:
    """(stop - start, 3) unit directions of the row-major pixels
    ``start:stop``, bitwise equal to those rows of :func:`camera_rays`."""
    num_pixels = cam.width * cam.height
    if not 0 <= start < stop <= num_pixels:
        raise ValueError(f"pixel range {start}:{stop} outside a {cam.width}x{cam.height} image")
    # numpy multiplies a single row by gemv, which rounds differently from
    # the gemm that a longer range gets, so one pixel borrows a neighbor.
    lo, hi = start, stop
    if stop - start == 1 < num_pixels:
        lo, hi = (start, stop + 1) if stop < num_pixels else (start - 1, stop)
    k = cam.intrinsics
    pixel = np.arange(lo, hi)
    gu = pixel % cam.width + 0.5
    gv = pixel // cam.width + 0.5
    d_cam = np.stack([(gu - k[0, 2]) / k[0, 0], (gv - k[1, 2]) / k[1, 1], np.ones_like(gu)], axis=-1)
    d_world = d_cam @ cam.pose[:3, :3].T
    d_world /= np.linalg.norm(d_world, axis=1, keepdims=True)
    return d_world[start - lo : stop - lo]


def label_text(cam: CameraModel, sampling: RaySampling, gt: VoxelGrid):
    """The ``gaussocc rays`` file in pieces: one text row per pixel in
    row-major order, each occupancy digit (see :func:`occupancy_labels`)
    followed by a space, the last by a newline.

    Pixels are labelled in ranges of about 2**18 samples, so memory does
    not grow with the image size.
    """
    refs = sampling.num_refs
    origin, depths = cam.pose[:3, 3], sampling.depths
    # One ASCII digit per voxel, and a last slot for points outside the grid.
    digits = np.append(gt.labels_flat != 0, False).astype(np.uint8) + ord("0")
    chunk = max(1, 2**18 // refs)
    text = np.full((chunk, 2 * refs), ord(" "), dtype=np.uint8)
    text[:, -1] = ord("\n")
    coord = np.empty((chunk, refs))
    num_pixels = cam.width * cam.height
    for start in range(0, num_pixels, chunk):
        dirs = ray_directions(cam, start, min(start + chunk, num_pixels))
        rows = text[: dirs.shape[0]]
        axes = _sample_axes(origin, depths, dirs, coord[: dirs.shape[0]])
        rows[:, 0::2] = digits[gt.spec.voxel_index(axes)]
        yield rows.tobytes()


def _sample_axes(origin, depths, dirs, coord):
    """Fill ``coord`` (rays, refs) with the coordinates ``origin + depth *
    direction`` of each axis in turn, as :func:`ray_reference_points` forms
    them, and yield it each time: ``GridSpec.voxel_index`` is done with one
    axis before it draws the next."""
    for a in range(3):
        np.multiply(dirs[:, a, None], depths, out=coord)
        coord += origin[a]
        yield coord


def ray_reference_points(origin, direction, sampling: RaySampling) -> np.ndarray:
    """(R, 3) points at equal depth intervals along one ray."""
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    return origin[None, :] + sampling.depths[:, None] * direction[None, :]


def occupancy_labels(points: np.ndarray, gt: VoxelGrid) -> np.ndarray:
    """Binary occupancy of the voxels containing each point; points outside
    the grid read 0."""
    return (gt.labels_at_points(points) != 0).astype(np.uint8)


def bce_init_loss(pred: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross entropy between a predicted occupancy profile and
    binary reference labels; predictions are clamped away from 0 and 1."""
    pred = np.asarray(pred, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if pred.shape != labels.shape:
        raise ValueError(f"prediction shape {pred.shape} != labels shape {labels.shape}")
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))
