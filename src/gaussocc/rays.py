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

from .grid import VoxelGrid

BCE_EPS = 1e-7


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a camera-to-world rigid transform."""

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
        rot = pose[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-8):
            raise ValueError("pose rotation block must be orthonormal")
        w, h = (int(v) for v in self.image_size)
        if w <= 0 or h <= 0:
            raise ValueError("image_size must be positive")
        k = k.copy()
        pose = pose.copy()
        k.setflags(write=False)
        pose.setflags(write=False)
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "pose", pose)
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
        if self.num_refs < 2:
            raise ValueError("need at least two reference points")

    @property
    def depths(self) -> np.ndarray:
        return np.linspace(self.depth_min, self.depth_max, self.num_refs)


def pixel_ray(cam: CameraModel, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """World-space ray through pixel (u, v): (origin, unit direction).

    The ray passes through the pixel center (u + 0.5, v + 0.5).
    """
    if not (0 <= u < cam.width and 0 <= v < cam.height):
        raise ValueError(f"pixel {(u, v)} outside a {cam.width}x{cam.height} image")
    k = cam.intrinsics
    d_cam = np.array([(u + 0.5 - k[0, 2]) / k[0, 0], (v + 0.5 - k[1, 2]) / k[1, 1], 1.0])
    d_world = cam.pose[:3, :3] @ d_cam
    return cam.pose[:3, 3].copy(), d_world / np.linalg.norm(d_world)


def camera_rays(cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Rays for every pixel, row-major (index = v * width + u).

    Returns (origin (3,), directions (H*W, 3) unit).
    """
    k = cam.intrinsics
    us = np.arange(cam.width) + 0.5
    vs = np.arange(cam.height) + 0.5
    gu, gv = np.meshgrid(us, vs, indexing="xy")
    d_cam = np.stack(
        [(gu - k[0, 2]) / k[0, 0], (gv - k[1, 2]) / k[1, 1], np.ones_like(gu)], axis=-1
    ).reshape(-1, 3)
    d_world = d_cam @ cam.pose[:3, :3].T
    d_world /= np.linalg.norm(d_world, axis=1, keepdims=True)
    return cam.pose[:3, 3].copy(), d_world


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
