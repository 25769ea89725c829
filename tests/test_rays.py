"""Camera rays, occupancy labels along rays, and the BCE loss."""

import re

import numpy as np
import pytest

from gaussocc.grid import GridSpec, VoxelGrid
from gaussocc.rays import (
    CameraModel,
    RaySampling,
    bce_init_loss,
    camera_rays,
    occupancy_labels,
    pixel_ray,
    ray_directions,
    ray_reference_points,
)


def simple_camera(pose=None, size=(64, 48)):
    k = np.array([[50.0, 0.0, size[0] / 2], [0.0, 50.0, size[1] / 2], [0.0, 0.0, 1.0]])
    return CameraModel(intrinsics=k, pose=np.eye(4) if pose is None else pose, image_size=size)


def box_grid(res=(16, 16, 16), box=(4, 8)):
    """Axis-aligned box occupying voxel indices [box0, box1) on each axis."""
    spec = GridSpec(
        min_corner=np.zeros(3),
        max_corner=np.array(res, dtype=float),
        resolution=np.array(res),
        num_classes_total=2,
    )
    labels = np.zeros(tuple(res), dtype=np.uint16)
    labels[box[0] : box[1], box[0] : box[1], box[0] : box[1]] = 1
    return VoxelGrid(spec=spec, labels=labels)


def slab_entry_exit(origin, direction, lo, hi):
    """Analytic ray-box intersection oracle (slab method)."""
    with np.errstate(divide="ignore"):
        t0 = (lo - origin) / direction
        t1 = (hi - origin) / direction
    t_near = np.max(np.minimum(t0, t1))
    t_far = np.min(np.maximum(t0, t1))
    return (t_near, t_far) if t_near <= t_far else (np.inf, -np.inf)


class TestPixelRay:
    def test_principal_point_looks_forward(self):
        cam = simple_camera()
        u, v = cam.width // 2, cam.height // 2
        # pixel center offset of 0.5 px: aim at the exact principal point by
        # checking the ray between the two central pixels stays near forward
        origin, d = pixel_ray(cam, u, v)
        np.testing.assert_array_equal(origin, [0.0, 0.0, 0.0])
        assert d[2] > 0.999

    def test_exact_forward_with_half_pixel_principal_point(self):
        k = np.array([[50.0, 0.0, 10.5], [0.0, 50.0, 7.5], [0.0, 0.0, 1.0]])
        cam = CameraModel(intrinsics=k, pose=np.eye(4), image_size=(21, 15))
        _, d = pixel_ray(cam, 10, 7)
        np.testing.assert_allclose(d, [0.0, 0.0, 1.0], atol=1e-15)

    def test_translation_moves_origin_only(self):
        pose = np.eye(4)
        pose[:3, 3] = [1.0, -2.0, 3.0]
        plain = simple_camera()
        moved = simple_camera(pose=pose)
        o0, d0 = pixel_ray(plain, 5, 9)
        o1, d1 = pixel_ray(moved, 5, 9)
        np.testing.assert_array_equal(o1, [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(d0, d1)

    def test_reprojection_round_trip(self):
        rng = np.random.default_rng(60)
        angle = 0.4
        pose = np.eye(4)
        pose[:3, :3] = np.array(
            [[np.cos(angle), -np.sin(angle), 0], [np.sin(angle), np.cos(angle), 0], [0, 0, 1]]
        )
        pose[:3, 3] = [0.3, 0.7, -1.2]
        cam = simple_camera(pose=pose)
        k = cam.intrinsics
        for _ in range(20):
            u = int(rng.integers(0, cam.width))
            v = int(rng.integers(0, cam.height))
            origin, d = pixel_ray(cam, u, v)
            point = origin + rng.uniform(0.5, 20.0) * d
            local = pose[:3, :3].T @ (point - pose[:3, 3])
            uu = k[0, 0] * local[0] / local[2] + k[0, 2]
            vv = k[1, 1] * local[1] / local[2] + k[1, 2]
            assert uu == pytest.approx(u + 0.5, abs=1e-6)
            assert vv == pytest.approx(v + 0.5, abs=1e-6)

    def test_out_of_bounds_rejected(self):
        cam = simple_camera()
        with pytest.raises(ValueError, match="outside"):
            pixel_ray(cam, cam.width, 0)

    def test_all_directions_unit_norm(self):
        _, dirs = camera_rays(simple_camera(size=(17, 11)))
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_camera_rays_row_major_matches_pixel_ray(self):
        # Bitwise, on every pixel: a rotated pose makes a lone gemv round
        # differently from the gemm of the whole image.
        rng = np.random.default_rng(103)
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pose = np.eye(4)
        pose[:3, :3] = rot * np.sign(np.linalg.det(rot))
        pose[:3, 3] = rng.normal(size=3)
        for cam in (simple_camera(size=(9, 7)), simple_camera(pose=pose, size=(80, 60))):
            origin, dirs = camera_rays(cam)
            for v in range(cam.height):
                for u in range(cam.width):
                    o, d = pixel_ray(cam, u, v)
                    assert o.tobytes() == origin.tobytes()
                    assert d.tobytes() == dirs[v * cam.width + u].tobytes(), (u, v)

    @pytest.mark.parametrize("size", [(97, 61), (160, 90)], ids=["97x61", "160x90"])
    def test_pixel_ranges_concatenate_to_the_whole_image(self, size):
        # The streamed rays command takes its directions one pixel range at
        # a time, so each range must give bitwise the rows of the whole
        # image; a lone pixel would otherwise round through gemv.
        rng = np.random.default_rng(size[0])
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pose = np.eye(4)
        pose[:3, :3] = rot * np.sign(np.linalg.det(rot))
        pose[:3, 3] = rng.normal(size=3)
        k = np.array([[70.0, 0.0, 0.41 * size[0]], [0.0, 63.0, 0.57 * size[1]], [0.0, 0.0, 1.0]])
        cam = CameraModel(intrinsics=k, pose=pose, image_size=size)
        _, whole = camera_rays(cam)
        n = whole.shape[0]
        for length in (1, 7, size[0] + 1, 4096):
            parts = [ray_directions(cam, start, min(start + length, n)) for start in range(0, n, length)]
            assert np.array_equal(np.concatenate(parts), whole), length

    @pytest.mark.parametrize("start, stop", [(0, 0), (5, 4), (-1, 3), (0, 65), (64, 65)])
    def test_pixel_range_outside_the_image_rejected(self, start, stop):
        with pytest.raises(ValueError, match="pixel range"):
            ray_directions(simple_camera(size=(8, 8)), start, stop)

    def test_invalid_camera_rejected(self):
        with pytest.raises(ValueError, match="focal"):
            CameraModel(
                intrinsics=np.diag([-1.0, 1.0, 1.0]), pose=np.eye(4), image_size=(4, 4)
            )
        skew = np.eye(4)
        skew[0, 1] = 0.5
        with pytest.raises(ValueError, match="orthonormal"):
            CameraModel(
                intrinsics=np.diag([1.0, 1.0, 1.0]), pose=skew, image_size=(4, 4)
            )

    @pytest.mark.parametrize("entry, value", [((0, 1), 0.5), ((1, 0), -0.1), ((2, 0), 1e-3), ((2, 1), 2.0),
                                              ((2, 2), 2.0)], ids=["skew", "1,0", "2,0", "2,1", "2,2"])
    def test_non_pinhole_intrinsics_rejected(self, entry, value):
        # ray_directions reads only fx, fy, cx and cy, and a camera file
        # stores only those, so any other entry would be dropped silently.
        k = np.array([[20.0, 0.0, 8.0], [0.0, 20.0, 6.0], [0.0, 0.0, 1.0]])
        k[entry] = value
        pinhole = re.escape("intrinsics must be pinhole [[fx, 0, cx], [0, fy, cy], [0, 0, 1]], got ")
        with pytest.raises(ValueError, match=f"^{pinhole}"):
            CameraModel(intrinsics=k, pose=np.eye(4), image_size=(16, 12))

    @pytest.mark.parametrize("reflect", [[-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])
    def test_reflected_pose_rejected(self, reflect):
        pose = np.eye(4)
        pose[:3, :3] = np.diag(reflect)
        with pytest.raises(ValueError, match=r"^pose rotation block must have det \+1, not a reflection, got det -1$"):
            CameraModel(intrinsics=np.diag([1.0, 1.0, 1.0]), pose=pose, image_size=(4, 4))

    @pytest.mark.parametrize("last_row", [[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1e-9, 1.0]])
    def test_non_rigid_last_pose_row_rejected(self, last_row):
        pose = np.eye(4)
        pose[3] = last_row
        with pytest.raises(ValueError, match=r"^pose must be a 4x4 rigid transform with last row \[0, 0, 0, 1\]"):
            CameraModel(intrinsics=np.diag([1.0, 1.0, 1.0]), pose=pose, image_size=(4, 4))


class TestReferencePoints:
    def test_two_points_are_the_endpoints(self):
        pts = ray_reference_points([0, 0, 0], [0, 0, 1], RaySampling(1.0, 9.0, 2))
        np.testing.assert_allclose(pts, [[0, 0, 1], [0, 0, 9]], atol=1e-15)

    def test_five_points_unit_spacing(self):
        pts = ray_reference_points([0, 0, 0], [0, 0, 1], RaySampling(1.0, 5.0, 5))
        np.testing.assert_allclose(pts[:, 2], [1, 2, 3, 4, 5], atol=1e-15)

    def test_constant_spacing(self):
        rng = np.random.default_rng(61)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pts = ray_reference_points(rng.normal(size=3), d, RaySampling(0.7, 43.3, 57))
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.ptp(gaps) < 1e-12

    def test_invalid_sampling_rejected(self):
        with pytest.raises(ValueError):
            RaySampling(depth_min=0.0, depth_max=1.0)
        with pytest.raises(ValueError):
            RaySampling(depth_min=2.0, depth_max=1.0)
        with pytest.raises(ValueError):
            RaySampling(num_refs=1)

    @pytest.mark.parametrize("depths", [(1.0, np.inf), (np.nan, 2.0), (-np.inf, 2.0)])
    def test_non_finite_depths_rejected(self, depths):
        with pytest.raises(ValueError, match="depths must be finite"):
            RaySampling(depth_min=depths[0], depth_max=depths[1])


class TestOccupancyLabels:
    def test_fully_occupied_grid(self):
        grid = box_grid(box=(0, 16))
        pts = ray_reference_points([8, 8, 0.5], [1, 0, 0], RaySampling(0.5, 7.0, 16))
        assert np.all(occupancy_labels(pts, grid) == 1)

    def test_fully_empty_grid(self):
        grid = box_grid(box=(0, 0))
        pts = ray_reference_points([8, 8, 8], [0, 1, 0], RaySampling(0.5, 7.0, 16))
        assert np.all(occupancy_labels(pts, grid) == 0)

    def test_outside_grid_is_zero(self):
        grid = box_grid(box=(0, 16))
        pts = np.array([[-1.0, 5.0, 5.0], [30.0, 5.0, 5.0], [5.0, 5.0, 5.0]])
        np.testing.assert_array_equal(occupancy_labels(pts, grid), [0, 0, 1])

    def test_box_crossing_matches_slab_oracle(self):
        grid = box_grid()
        lo, hi = np.array([4.0, 4.0, 4.0]), np.array([8.0, 8.0, 8.0])
        rng = np.random.default_rng(62)
        sampling = RaySampling(0.1, 30.0, 512)
        spacing = (30.0 - 0.1) / 511
        checked = 0
        while checked < 40:
            origin = rng.uniform(-2, 2, 3)
            target = rng.uniform(4.5, 7.5, 3)
            d = target - origin
            d /= np.linalg.norm(d)
            t_in, t_out = slab_entry_exit(origin, d, lo, hi)
            if not np.isfinite(t_in) or t_in < 0.2 or t_out > 29.0:
                continue
            pts = ray_reference_points(origin, d, sampling)
            labels = occupancy_labels(pts, grid)
            ones = np.flatnonzero(labels)
            assert ones.size > 0
            run = np.arange(ones[0], ones[-1] + 1)
            np.testing.assert_array_equal(ones, run)  # contiguous crossing
            depths = sampling.depths
            assert abs(depths[ones[0]] - t_in) <= spacing + 1e-9
            assert abs(depths[ones[-1]] - t_out) <= spacing + 1e-9
            checked += 1

    def test_reparameterized_ray_same_labels(self):
        grid = box_grid()
        origin = np.array([0.0, 6.0, 6.0])
        d = np.array([1.0, 0.0, 0.0])
        pts_a = ray_reference_points(origin, d, RaySampling(2.0, 12.0, 21))
        # same geometric points, origin slid 1 m along the ray
        pts_b = ray_reference_points(origin + d, d, RaySampling(1.0, 11.0, 21))
        np.testing.assert_allclose(pts_a, pts_b, atol=1e-12)
        np.testing.assert_array_equal(
            occupancy_labels(pts_a, grid), occupancy_labels(pts_b, grid)
        )


class TestBceLoss:
    def test_matching_prediction_is_tiny(self):
        labels = np.array([0, 1, 1, 0, 1], dtype=float)
        assert bce_init_loss(labels, labels) <= 2e-7

    def test_uniform_half_is_log_two(self):
        labels = np.array([0, 1, 0, 1], dtype=float)
        assert bce_init_loss(np.full(4, 0.5), labels) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(63)
        pred = rng.uniform(0.01, 0.99, 32)
        labels = rng.integers(0, 2, 32).astype(float)
        expected = 0.0
        for p, l in zip(pred, labels):
            expected += -(l * np.log(p) + (1 - l) * np.log(1 - p))
        expected /= 32
        assert bce_init_loss(pred, labels) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bce_init_loss(np.zeros(3), np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(64)
        pred = rng.uniform(0.05, 0.95, 16)
        labels = rng.integers(0, 2, 16).astype(float)
        analytic = (pred - labels) / (pred * (1.0 - pred)) / 16
        h = 1e-7
        for k in range(16):
            up, down = pred.copy(), pred.copy()
            up[k] += h
            down[k] -= h
            fd = (bce_init_loss(up, labels) - bce_init_loss(down, labels)) / (2 * h)
            assert fd == pytest.approx(analytic[k], abs=1e-6)
