"""Synthetic scene recipes against independent rasterization oracles."""

import numpy as np
import pytest

from gaussocc.grid import GridSpec, kitti360_grid_spec, nuscenes_grid_spec, voxel_center
from gaussocc.scenes import (
    RECIPES,
    Box,
    Cylinder,
    GroundPlane,
    Sphere,
    default_grid_spec,
    rasterize,
    synth_scene,
)

from conftest import traced_peak


class TestRecipes:
    def test_ground_plane_only_threshold(self):
        grid, _ = synth_scene(0, recipe="ground-plane-only")
        spec = grid.spec
        z_top = spec.min_corner[2] + 2.0 * spec.voxel_size[2]
        for ix, iy, iz in ((0, 0, 0), (5, 7, 1), (3, 2, 2), (10, 10, 15)):
            center = voxel_center(spec, ix, iy, iz)
            expected = 1 if center[2] < z_top else 0
            assert grid.labels[ix, iy, iz] == expected

    def test_single_box_exact_voxel_count(self):
        grid, meta = synth_scene(0, recipe="single-box")
        # The box is snapped to voxel boundaries: 8 x 8 x 4 voxels.
        assert meta["class_voxel_counts"][2] == 8 * 8 * 4
        assert int(np.count_nonzero(grid.labels)) == 8 * 8 * 4

    def test_mini_street_histogram_matches_pointwise_oracle(self):
        seed = 5
        grid, meta = synth_scene(seed)
        spec = grid.spec
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        shapes = RECIPES["mini-street"](rng, spec)
        counts = np.zeros(spec.num_classes_total, dtype=int)
        for ix in range(spec.resolution[0]):
            for iy in range(spec.resolution[1]):
                for iz in range(spec.resolution[2]):
                    c = voxel_center(spec, ix, iy, iz)
                    label = 0
                    for shape in shapes:
                        if bool(shape.contains(*c[None, :].T)[0]):
                            label = shape.label
                    counts[label] += 1
                    assert grid.labels[ix, iy, iz] == label
        np.testing.assert_array_equal(counts, grid.class_voxel_counts())
        assert meta["class_voxel_counts"] == {int(k): int(v) for k, v in enumerate(counts)}

    def test_deterministic_given_seed(self):
        a, _ = synth_scene(42)
        b, _ = synth_scene(42)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a, _ = synth_scene(0)
        b, _ = synth_scene(1)
        assert np.any(a.labels != b.labels)

    def test_at_least_two_classes(self):
        for name in RECIPES:
            grid, _ = synth_scene(0, recipe=name)
            assert np.count_nonzero(grid.class_voxel_counts()) >= 2

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            synth_scene(0, recipe="city-block")

    def test_empty_shape_list_rejected(self):
        with pytest.raises(ValueError, match="empty recipe"):
            rasterize([], default_grid_spec())


def contains_points(shape, points: np.ndarray) -> np.ndarray:
    """(N,) mask of a shape over an (N, 3) array of points, written from the
    shape's fields alone: a point-wise oracle for ``shape.contains``."""
    if isinstance(shape, GroundPlane):
        return points[:, 2] < shape.z_top
    if isinstance(shape, Box):
        return np.all((points >= np.asarray(shape.min_corner)) & (points < np.asarray(shape.max_corner)), axis=1)
    if isinstance(shape, Cylinder):
        d = points[:, :2] - np.asarray(shape.center_xy)
        in_z = (points[:, 2] >= shape.z_min) & (points[:, 2] < shape.z_max)
        return in_z & (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < shape.radius**2)
    d = points - np.asarray(shape.center)
    return np.sum(d * d, axis=1) < shape.radius**2


def whole_grid_rasterize(shapes, spec: GridSpec) -> np.ndarray:
    """The flat labels of the shapes over all voxel centers at once, the
    centers built by meshgrid and stack from the grid's axes and tested
    point by point with :func:`contains_points`."""
    ax, ay, az = spec.axes()
    centers = np.stack(np.meshgrid(ax, ay, az, indexing="ij"), axis=-1).reshape(-1, 3)
    labels = np.zeros(spec.num_voxels, dtype=np.uint16)
    for shape in shapes:
        labels[contains_points(shape, centers)] = shape.label
    return labels


def shapes_across_the_border(spec: GridSpec) -> list:
    """Every kind of shape, some inside the grid and some sticking out of it
    on every side, with box faces on voxel centers and no recipe's jitter."""
    lo, hi, vs = spec.min_corner, spec.max_corner, spec.voxel_size
    ext, mid = hi - lo, (lo + hi) / 2
    return [
        GroundPlane(z_top=float(lo[2] + 1.3 * vs[2]), label=1),
        Box(min_corner=tuple(lo - 0.1 * ext), max_corner=tuple(lo + 0.3 * ext), label=2),
        Box(min_corner=tuple(lo + 2.5 * vs), max_corner=tuple(lo + 7.5 * vs), label=3),
        Box(min_corner=tuple(mid), max_corner=tuple(hi + [0.2 * ext[0], -0.1 * ext[1], 1.0]), label=4),
        Cylinder(center_xy=(float(hi[0]), float(mid[1])), radius=float(0.25 * ext[0]),
                 z_min=float(lo[2] - 1.0), z_max=float(mid[2]), label=2),
        Cylinder(center_xy=(float(mid[0] - 0.1 * ext[0]), float(lo[1] + 0.2 * ext[1])), radius=float(0.15 * ext[1]),
                 z_min=float(mid[2]), z_max=float(hi[2] + 1.0), label=3),
        Sphere(center=tuple(mid), radius=float(0.3 * ext[2]), label=4),
        Sphere(center=(float(lo[0] + 0.6 * ext[0]), float(hi[1]), float(hi[2])), radius=float(0.4 * ext[1]), label=1),
    ]


# Odd axis counts and voxels that are not cubes.
ODD_SPEC = GridSpec(min_corner=np.array([-10.0, -10.0, 0.0]), max_corner=np.array([10.0, 10.0, 8.0]),
                    resolution=np.array([203, 41, 16]), num_classes_total=5)


class TestSpans:
    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    @pytest.mark.parametrize("make_spec", [default_grid_spec, nuscenes_grid_spec, kitti360_grid_spec, lambda: ODD_SPEC],
                             ids=["default", "nuscenes", "kitti360", "odd"])
    def test_labels_equal_the_whole_grid_rasterize(self, recipe, make_spec):
        spec = make_spec()
        shapes = RECIPES[recipe](np.random.Generator(np.random.Philox(key=np.uint64(3))), spec)
        want = whole_grid_rasterize(shapes, spec)
        assert np.count_nonzero(want) > 0
        np.testing.assert_array_equal(rasterize(shapes, spec).labels_flat, want)

    @pytest.mark.parametrize("make_spec", [nuscenes_grid_spec, lambda: ODD_SPEC], ids=["nuscenes", "odd"])
    def test_every_shape_across_the_border_equals_the_pointwise_oracle(self, make_spec):
        spec = make_spec()
        shapes = shapes_across_the_border(spec)
        want = whole_grid_rasterize(shapes, spec)
        # Every shape keeps some voxels after the shapes drawn over it.
        assert set(np.unique(want).tolist()) == {0, 1, 2, 3, 4}
        centers = spec.all_centers()
        for shape in shapes:
            assert np.count_nonzero(contains_points(shape, centers)) > 0
        np.testing.assert_array_equal(rasterize(shapes, spec).labels_flat, want)

    def test_bad_label_is_rejected_before_any_span(self):
        shapes = [GroundPlane(z_top=1.0, label=1), Box(min_corner=(0, 0, 0), max_corner=(1, 1, 1), label=5)]
        with pytest.raises(ValueError, match="shape label 5 outside grid classes"):
            rasterize(shapes, default_grid_spec())

    @pytest.mark.parametrize("make_spec, bound_mb", [(nuscenes_grid_spec, 4.25), (kitti360_grid_spec, 7)],
                             ids=["nuscenes", "kitti360"])
    def test_paper_scale_synth_memory_is_bounded(self, make_spec, bound_mb):
        # The peak is the uint16 labels (1.22 and 4.0 MiB on nuScenes and
        # KITTI-360), which VoxelGrid keeps without a copy, plus either one
        # shape mask or the 2 MiB of a class-count block: 3.22 and 6.09 MiB
        # traced. Building the (N, 3) centers would add 15.4 and 50.3 MB.
        (grid, _), peak = traced_peak(lambda: synth_scene(0, spec=make_spec()))
        assert np.count_nonzero(grid.labels) > 10_000
        assert peak < bound_mb * 2**20


class TestShapes:
    def test_box_half_open_bounds(self):
        box = Box(min_corner=(0, 0, 0), max_corner=(1, 1, 1), label=1)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.5], [0.999, 0.999, 0.999]])
        np.testing.assert_array_equal(box.contains(*pts.T), [True, False, True])

    def test_cylinder_radius(self):
        cyl = Cylinder(center_xy=(0, 0), radius=1.0, z_min=0.0, z_max=2.0, label=1)
        pts = np.array([[0.5, 0.0, 1.0], [1.5, 0.0, 1.0], [0.5, 0.0, 2.5]])
        np.testing.assert_array_equal(cyl.contains(*pts.T), [True, False, False])

    def test_sphere_and_plane(self):
        sph = Sphere(center=(0, 0, 0), radius=1.0, label=2)
        assert bool(sph.contains(*np.array([[0.5, 0.5, 0.5]]).T)[0])
        assert not bool(sph.contains(*np.array([[1.0, 1.0, 1.0]]).T)[0])
        plane = GroundPlane(z_top=1.0, label=1)
        np.testing.assert_array_equal(
            plane.contains(*np.array([[0, 0, 0.5], [0, 0, 1.5]]).T), [True, False]
        )

    def test_sphere_sums_like_the_pointwise_oracle(self):
        # On a sphere through a point whose squared distance rounds apart in
        # the two orders (dx^2 + dy^2) + dz^2 and dx^2 + (dy^2 + dz^2), only
        # the first order, the oracle's, gives the oracle's answer.
        found = 0
        for p in np.random.default_rng(0).uniform(-1.0, 1.0, size=(2000, 3)):
            sq = p * p
            left, right = (sq[0] + sq[1]) + sq[2], sq[0] + (sq[1] + sq[2])
            radius = float(np.sqrt(max(left, right)))
            if left == right or radius**2 != max(left, right):
                continue
            sph = Sphere(center=(0.0, 0.0, 0.0), radius=radius, label=1)
            assert bool(sph.contains(*p[:, None])[0]) == bool(contains_points(sph, p[None])[0]) == (left < right)
            found += 1
        assert found > 10
