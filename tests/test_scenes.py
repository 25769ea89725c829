"""Synthetic scene recipes against independent rasterization oracles."""

import numpy as np
import pytest

from gaussocc import field
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
                        if bool(shape.contains(c[None, :])[0]):
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


def whole_grid_rasterize(shapes, spec: GridSpec) -> np.ndarray:
    """The flat labels of every recipe's shapes over all voxel centers at
    once, the centers built by meshgrid and stack from the grid's axes."""
    ax, ay, az = spec.centers().axes()
    centers = np.stack(np.meshgrid(ax, ay, az, indexing="ij"), axis=-1).reshape(-1, 3)
    labels = np.zeros(spec.num_voxels, dtype=np.uint16)
    for shape in shapes:
        labels[shape.contains(centers)] = shape.label
    return labels


# 199 x-rows of 41 x 16 voxels fit in a span, so 203 x-rows leave a span
# of 4.
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

    def test_odd_spec_ends_with_a_short_span(self):
        assert field._row_spans(ODD_SPEC.resolution)[-2:] == [(0, 199), (199, 203)]
        assert field._row_spans(default_grid_spec().resolution) == [(0, 40)]

    @pytest.mark.parametrize("budget", [1, 2000, 6400])
    def test_small_spans_give_the_same_labels(self, budget, monkeypatch):
        # One x-row of 640 voxels per span, then 3 x-rows (40 = 13 * 3 + 1),
        # then 10.
        spec = default_grid_spec()
        monkeypatch.setattr(field, "_SPAN_VOXELS", budget)
        assert len(field._row_spans(spec.resolution)) == {1: 40, 2000: 14, 6400: 4}[budget]
        for recipe in sorted(RECIPES):
            shapes = RECIPES[recipe](np.random.Generator(np.random.Philox(key=np.uint64(4))), spec)
            np.testing.assert_array_equal(rasterize(shapes, spec).labels_flat, whole_grid_rasterize(shapes, spec))

    def test_bad_label_is_rejected_before_any_span(self):
        shapes = [GroundPlane(z_top=1.0, label=1), Box(min_corner=(0, 0, 0), max_corner=(1, 1, 1), label=5)]
        with pytest.raises(ValueError, match="shape label 5 outside grid classes"):
            rasterize(shapes, default_grid_spec())

    @pytest.mark.parametrize("make_spec, bound_mb", [(nuscenes_grid_spec, 12), (kitti360_grid_spec, 32)],
                             ids=["nuscenes", "kitti360"])
    def test_paper_scale_synth_memory_is_bounded(self, make_spec, bound_mb):
        # The whole-grid centers and their meshgrid copies peaked at 36 MB
        # (nuScenes) and 118 MB (KITTI-360); the labels take 1.3 and 4.2 MB.
        (grid, _), peak = traced_peak(lambda: synth_scene(0, spec=make_spec()))
        assert np.count_nonzero(grid.labels) > 10_000
        assert peak < bound_mb * 2**20


class TestShapes:
    def test_box_half_open_bounds(self):
        box = Box(min_corner=(0, 0, 0), max_corner=(1, 1, 1), label=1)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.5], [0.999, 0.999, 0.999]])
        np.testing.assert_array_equal(box.contains(pts), [True, False, True])

    def test_cylinder_radius(self):
        cyl = Cylinder(center_xy=(0, 0), radius=1.0, z_min=0.0, z_max=2.0, label=1)
        pts = np.array([[0.5, 0.0, 1.0], [1.5, 0.0, 1.0], [0.5, 0.0, 2.5]])
        np.testing.assert_array_equal(cyl.contains(pts), [True, False, False])

    def test_sphere_and_plane(self):
        sph = Sphere(center=(0, 0, 0), radius=1.0, label=2)
        assert bool(sph.contains(np.array([[0.5, 0.5, 0.5]]))[0])
        assert not bool(sph.contains(np.array([[1.0, 1.0, 1.0]]))[0])
        plane = GroundPlane(z_top=1.0, label=1)
        np.testing.assert_array_equal(
            plane.contains(np.array([[0, 0, 0.5], [0, 0, 1.5]])), [True, False]
        )
