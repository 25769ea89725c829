"""Voxel grid model, voxelization and OGRID file round trips."""

import warnings

import numpy as np
import pytest

from gaussocc.core import GaussianPrimitive, GaussianSet
from gaussocc.field import FieldEvaluator
from gaussocc.grid import (
    GridSpec,
    VoxelGrid,
    kitti360_grid_spec,
    load_grid,
    nuscenes_grid_spec,
    save_grid,
    voxel_center,
    voxelize,
    voxelize_legacy,
)
from gaussocc.scenes import synth_scene

from conftest import random_gaussian_set


def small_spec(classes=4, res=(8, 8, 8)):
    return GridSpec(
        min_corner=np.zeros(3),
        max_corner=np.array(res, dtype=float),
        resolution=np.array(res),
        num_classes_total=classes,
    )


class TestVoxelCenter:
    def test_benchmark_surround_view_origin_voxel(self):
        np.testing.assert_allclose(
            voxel_center(nuscenes_grid_spec(), 0, 0, 0), [-49.75, -49.75, -4.75], atol=1e-12
        )

    def test_unit_cube_single_voxel(self):
        spec = GridSpec(
            min_corner=np.zeros(3),
            max_corner=np.ones(3),
            resolution=np.array([1, 1, 1]),
            num_classes_total=2,
        )
        np.testing.assert_allclose(voxel_center(spec, 0, 0, 0), [0.5, 0.5, 0.5], atol=1e-15)

    def test_benchmark_monocular_voxel_size(self):
        np.testing.assert_allclose(kitti360_grid_spec().voxel_size, [0.2, 0.2, 0.2], atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            voxel_center(small_spec(), 8, 0, 0)

    def test_all_centers_layout_order(self):
        spec = small_spec(res=(2, 3, 4))
        centers = spec.all_centers()
        for ix in range(2):
            for iy in range(3):
                for iz in range(4):
                    flat = (ix * 3 + iy) * 4 + iz
                    np.testing.assert_allclose(centers[flat], voxel_center(spec, ix, iy, iz))

    @pytest.mark.parametrize("spec", [
        nuscenes_grid_spec(),
        kitti360_grid_spec(),
        GridSpec(min_corner=np.array([-10.3, -4.1, 0.0]), max_corner=np.array([10.0, 4.1, 8.0]),
                 resolution=np.array([203, 41, 15]), num_classes_total=5),
    ], ids=["nuscenes", "kitti360", "odd"])
    def test_take_and_voxel_center_equal_all_centers(self, spec):
        # Both compute only the centers asked for, with the bits of the
        # whole-grid stack.
        flat = np.random.default_rng(7).integers(0, spec.num_voxels, size=500)
        flat[:2] = [0, spec.num_voxels - 1]
        want = spec.all_centers()[flat]
        assert spec.centers().take(flat).tobytes() == want.tobytes()
        got = [voxel_center(spec, *np.unravel_index(f, tuple(spec.resolution))) for f in flat[:50].tolist()]
        assert np.array(got).tobytes() == want[:50].tobytes()

    @pytest.mark.parametrize("start, stop", [(0, 7), (2, 5), (6, 7), (3, 3)])
    def test_rows_equal_the_meshgrid_stack(self, start, stop):
        spec = GridSpec(min_corner=np.array([-1.3, 0.2, -7.0]), max_corner=np.array([2.9, 1.7, 3.1]),
                        resolution=np.array([7, 5, 3]), num_classes_total=2)
        # The x-rows start:stop of all_centers.
        ax, ay, az = spec.centers().axes()
        want = np.stack(np.meshgrid(ax[start:stop], ay, az, indexing="ij"), axis=-1).reshape(-1, 3)
        got = spec.all_centers()[start * 5 * 3 : stop * 5 * 3]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_occupied_centers_equal_masked_all_centers(self, seed):
        grid, _ = synth_scene(seed, spec=nuscenes_grid_spec(num_classes_total=5))
        expected = grid.spec.all_centers()[grid.labels_flat != 0]
        got = grid.occupied_centers()
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_occupied_centers_of_empty_grid(self):
        grid = VoxelGrid(spec=small_spec(res=(2, 3, 4)), labels=np.zeros(24, dtype=np.uint16))
        assert grid.occupied_centers().shape == (0, 3)


class TestVoxelize:
    def test_channel_count_must_match_the_model(self):
        spec = small_spec(classes=4)
        rng = np.random.default_rng(90)
        with pytest.raises(ValueError, match=r"probabilistic set needs 3 channels \(one per semantic class\), got 4"):
            voxelize(random_gaussian_set(rng, 3, 4), spec)
        with pytest.raises(ValueError, match=r"additive set needs 4 channels \(empty first\), got 3"):
            voxelize_legacy(random_gaussian_set(rng, 3, 3), spec)

    def test_empty_region_all_empty(self):
        gs = GaussianSet.from_primitives(
            [
                GaussianPrimitive(
                    mean=(100, 100, 100),
                    scale=(1, 1, 1),
                    rotation=(1, 0, 0, 0),
                    opacity=1.0,
                    semantics=np.zeros(3),
                )
            ]
        )
        grid = voxelize(gs, small_spec())
        assert np.all(grid.labels == 0)

    def test_single_gaussian_labels_its_voxel(self):
        spec = small_spec()
        center = voxel_center(spec, 4, 4, 4)
        logits = np.zeros(3)
        logits[1] = 5.0  # class 2 one-hot
        gs = GaussianSet.from_primitives(
            [
                GaussianPrimitive(
                    mean=center, scale=(1, 1, 1), rotation=(1, 0, 0, 0), opacity=1.0, semantics=logits
                )
            ]
        )
        grid = voxelize(gs, spec)
        assert grid.labels[4, 4, 4] == 2

    def test_matches_per_voxel_scalar_oracle(self):
        rng = np.random.default_rng(30)
        spec = GridSpec(
            min_corner=np.array([-5.0, -5.0, -5.0]),
            max_corner=np.array([5.0, 5.0, 5.0]),
            resolution=np.array([20, 20, 20]),
            num_classes_total=4,
        )
        gs = random_gaussian_set(rng, 32, 3, spread=4.0)
        grid = voxelize(gs, spec)
        ev = FieldEvaluator(gs)
        labels = grid.labels_flat
        centers = spec.all_centers()
        for flat in rng.choice(spec.num_voxels, size=600, replace=False):
            out = ev.compose(centers[flat][None, :])[0]
            assert labels[flat] == int(np.argmax(out))

    def test_permutation_invariant_labels(self):
        rng = np.random.default_rng(31)
        spec = small_spec()
        gs = random_gaussian_set(rng, 12, 3, spread=4.0)
        shifted = GaussianSet(
            means=gs.means + 4.0,
            scales=gs.scales,
            rotations=gs.rotations,
            opacities=gs.opacities,
            logits=gs.logits,
        )
        perm = rng.permutation(len(shifted))
        shuffled = GaussianSet.from_primitives([shifted.primitive(int(i)) for i in perm])
        np.testing.assert_array_equal(
            voxelize(shifted, spec).labels, voxelize(shuffled, spec).labels
        )

    def test_threads_do_not_change_labels(self):
        rng = np.random.default_rng(32)
        spec = small_spec()
        gs = random_gaussian_set(rng, 8, 3, spread=4.0)
        shifted = GaussianSet(
            means=np.abs(gs.means),
            scales=gs.scales,
            rotations=gs.rotations,
            opacities=gs.opacities,
            logits=gs.logits,
        )
        np.testing.assert_array_equal(
            voxelize(shifted, spec, threads=1).labels, voxelize(shifted, spec, threads=4).labels
        )

    def test_disjoint_gaussian_changes_only_its_neighborhood(self):
        spec = small_spec(res=(12, 12, 12))
        base = GaussianSet.from_primitives(
            [
                GaussianPrimitive(
                    mean=(2.0, 2.0, 2.0),
                    scale=(0.4, 0.4, 0.4),
                    rotation=(1, 0, 0, 0),
                    opacity=1.0,
                    semantics=(5.0, 0.0, 0.0),
                )
            ]
        )
        extra = GaussianPrimitive(
            mean=(9.0, 9.0, 9.0),
            scale=(0.4, 0.4, 0.4),
            rotation=(1, 0, 0, 0),
            opacity=1.0,
            semantics=(0.0, 5.0, 0.0),
        )
        before = voxelize(base, spec).labels
        after = voxelize(
            GaussianSet.from_primitives([base.primitive(0), extra]), spec
        ).labels
        centers = spec.all_centers().reshape(12, 12, 12, 3)
        d2 = np.sum((centers - np.array([9.0, 9.0, 9.0])) ** 2, axis=-1) / 0.4**2
        outside = d2 > 25.0
        np.testing.assert_array_equal(before[outside], after[outside])
        occupied_before = set(map(tuple, np.argwhere(before != 0)))
        occupied_after = set(map(tuple, np.argwhere(after != 0)))
        assert occupied_before <= occupied_after


class TestOgridFiles:
    def _sample_grid(self):
        rng = np.random.default_rng(33)
        spec = small_spec(classes=5, res=(6, 5, 4))
        labels = rng.integers(0, 5, size=spec.num_voxels).astype(np.uint16)
        return VoxelGrid(spec=spec, labels=labels)

    @pytest.mark.parametrize("binary", [False, True])
    def test_round_trip_bit_identical(self, tmp_path, binary):
        grid = self._sample_grid()
        path = tmp_path / "grid.ogrid"
        save_grid(path, grid, binary=binary)
        loaded = load_grid(path)
        assert loaded.spec.describes_same_grid(grid.spec)
        np.testing.assert_array_equal(loaded.labels, grid.labels)
        second = tmp_path / "again.ogrid"
        save_grid(second, loaded, binary=binary)
        assert path.read_bytes() == second.read_bytes()

    def test_header_format(self, tmp_path):
        grid = self._sample_grid()
        path = tmp_path / "grid.ogrid"
        save_grid(path, grid)
        header = path.read_text().splitlines()[0].split()
        assert header[:6] == ["OGRID", "1", "6", "5", "4", "5"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ogrid"
        path.write_text("NOPE 1 1 1 1 2 0 0 0 1 1 1\n0\n")
        with pytest.raises(ValueError, match="OGRID"):
            load_grid(path)

    def test_label_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.ogrid"
        path.write_text("OGRID 1 2 1 1 2 0 0 0 1 1 1\n0\n")
        with pytest.raises(ValueError, match="expected"):
            load_grid(path)


class TestLabelOwnership:
    @staticmethod
    def _frozen(a):
        a.setflags(write=False)
        return a

    @pytest.mark.parametrize("source", ["writable", "writable int64", "read-only view", "read-only view of a view",
                                        "read-only bytearray buffer"])
    def test_a_callers_writable_array_never_changes_the_grid(self, source):
        spec = small_spec(classes=5, res=(6, 5, 4))
        base = np.ones(spec.num_voxels, dtype=np.int64 if source == "writable int64" else np.uint16)
        if source.startswith("writable"):
            labels = base
        elif source == "read-only view":
            labels = self._frozen(base.reshape(6, 5, 4))
        elif source == "read-only view of a view":
            labels = self._frozen(self._frozen(base[:]).reshape(6, 5, 4))
        else:
            buffer = bytearray(base.tobytes())
            labels = np.frombuffer(memoryview(buffer).toreadonly(), dtype=np.uint16)
            base = np.frombuffer(buffer, dtype=np.uint16)
        assert not labels.flags.writeable or source.startswith("writable")
        grid = VoxelGrid(spec=spec, labels=labels)
        base[:] = 2
        assert np.all(grid.labels == 1)
        assert grid.labels.dtype == np.uint16 and not grid.labels.flags.writeable

    @pytest.mark.parametrize("shape", [(120,), (6, 5, 4)])
    def test_a_frozen_uint16_array_is_kept(self, shape):
        spec = small_spec(classes=5, res=(6, 5, 4))
        labels = self._frozen(np.arange(120, dtype=np.uint16).reshape(shape) % 5)
        grid = VoxelGrid(spec=spec, labels=labels)
        assert np.shares_memory(grid.labels, labels)
        np.testing.assert_array_equal(grid.labels_flat, np.arange(120) % 5)


class TestSpecValidation:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(
                min_corner=np.ones(3),
                max_corner=np.zeros(3),
                resolution=np.array([2, 2, 2]),
                num_classes_total=3,
            )

    def test_labels_out_of_range_rejected(self):
        spec = small_spec(classes=3)
        labels = np.full(spec.num_voxels, 7, dtype=np.uint16)
        with pytest.raises(ValueError):
            VoxelGrid(spec=spec, labels=labels)

    def test_point_lookup_outside_is_empty(self):
        spec = small_spec()
        labels = np.ones(spec.num_voxels, dtype=np.uint16)
        grid = VoxelGrid(spec=spec, labels=labels)
        assert grid.labels_at_points(np.array([[-1.0, 0.0, 0.0]]))[0] == 0
        assert grid.labels_at_points(np.array([[0.5, 0.5, 0.5]]))[0] == 1

    @pytest.mark.parametrize(
        "lo, hi, field",
        [
            ([-10.0, -10.0, 0.0], [np.inf, 10.0, 10.0], "max_corner must be finite"),
            ([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0], "min_corner must be finite"),
            ([-np.inf, 0.0, 0.0], [1.0, 1.0, 1.0], "min_corner must be finite"),
            ([-1e308] * 3, [1e308] * 3, r"max_corner - min_corner must be finite"),
        ],
    )
    def test_non_finite_corners_and_extent_rejected(self, lo, hi, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=field):
                GridSpec(
                    min_corner=np.array(lo),
                    max_corner=np.array(hi),
                    resolution=np.array([4, 4, 4]),
                    num_classes_total=5,
                )

    def test_far_and_non_finite_points_read_as_empty_without_warning(self):
        spec = small_spec()
        grid = VoxelGrid(spec=spec, labels=np.ones(spec.num_voxels, dtype=np.uint16))
        far = np.array(
            [
                [1e308, 0.0, 0.0],
                [-1e308, 0.0, 0.0],
                [0.0, 1.7e308, 0.0],
                [np.nan, 0.0, 0.0],
                [0.0, np.inf, 0.0],
                [0.0, 0.0, -np.inf],
                [8.0, 0.0, 0.0],
                [-1e-300, 0.0, 0.0],
            ]
        )
        coords = far.T.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = spec.voxel_index(coords)
            np.testing.assert_array_equal(grid.labels_at_points(far), np.zeros(len(far)))
        np.testing.assert_array_equal(flat, spec.num_voxels)
        # Outside points are clipped into range, not left out of it.
        assert np.all((coords >= 0) & (coords <= spec.resolution[:, None] - 1))

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (2, 3, 3)])
    def test_points_that_are_not_n_by_3_rejected(self, shape):
        grid = VoxelGrid(spec=nuscenes_grid_spec(), labels=np.zeros(200 * 200 * 16, dtype=np.uint16))
        with pytest.raises(ValueError, match=r"query points must be an \(N, 3\) array, got shape"):
            grid.labels_at_points(np.zeros(shape))

    def test_voxel_index_in_grid_indices_are_the_floor(self):
        spec = nuscenes_grid_spec()
        rng = np.random.default_rng(7)
        points = rng.uniform(spec.min_corner, spec.max_corner, size=(5000, 3))
        points[:3] = spec.min_corner  # the lower faces are inside
        coords = points.T.copy()
        flat = spec.voxel_index(coords)
        expected = np.floor((points - spec.min_corner) / spec.voxel_size).astype(np.int64)
        np.testing.assert_array_equal(coords.T.astype(np.int64), expected)
        np.testing.assert_array_equal(flat, np.ravel_multi_index(expected.T, tuple(spec.resolution)))

    def test_labels_at_points_equal_the_three_index_gather(self):
        # The (N, 3) lookup the column-wise one replaced, kept as the oracle.
        def gather(grid, points):
            spec = grid.spec
            with np.errstate(over="ignore", invalid="ignore"):
                rel = (points - spec.min_corner) / spec.voxel_size
            inside = np.all((rel >= 0) & (rel < spec.resolution), axis=1)
            idx = np.floor(np.fmin(np.fmax(rel, 0), spec.resolution - 1)).astype(np.int64)
            out = grid.labels[idx[:, 0], idx[:, 1], idx[:, 2]].astype(np.int64)
            out[~inside] = 0
            return out

        rng = np.random.default_rng(12)
        spec = GridSpec(np.array([-1 / 3, 2.0, -7.1]), np.array([3.0, 2.7, 1.0]), np.array([10, 7, 5]), 6)
        grid = VoxelGrid(spec=spec, labels=rng.integers(0, 6, size=spec.num_voxels))
        vs = spec.voxel_size
        faces = spec.min_corner + rng.integers(-1, spec.resolution + 2, size=(3000, 3)) * vs
        random = rng.uniform(spec.min_corner - vs, spec.max_corner + vs, size=(3000, 3))
        odd = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0], size=(3000, 3))
        mixed = np.where(rng.random((3000, 3)) < 0.2, odd, random)
        for points in (faces, random, mixed, np.vstack([faces, mixed])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = grid.labels_at_points(points)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, gather(grid, points))
        assert 0 < np.count_nonzero(gather(grid, mixed)) < len(mixed)
