"""Grid metrics and the utilization audit against independent oracles."""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussocc import metrics
from gaussocc.core import (
    MIN_SCALE,
    GaussianPrimitive,
    GaussianSet,
    build_covariance,
    covariance_matrices,
    rotation_matrices,
)
from gaussocc.field import _SPAN_PAIRS, FieldEvaluator
from gaussocc.grid import GridSpec, VoxelGrid, kitti360_grid_spec, nuscenes_grid_spec
from gaussocc.metrics import (
    CHI2_3DOF_90,
    ConfusionMatrix,
    bhattacharyya_coef,
    ellipsoid_volume_90,
    indiv_overlap,
    iou,
    mc_coverage_volume,
    mean_nearest_dist,
    miou,
    overall_overlap,
    perc_correct,
    utilization_report,
)

from conftest import random_gaussian_set, traced_peak

grid_module = importlib.import_module("gaussocc.grid")


def grid_of(labels, classes=4):
    labels = np.asarray(labels, dtype=np.uint16)
    spec = GridSpec(
        min_corner=np.zeros(3),
        max_corner=np.array(labels.shape, dtype=float),
        resolution=np.array(labels.shape),
        num_classes_total=classes,
    )
    return VoxelGrid(spec=spec, labels=labels)


def random_grid(rng, classes=4, res=(8, 8, 8)):
    return grid_of(rng.integers(0, classes, size=res), classes=classes)


def iou_oracle(pred, gt):
    """Set-arithmetic recomputation."""
    p = {tuple(v) for v in np.argwhere(pred.labels != 0)}
    g = {tuple(v) for v in np.argwhere(gt.labels != 0)}
    union = p | g
    if not union:
        return 1.0
    return len(p & g) / len(union)


def miou_oracle(pred, gt, classes):
    vals = []
    for c in range(1, classes):
        p = {tuple(v) for v in np.argwhere(pred.labels == c)}
        g = {tuple(v) for v in np.argwhere(gt.labels == c)}
        union = p | g
        if union:
            vals.append(len(p & g) / len(union))
    return sum(vals) / len(vals) if vals else 1.0


def coverage_hits_oracle(gs, scene_bbox, mc_samples, seed):
    """Monte Carlo hits by a loop over Gaussians with explicit inverse
    covariances. Chunk k of 2^17 samples draws from the Philox stream keyed
    ``(seed << 64) | k``."""
    hits = 0
    for k, start in enumerate(range(0, mc_samples, 1 << 17)):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | k))
        pts = rng.uniform(*scene_bbox, size=(min(1 << 17, mc_samples - start), 3))
        inside = np.zeros(pts.shape[0], dtype=bool)
        for i in range(len(gs)):
            d = pts - gs.means[i]
            inv = build_covariance(gs.primitive(i)).inverse
            inside |= np.einsum("na,ab,nb->n", d, inv, d) <= CHI2_3DOF_90
        hits += int(np.count_nonzero(inside))
    return hits


def ill_conditioned_set(rng, p, spread=3.0) -> GaussianSet:
    """Random rotations with log-uniform scales from MIN_SCALE to 100, so
    covariance condition numbers reach about 1e10."""
    base = random_gaussian_set(rng, p, 2, spread=spread)
    return GaussianSet(
        means=base.means,
        scales=np.exp(rng.uniform(np.log(MIN_SCALE), np.log(100.0), size=(p, 3))),
        rotations=base.rotations,
        opacities=base.opacities,
        logits=base.logits,
    )


def components(covs):
    """The six upper-triangle component arrays ``a b c d e f`` of (n, 3, 3)
    symmetric matrices."""
    return [covs[:, i, j] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]


def pair_coefficients(gs):
    """(P, P) closed-form Bhattacharyya coefficients of every pair, row by
    row, with a zero diagonal: the exhaustive oracle for the pruned
    ``indiv_overlap``."""
    p = len(gs)
    comp = np.stack(components(covariance_matrices(gs)))
    log_dets = metrics._spd3_cholesky(*comp)
    out = np.zeros((p, p))
    for i in range(p - 1):
        j = np.arange(i + 1, p)
        log_det_avg, quad = metrics._spd3_cholesky(*(0.5 * (comp[:, i, None] + comp[:, j])),
                                                   x=(gs.means[i] - gs.means[j]).T)
        out[i, j] = np.exp(0.25 * (log_dets[i] + log_dets[j]) - 0.5 * log_det_avg - 0.125 * quad)
    return out + out.T


def box_recipe_set(p, seed):
    """Means uniform in a 100 x 100 x 8 m box and scales of 0.25-1.5 m,
    the extent and sizes of a paper-grid set."""
    rng = np.random.default_rng(seed)
    return GaussianSet(means=rng.uniform((0, 0, 0), (100, 100, 8), size=(p, 3)),
                       scales=rng.uniform(0.25, 1.5, size=(p, 3)), rotations=rng.normal(size=(p, 4)),
                       opacities=rng.uniform(0.1, 1.0, size=p), logits=rng.normal(size=(p, 4)))


def assert_within_pruning_contract(value, exact, p):
    # The pruned sum loses at most (P - 1) * 1e-16 per Gaussian; the rest is
    # summation order.
    assert abs(value - exact) <= (p - 1) * 2e-16 + 1e-12 * exact


def isotropic(mean, scale=1.0, logits=(0.0, 0.0)):
    return GaussianPrimitive(
        mean=mean, scale=(scale,) * 3, rotation=(1, 0, 0, 0), opacity=1.0, semantics=logits
    )


class TestIou:
    def test_perfect_agreement(self):
        rng = np.random.default_rng(40)
        g = random_grid(rng)
        assert iou(g, g) == 1.0

    def test_empty_prediction(self):
        rng = np.random.default_rng(41)
        gt = random_grid(rng)
        pred = grid_of(np.zeros_like(gt.labels))
        assert iou(pred, gt) == 0.0

    def test_empty_vs_empty_defined_as_one(self):
        empty = grid_of(np.zeros((4, 4, 4)))
        assert iou(empty, empty) == 1.0

    def test_matches_set_arithmetic_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            pred, gt = random_grid(rng), random_grid(rng)
            assert iou(pred, gt) == iou_oracle(pred, gt)

    def test_spec_mismatch_rejected(self):
        a = grid_of(np.zeros((4, 4, 4)))
        b = grid_of(np.zeros((4, 4, 5)))
        with pytest.raises(ValueError, match="share one spec"):
            iou(a, b)


class TestMiou:
    def test_perfect_agreement(self):
        rng = np.random.default_rng(43)
        g = random_grid(rng)
        assert miou(g, g) == 1.0

    def test_relabeled_class_matches_confusion_oracle(self):
        rng = np.random.default_rng(44)
        gt = random_grid(rng)
        labels = gt.labels.copy()
        labels[labels == 1] = 2  # collapse class 1 into class 2
        pred = grid_of(labels)
        assert miou(pred, gt) == pytest.approx(miou_oracle(pred, gt, 4), abs=0)
        assert miou(pred, gt) < miou(gt, gt)

    def test_half_overlap_two_class_toy(self):
        # One class, prediction shifted to overlap half the ground truth:
        # IoU = 2/6... constructed here with 50% overlap per the toy layout.
        gt = np.zeros((4, 1, 1), dtype=np.uint16)
        gt[:2] = 1
        pred = np.zeros((4, 1, 1), dtype=np.uint16)
        pred[1:3] = 1
        assert miou(grid_of(pred, classes=2), grid_of(gt, classes=2)) == pytest.approx(1.0 / 3.0)

    def test_absent_classes_excluded_by_default(self):
        gt = np.zeros((3, 3, 1), dtype=np.uint16)
        gt[0] = 1
        pred = gt.copy()
        assert miou(grid_of(pred), grid_of(gt)) == 1.0
        assert miou(grid_of(pred), grid_of(gt), include_absent=True) == pytest.approx(1.0 / 3.0)

    def test_matches_oracle_on_random_grids(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            pred, gt = random_grid(rng), random_grid(rng)
            assert miou(pred, gt) == miou_oracle(pred, gt, 4)


class TestConfusionMatrix:
    def test_total_counts(self):
        rng = np.random.default_rng(46)
        pred, gt = random_grid(rng), random_grid(rng)
        cm = ConfusionMatrix.from_grids(pred, gt)
        assert cm.total == gt.spec.num_voxels

    def test_rows_are_ground_truth(self):
        gt = grid_of(np.full((2, 2, 2), 1, dtype=np.uint16))
        pred = grid_of(np.full((2, 2, 2), 2, dtype=np.uint16))
        cm = ConfusionMatrix.from_grids(pred, gt)
        assert cm.counts[1, 2] == 8
        assert cm.counts[2, 1] == 0

    def test_scores_equal_the_grid_functions_and_oracles(self):
        rng = np.random.default_rng(48)
        for _ in range(25):
            pred, gt = random_grid(rng), random_grid(rng)
            cm = ConfusionMatrix.from_grids(pred, gt)
            assert cm.iou() == iou(pred, gt) == iou_oracle(pred, gt)
            assert cm.miou() == miou(pred, gt) == miou_oracle(pred, gt, 4)
            assert cm.miou(include_absent=True) == miou(pred, gt, include_absent=True)

    def test_empty_grids_score_one(self):
        empty = grid_of(np.zeros((2, 2, 2)))
        cm = ConfusionMatrix.from_grids(empty, empty)
        assert cm.iou() == 1.0
        assert cm.miou() == 1.0

    def test_blocked_counts_equal_one_bincount(self, monkeypatch):
        # 17 * 13 * 11 voxels is not a multiple of the block.
        monkeypatch.setattr(grid_module, "_COUNT_BLOCK", 1000)
        rng = np.random.default_rng(49)
        k = 7
        pred, gt = random_grid(rng, classes=k, res=(17, 13, 11)), random_grid(rng, classes=k, res=(17, 13, 11))
        joint = gt.labels_flat.astype(np.int64) * k + pred.labels_flat
        want = np.bincount(joint, minlength=k * k).reshape(k, k)
        np.testing.assert_array_equal(ConfusionMatrix.from_grids(pred, gt).counts, want)
        np.testing.assert_array_equal(gt.class_voxel_counts(), np.bincount(gt.labels_flat, minlength=k))

    def test_counting_memory_is_bounded_at_paper_scale(self):
        spec = kitti360_grid_spec()
        rng = np.random.default_rng(50)
        pred, gt = (VoxelGrid(spec=spec, labels=rng.integers(0, spec.num_classes_total, size=tuple(spec.resolution),
                                                             dtype=np.uint16)) for _ in range(2))
        score, peak = traced_peak(lambda: miou(pred, gt))
        assert 0.0 <= score <= 1.0
        assert peak <= 4 * 2**20, f"{peak / 2**20:.1f} MB traced"


class TestPositionMetrics:
    def _occupied_grid(self):
        labels = np.zeros((8, 8, 8), dtype=np.uint16)
        labels[2:5, 2:5, 2:5] = 1
        return grid_of(labels)

    def test_all_means_on_occupied_centers(self):
        gt = self._occupied_grid()
        centers = gt.occupied_centers()
        gs = GaussianSet.from_primitives([isotropic(c) for c in centers[:10]])
        assert perc_correct(gs, gt) == 100.0
        assert mean_nearest_dist(gs, gt) == 0.0

    def test_all_means_outside_grid(self):
        gt = self._occupied_grid()
        gs = GaussianSet.from_primitives([isotropic((20, 20, 20)), isotropic((-5, 0, 0))])
        assert perc_correct(gs, gt) == 0.0

    def test_l1_offset_case(self):
        labels = np.zeros((8, 8, 8), dtype=np.uint16)
        labels[4, 4, 4] = 1
        gt = grid_of(labels)
        center = gt.occupied_centers()[0]
        gs = GaussianSet.from_primitives([isotropic(center + np.array([0.1, 0.2, 0.0]))])
        assert mean_nearest_dist(gs, gt) == pytest.approx(0.3, abs=1e-12)

    def test_perc_matches_containment_oracle(self):
        rng = np.random.default_rng(47)
        gt = random_grid(rng, res=(6, 6, 6))
        gs = random_gaussian_set(rng, 40, 2, spread=4.0)
        means = rng.uniform(-2, 8, size=(40, 3))
        gs = GaussianSet(
            means=means, scales=gs.scales, rotations=gs.rotations, opacities=gs.opacities, logits=gs.logits
        )
        correct = 0
        for m in means:
            idx = np.floor(m).astype(int)
            if np.all(idx >= 0) and np.all(idx < 6) and gt.labels[tuple(idx)] != 0:
                correct += 1
        assert perc_correct(gs, gt) == pytest.approx(100.0 * correct / 40)

    def test_dist_matches_exhaustive_scan(self):
        rng = np.random.default_rng(48)
        gt = random_grid(rng, res=(6, 6, 6))
        means = rng.uniform(-2, 8, size=(100, 3))
        gs = GaussianSet(
            means=means,
            scales=np.full((100, 3), 0.5),
            rotations=np.tile([1.0, 0, 0, 0], (100, 1)),
            opacities=np.ones(100),
            logits=np.zeros((100, 3)),
        )
        centers = gt.occupied_centers()
        expected = np.mean(
            [np.min(np.sum(np.abs(centers - m), axis=1)) for m in means]
        )
        assert mean_nearest_dist(gs, gt) == pytest.approx(expected, rel=1e-12)

    def test_empty_ground_truth_rejected(self):
        gt = grid_of(np.zeros((4, 4, 4)))
        gs = GaussianSet.from_primitives([isotropic((1, 1, 1))])
        with pytest.raises(ValueError, match="no occupied"):
            mean_nearest_dist(gs, gt)


def nearest_l1_oracle(gt, points):
    centers = gt.occupied_centers()
    return np.array([np.min(np.sum(np.abs(centers - m), axis=1)) for m in points])


def nearest_l1(gt, points):
    return metrics._nearest_occupied_l1(points, gt.occupied_mask, gt.spec.centers().axes())


def set_at(means):
    p = len(means)
    return GaussianSet(
        means=means,
        scales=np.ones((p, 3)),
        rotations=np.tile([1.0, 0, 0, 0], (p, 1)),
        opacities=np.ones(p),
        logits=np.zeros((p, 1)),
    )


@st.composite
def nearest_cases(draw):
    """A grid with anisotropic voxels and one to all voxels occupied, and
    points whose coordinates lie on centers, on voxel faces, anywhere
    near the grid or far outside it, axis by axis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    res = np.array([draw(st.integers(1, 9)) for _ in range(3)])
    size = np.array([draw(st.sampled_from([1 / 3, 0.1, 0.7, 1.0, 2.5])) for _ in range(3)])
    lo = np.array([draw(st.sampled_from([0.0, -1 / 3, 5.1, -40.0])) for _ in range(3)])
    spec = GridSpec(lo, lo + size * res, res, 2)
    labels = (rng.random(tuple(res)) < draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))).astype(np.uint16)
    labels[tuple(rng.integers(0, res))] = 1
    n = 40
    centers = spec.centers().axes()
    vs = spec.voxel_size
    cols = []
    for a in range(3):
        options = np.stack([
            rng.choice(centers[a], size=n),
            lo[a] + rng.integers(0, res[a] + 1, size=n) * vs[a],
            rng.uniform(lo[a] - 3 * vs[a], spec.max_corner[a] + 3 * vs[a], size=n),
            rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(2, 6, size=n),
        ])
        cols.append(options[rng.integers(0, 4, size=n), np.arange(n)])
    return VoxelGrid(spec=spec, labels=labels), np.stack(cols, axis=1)


class TestNearestOccupied:
    @given(nearest_cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_brute_force(self, case):
        gt, points = case
        expected = nearest_l1_oracle(gt, points)
        np.testing.assert_array_equal(nearest_l1(gt, points), expected)
        assert mean_nearest_dist(set_at(points), gt) == float(np.mean(expected))

    def test_window_doubles_to_a_far_row(self):
        # The one occupied voxel is 63 rows from the points: the search
        # window doubles six times before it reaches row 0.
        labels = np.zeros((3, 64, 2), dtype=np.uint16)
        labels[1, 0, 1] = 1
        gt = grid_of(labels, classes=2)
        rng = np.random.default_rng(3)
        points = np.column_stack([rng.uniform(0, 3, 50), rng.uniform(60, 64, 50), rng.uniform(0, 2, 50)])
        np.testing.assert_array_equal(nearest_l1(gt, points), nearest_l1_oracle(gt, points))

    def test_overflowing_distances_without_warning(self):
        rng = np.random.default_rng(8)
        gt = grid_of((rng.random((5, 4, 3)) < 0.3).astype(np.uint16), classes=2)
        points = np.array([[1.7e308, 2.0, 1.0], [-1.7e308, -1.7e308, 0.0], [9e307, 9e307, 9e307], [1e308, 0.0, -1e308]])
        with np.errstate(over="ignore"):
            expected = nearest_l1_oracle(gt, points)
        assert np.isinf(expected).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(nearest_l1(gt, points), expected)
            assert mean_nearest_dist(set_at(points), gt) == np.inf

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocks_do_not_change_distances(self, block, monkeypatch):
        rng = np.random.default_rng(5)
        gt = grid_of((rng.random((6, 9, 4)) < 0.1).astype(np.uint16), classes=2)
        points = rng.uniform(-3, 12, size=(60, 3))
        expected = nearest_l1_oracle(gt, points)
        monkeypatch.setattr(metrics, "_NEAREST_BLOCK", block)
        np.testing.assert_array_equal(nearest_l1(gt, points), expected)

    def test_paper_scale_memory_bound(self):
        spec = nuscenes_grid_spec(num_classes_total=2)
        rng = np.random.default_rng(11)
        gt = VoxelGrid(spec=spec, labels=(rng.random(tuple(spec.resolution)) < 0.13).astype(np.uint16))
        means = rng.uniform(spec.min_corner - 2.0, spec.max_corner + 2.0, size=(6400, 3))
        gs = set_at(means)
        value, peak = traced_peak(lambda: mean_nearest_dist(gs, gt))
        assert peak < 32 * 2**20
        assert value == float(np.mean(nearest_l1(gt, means)))
        np.testing.assert_array_equal(nearest_l1(gt, means[:200]), nearest_l1_oracle(gt, means[:200]))


class TestEllipsoidVolume:
    UNIT_VOLUME = 4.0 / 3.0 * np.pi * CHI2_3DOF_90**1.5

    def test_unit_closed_form(self):
        assert ellipsoid_volume_90(isotropic((0, 0, 0))) == pytest.approx(self.UNIT_VOLUME, rel=1e-12)
        assert self.UNIT_VOLUME == pytest.approx(65.4655, abs=5e-4)

    def test_scaling_doubles_exactly(self):
        g = GaussianPrimitive(
            mean=(0, 0, 0), scale=(2, 1, 1), rotation=(1, 0, 0, 0), opacity=1.0, semantics=(0.0,)
        )
        assert ellipsoid_volume_90(g) == 2.0 * self.UNIT_VOLUME

    def test_scaling_eighth_exactly(self):
        g = GaussianPrimitive(
            mean=(0, 0, 0), scale=(0.5, 0.5, 0.5), rotation=(1, 0, 0, 0), opacity=1.0, semantics=(0.0,)
        )
        assert ellipsoid_volume_90(g) == 0.125 * self.UNIT_VOLUME


class TestOverallOverlap:
    BBOX = (np.array([-5.0, -5.0, -5.0]), np.array([5.0, 5.0, 5.0]))

    def test_single_gaussian_is_unity(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0))])
        assert overall_overlap(gs, self.BBOX, 1_000_000, seed=1) == pytest.approx(1.0, rel=0.02)

    def test_coincident_pair_doubles(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0)), isotropic((0, 0, 0))])
        assert overall_overlap(gs, self.BBOX, 1_000_000, seed=2) == pytest.approx(2.0, rel=0.02)

    def test_disjoint_pair_is_unity(self):
        bbox = (np.array([-150.0, -5.0, -5.0]), np.array([150.0, 5.0, 5.0]))
        gs = GaussianSet.from_primitives([isotropic((-100, 0, 0)), isotropic((100, 0, 0))])
        assert overall_overlap(gs, bbox, 1_000_000, seed=3) == pytest.approx(1.0, rel=0.02)

    def test_deterministic_given_seed(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0))])
        a = overall_overlap(gs, self.BBOX, 200_000, seed=9)
        b = overall_overlap(gs, self.BBOX, 200_000, seed=9)
        assert a == b

    def test_no_coverage_rejected(self):
        gs = GaussianSet.from_primitives([isotropic((1000, 0, 0), scale=0.01)])
        with pytest.raises(ValueError, match="no coverage"):
            overall_overlap(gs, self.BBOX, 10_000, seed=0)

    def test_monte_carlo_error_scales_as_inverse_sqrt(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0))])
        truth = ellipsoid_volume_90(gs.primitive(0))
        stds = []
        for n in (10_000, 100_000, 1_000_000):
            estimates = [
                mc_coverage_volume(gs, self.BBOX, n, seed=s) for s in range(12)
            ]
            stds.append(np.std([e - truth for e in estimates]))
        # each decade should shrink the spread by roughly sqrt(10)
        assert 1.5 < stds[0] / stds[1] < 6.5
        assert 1.5 < stds[1] / stds[2] < 6.5

    @pytest.mark.parametrize("covering", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hits_match_per_gaussian_loop_oracle(self, covering, seed):
        rng = np.random.default_rng(54)
        gs = random_gaussian_set(rng, 12, 2, spread=5.5)
        scales = gs.scales.copy()
        scales[0] = MIN_SCALE
        scales[1] = (MIN_SCALE, 3.0, 3.0)  # a rotated disc
        means = gs.means
        if covering:
            # Its ellipsoid holds the whole box: every sample hits.
            means = np.vstack([means, np.zeros(3)])
            scales = np.vstack([scales, np.full(3, 4.0)])
        gs = GaussianSet(means=means, scales=scales, rotations=rng.normal(size=(len(means), 4)),
                         opacities=np.ones(len(means)), logits=np.zeros((len(means), 2)))
        n = 2**17 + 5  # two Monte Carlo chunks
        hits = coverage_hits_oracle(gs, self.BBOX, n, seed)
        assert 0 < hits <= n and (hits == n) == covering
        assert mc_coverage_volume(gs, self.BBOX, n, seed) == 1000.0 * hits / n

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hits_match_the_oracle_across_pair_budgets(self, seed, monkeypatch):
        # 48 Gaussians of 1-2.5 m with means at x in [-5, -1] give the
        # samples of the 10 m box about 26 candidates each, and leave about
        # 18% of them uncovered. Ranges of 2^17 candidate pairs, not of 8192
        # points, then cut each Monte Carlo chunk: the first chunk crosses
        # the pair budget many times.
        rng = np.random.default_rng(56)
        p = 48
        base = random_gaussian_set(rng, p, 2, spread=5.0)
        means = base.means.copy()
        means[:, 0] = rng.uniform(-5.0, -1.0, size=p)
        gs = GaussianSet(means=means, scales=rng.uniform(1.0, 2.5, size=(p, 3)), rotations=base.rotations,
                         opacities=np.ones(p), logits=np.zeros((p, 2)))
        candidates = []
        d2 = FieldEvaluator._d2

        def counted_d2(self, diff, pairs):
            candidates.append(diff.shape[0])
            return d2(self, diff, pairs)

        monkeypatch.setattr(FieldEvaluator, "_d2", counted_d2)
        n = 2**17 + 5  # two Monte Carlo chunks
        hits = coverage_hits_oracle(gs, self.BBOX, n, seed)
        assert 0 < hits < n
        assert mc_coverage_volume(gs, self.BBOX, n, seed) == 1000.0 * hits / n
        assert sum(candidates) > 10 * _SPAN_PAIRS and max(candidates) <= _SPAN_PAIRS
        assert len(candidates) > 2**17 // 8192 + 1  # more ranges than chunks of 8192 points

    def test_sample_blocks_are_cut_by_the_pair_budget_alone(self, monkeypatch):
        # 12 Gaussians of 0.2-0.6 m give each Monte Carlo block far fewer
        # than 2^17 candidates, so a block is one range: 20,000 samples
        # took 3 ranges of at most 8192 samples, and 2^17 + 5 samples 17.
        rng = np.random.default_rng(57)
        p = 12
        gs = GaussianSet(means=rng.uniform(-4.0, 4.0, (p, 3)), scales=rng.uniform(0.2, 0.6, (p, 3)),
                         rotations=rng.normal(size=(p, 4)), opacities=np.ones(p), logits=np.zeros((p, 2)))
        ranges = []
        d2 = FieldEvaluator._d2

        def counted_d2(self, diff, pairs):
            ranges.append(diff.shape[0])
            return d2(self, diff, pairs)

        monkeypatch.setattr(FieldEvaluator, "_d2", counted_d2)
        for n, blocks in ((20_000, 1), (2**17 + 5, 2)):
            ranges.clear()
            hits = coverage_hits_oracle(gs, self.BBOX, n, 0)
            assert 0 < hits < n
            assert mc_coverage_volume(gs, self.BBOX, n, 0) == 1000.0 * hits / n
            assert len(ranges) == blocks and sum(ranges) < _SPAN_PAIRS

    @pytest.mark.parametrize("lo, hi, message", [
        ([-np.inf, 0, 0], [1, 1, 1], r"^min_corner must be finite, got \[-inf, 0\.0, 0\.0\]$"),
        ([0, 0, 0], [1, np.inf, 1], r"^max_corner must be finite, got \[1\.0, inf, 1\.0\]$"),
        ([0, np.nan, 0], [1, 1, 1], r"^min_corner must be finite, got \[0\.0, nan, 0\.0\]$"),
        ([-1e308, 0, 0], [1e308, 1, 1], r"^max_corner - min_corner must be finite on every axis$"),
    ], ids=["-inf", "inf", "nan", "overflowing-extent"])
    def test_non_finite_box_rejected(self, lo, hi, message):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0))])
        with pytest.raises(ValueError, match=message):
            mc_coverage_volume(gs, (lo, hi), 1000, 0)

    @pytest.mark.parametrize("mc_samples", [1000.0, True, 0, -5, "1000"])
    def test_sample_count_must_be_a_positive_integer(self, mc_samples):
        # 1000.0 once failed inside numpy's range() with a TypeError, and
        # True ran one sample.
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0))])
        with pytest.raises(ValueError, match="mc_samples must be an integer >= 1"):
            mc_coverage_volume(gs, self.BBOX, mc_samples, 0)
        with pytest.raises(ValueError, match="mc_samples must be an integer >= 1"):
            utilization_report(gs, grid_of(np.ones((4, 4, 4))), mc_samples=mc_samples, seed=0)

    def test_numpy_integer_sample_count_is_accepted(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0))])
        assert mc_coverage_volume(gs, self.BBOX, np.int64(1000), 0) == mc_coverage_volume(gs, self.BBOX, 1000, 0)
        assert utilization_report(gs, grid_of(np.ones((4, 4, 4))), mc_samples=np.int32(500)).mc_samples == 500

    def test_volume_sum_overflow_is_infinite(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0), scale=1e102)] * 3)
        assert overall_overlap(gs, self.BBOX, 1000, seed=0) == np.inf


class TestBhattacharyya:
    def test_identical_is_exactly_one(self):
        g = GaussianPrimitive(
            mean=(1, 2, 3), scale=(0.7, 1.3, 2.0), rotation=(0.5, 0.5, 0.5, 0.5), opacity=1.0, semantics=(0.0,)
        )
        assert bhattacharyya_coef(g, g) == 1.0

    def test_equal_covariance_closed_form(self):
        a = isotropic((0, 0, 0))
        b = isotropic((2, 0, 0))
        assert bhattacharyya_coef(a, b) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            ga = random_gaussian_set(rng, 1, 2).primitive(0)
            gb = random_gaussian_set(rng, 1, 2).primitive(0)
            assert bhattacharyya_coef(ga, gb) == pytest.approx(bhattacharyya_coef(gb, ga), abs=1e-12)

    def test_identical_with_overflowing_determinant_is_exactly_one(self):
        # The covariance 1e200 I is finite; det(Sigma) = 1e600 is not.
        g = isotropic((1, 2, 3), scale=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bhattacharyya_coef(g, g) == 1.0

    @pytest.mark.parametrize("overflowing", [0, 1])
    def test_non_finite_covariance_rejected(self, overflowing):
        pair = [isotropic((0, 0, 0)), isotropic((1, 1, 1))]
        pair[overflowing] = isotropic((1, 1, 1), scale=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"Gaussian {overflowing} has a non-finite covariance"):
                bhattacharyya_coef(*pair)

    def test_strictly_decreasing_with_separation(self):
        prev = 1.1
        for sep in (0.0, 0.5, 1.0, 2.0, 4.0):
            val = bhattacharyya_coef(isotropic((0, 0, 0)), isotropic((sep, 0, 0)))
            assert val < prev
            prev = val


class TestClosedFormCholesky:
    def test_matches_lapack_on_ill_conditioned_matrices(self):
        rng = np.random.default_rng(54)
        gs = ill_conditioned_set(rng, 4000)
        covs = covariance_matrices(gs)
        x = rng.normal(size=(4000, 3)) * rng.uniform(0.01, 100.0, size=(4000, 1))
        log_det, quad = metrics._spd3_cholesky(*components(covs), x=x.T)
        # Both sides are backward stable: they may differ by a few
        # condition numbers times the rounding unit.
        cond = (gs.scales.max(axis=1) / gs.scales.min(axis=1)) ** 2
        tol = 32.0 * np.finfo(float).eps * cond
        assert cond.max() > 1e9
        assert np.all(np.abs(log_det - np.linalg.slogdet(covs)[1]) <= tol)
        solve_quad = np.einsum("na,na->n", x, np.linalg.solve(covs, x[..., None])[..., 0])
        assert np.all(np.abs(quad - solve_quad) <= tol * solve_quad)
        np.testing.assert_array_equal(metrics._spd3_cholesky(*components(covs)), log_det)

    def test_average_of_a_matrix_with_itself_has_its_log_det(self):
        covs = covariance_matrices(ill_conditioned_set(np.random.default_rng(55), 1000))
        np.testing.assert_array_equal(
            metrics._spd3_cholesky(*components(0.5 * (covs + covs))), metrics._spd3_cholesky(*components(covs))
        )

    def test_diagonal_closed_form(self):
        log_det, quad = metrics._spd3_cholesky(
            *(np.array([v]) for v in (4.0, 0.0, 0.0, 9.0, 0.0, 0.25)), x=np.array([[2.0], [3.0], [0.5]])
        )
        assert log_det[0] == pytest.approx(np.log(9.0))
        assert quad[0] == pytest.approx(3.0)


class TestIndivOverlap:
    def test_singleton_is_zero(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0))])
        assert indiv_overlap(gs) == 0.0

    def test_identical_pair_is_one(self):
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0)), isotropic((0, 0, 0))])
        assert indiv_overlap(gs) == 1.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(51)
        gs = random_gaussian_set(rng, 50, 2)
        total = 0.0
        for i in range(50):
            for j in range(50):
                if i != j:
                    total += bhattacharyya_coef(gs.primitive(i), gs.primitive(j))
        assert indiv_overlap(gs) == pytest.approx(total / 50, rel=1e-10)

    def test_ill_conditioned_set_matches_double_loop_oracle(self):
        gs = ill_conditioned_set(np.random.default_rng(56), 40)
        total = 0.0
        for i in range(40):
            for j in range(40):
                if i != j:
                    total += bhattacharyya_coef(gs.primitive(i), gs.primitive(j))
        assert total > 1.0
        assert indiv_overlap(gs) == pytest.approx(total / 40, rel=1e-10)

    def test_non_finite_covariance_rejected(self):
        gs = GaussianSet.from_primitives(
            [isotropic((0, 0, 0)), isotropic((1, 1, 1), scale=1e160), isotropic((2, 2, 2), scale=1e160)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gaussian 1 has a non-finite covariance"):
                indiv_overlap(gs)

    @pytest.mark.parametrize("block", [1, 100, 500])
    def test_streamed_blocks_match_double_loop_oracle(self, block, monkeypatch):
        # Blocks of one row, two rows and ten rows of the 50 x 50 pairs.
        monkeypatch.setattr(metrics, "_INDIV_PAIR_BLOCK", block)
        self.test_matches_double_loop_oracle()


    def test_permutation_invariance_of_utilization_metrics(self):
        rng = np.random.default_rng(52)
        gs = random_gaussian_set(rng, 12, 3, spread=3.0)
        perm = rng.permutation(12)
        shuffled = GaussianSet.from_primitives([gs.primitive(int(i)) for i in perm])
        labels = np.zeros((8, 8, 8), dtype=np.uint16)
        labels[3:6, 3:6, 3:6] = 1
        gt = grid_of(labels)
        assert perc_correct(gs, gt) == perc_correct(shuffled, gt)
        assert mean_nearest_dist(gs, gt) == pytest.approx(mean_nearest_dist(shuffled, gt), rel=1e-12)
        assert indiv_overlap(gs) == pytest.approx(indiv_overlap(shuffled), rel=1e-10)
        bbox = (gt.spec.min_corner, gt.spec.max_corner)
        assert overall_overlap(gs, bbox, 100_000, seed=4) == overall_overlap(
            shuffled, bbox, 100_000, seed=4
        )

    def test_utilization_report_fields(self):
        rng = np.random.default_rng(53)
        labels = np.zeros((8, 8, 8), dtype=np.uint16)
        labels[2:6, 2:6, 2:6] = 2
        gt = grid_of(labels)
        gs = GaussianSet.from_primitives([isotropic(c) for c in gt.occupied_centers()[:6]])
        rep = utilization_report(gs, gt, mc_samples=50_000, seed=5)
        assert rep.perc_correct == 100.0
        assert rep.mean_dist == 0.0
        assert rep.overall_overlap > 0.0
        assert rep.indiv_overlap >= 0.0
        assert rep.mc_samples == 50_000

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    def test_mc_stderr_matches_hand_computation(self, scale):
        # Scale 20 covers the whole grid: f = 1 and the error is 0.
        gt = grid_of(np.ones((8, 8, 8)))
        gs = GaussianSet.from_primitives([isotropic((2, 2, 2), scale=scale), isotropic((5, 6, 4))])
        n = 30_001
        rep = utilization_report(gs, gt, mc_samples=n, seed=3)
        hits = coverage_hits_oracle(gs, (gt.spec.min_corner, gt.spec.max_corner), n, 3)
        assert (hits == n) == (scale == 20.0)
        assert rep.mc_stderr == np.sqrt(hits / n * (1 - hits / n) / n)

    def test_overflowing_cutoff_box_rejected(self):
        gt = grid_of(np.ones((4, 4, 4)))
        gs = GaussianSet.from_primitives([isotropic((1, 1, 1)), isotropic((2, 2, 2), scale=1e160)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite cutoff box"):
                utilization_report(gs, gt, mc_samples=1000, seed=0)


@st.composite
def pruning_sets(draw):
    """Sets for the pruned individual overlap: log-uniform scales from
    MIN_SCALE to 100, coincident means, repeated x coordinates, and copies
    of a Gaussian placed just inside or just outside its drop radius along
    its major axis, where the tail bound is tight."""
    p = draw(st.integers(2, 60), label="p")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    spread = draw(st.sampled_from([0.0, 0.5, 20.0, 1000.0]), label="spread")
    means = rng.uniform(-spread, spread, size=(p, 3))
    scales = np.exp(rng.uniform(np.log(MIN_SCALE), np.log(100.0), size=(p, 3)))
    if draw(st.booleans(), label="isotropic"):
        scales[:] = scales[:, :1]
    rotations = rng.normal(size=(p, 4))
    x_levels = draw(st.integers(1, p), label="x_levels")
    means[:, 0] = rng.choice(means[:x_levels, 0], size=p)
    coincident = draw(st.integers(0, p - 1), label="coincident")
    means[1 : 1 + coincident] = means[0]
    for a in range(0, p - 1, 2)[: draw(st.integers(0, p // 2), label="boundary_pairs")]:
        b = a + 1
        scales[b], rotations[b] = scales[a], rotations[a]
        major = rotation_matrices(rotations[a])[:, np.argmax(scales[a])]
        radius = np.sqrt(metrics._INDIV_REACH * 2.0 * np.max(scales[a]) ** 2)
        factor = 1.0 + draw(st.sampled_from([-1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3]), label="offset")
        means[b] = means[a] + major * radius * factor
    return GaussianSet(means=means, scales=scales, rotations=rotations,
                       opacities=np.ones(p), logits=np.zeros((p, 2)))


class TestIndivOverlapPruning:
    @settings(max_examples=200, deadline=None)
    @given(gs=pruning_sets())
    def test_matches_exhaustive_oracle(self, gs):
        p = len(gs)
        exact = pair_coefficients(gs)
        assert_within_pruning_contract(indiv_overlap(gs), exact.sum() / p, p)
        kept = np.zeros((p, p), dtype=bool)
        for ii, jj in metrics._indiv_pairs(gs.means, metrics._eigenvalue_bounds(gs.scales)):
            assert np.all(ii != jj) and not np.any(kept[ii, jj] | kept[jj, ii])
            kept[ii, jj] = kept[jj, ii] = True
        np.fill_diagonal(kept, True)
        assert np.all(exact[~kept] <= metrics._INDIV_EPS)
        # Kept and dropped pairs follow the drop rule, up to its rounding.
        lam = metrics._eigenvalue_bounds(gs.scales)
        d2 = np.sum((gs.means[:, None] - gs.means[None]) ** 2, axis=2)
        ratio = d2 / (metrics._INDIV_REACH * (lam[:, None] + lam[None]))
        assert np.all(ratio[kept] <= 1.0 + 1e-9) and np.all(ratio[~kept] > 1.0 - 1e-9)

    def test_pairs_one_ulp_past_the_window_sum_are_kept(self):
        # Pairs of equal Gaussians whose x offset is one ulp beyond
        # x_i + radius, as the kernel rounds that sum, yet whose rounded d2
        # still meets the drop rule. Each pair sits on its own y row, far
        # from the others.
        pairs = []
        for scale in np.geomspace(MIN_SCALE, 100.0, 60):
            lam = metrics._eigenvalue_bounds(np.full((1, 3), scale))[0]
            radius = np.sqrt(metrics._INDIV_REACH * (lam + lam))
            xi = np.linspace(-radius, radius, 401)
            xj = np.nextafter(xi + radius, np.inf)
            edge = (xj - xi) ** 2 <= metrics._INDIV_REACH * (lam + lam)
            pairs += [(a, b, lam) for a, b in zip(xi[edge], xj[edge])]
        assert len(pairs) > 1000
        n = 2 * len(pairs)
        means = np.zeros((n, 3))
        means[:, 0] = [x for a, b, _ in pairs for x in (a, b)]
        means[:, 1] = np.repeat(1e5 * np.arange(len(pairs)), 2)
        lams = np.repeat([lam for *_, lam in pairs], 2)
        listed = {(min(i, j), max(i, j)) for ii, jj in metrics._indiv_pairs(means, lams) for i, j in zip(ii, jj)}
        assert listed == {(k, k + 1) for k in range(0, n, 2)}

    def test_overflowing_drop_test_keeps_or_drops_without_warning(self):
        # Finite covariances whose drop threshold (two scales of 1e153) or
        # squared distance (1e155 apart) overflows: an infinite threshold
        # keeps the pair and an infinite distance against a finite
        # threshold drops it.
        gs = GaussianSet.from_primitives([isotropic((0, 0, 0), scale=1e153), isotropic((1e154, 0, 0), scale=1e153),
                                          isotropic((5, 0, 0), scale=1e10), isotropic((1e155, 0, 0))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = sum(bhattacharyya_coef(gs.primitive(i), gs.primitive(j))
                        for i in range(4) for j in range(4) if i != j)
            assert total > 0.0
            assert_within_pruning_contract(indiv_overlap(gs), total / 4, 4)

    @pytest.mark.parametrize("make", ["ill_conditioned", "isotropic", "two_equal_maxima"])
    def test_eigenvalue_bounds_hold(self, make):
        rng = np.random.default_rng(57)
        gs = ill_conditioned_set(rng, 4000)
        scales = {"ill_conditioned": gs.scales,
                  "isotropic": np.repeat(gs.scales[:, :1], 3, axis=1),
                  "two_equal_maxima": np.column_stack([gs.scales[:, 0], gs.scales[:, 0], gs.scales[:, 1] / 1e3])}[make]
        gs = GaussianSet(means=gs.means, scales=scales, rotations=rng.normal(size=(4000, 4)),
                         opacities=gs.opacities, logits=gs.logits)
        largest = np.linalg.eigvalsh(covariance_matrices(gs))[:, -1]
        assert np.all(largest <= metrics._eigenvalue_bounds(gs.scales))

    def test_paper_scale_memory_is_bounded(self):
        # P=6400: the exhaustive row blocks peaked at 14.1 MB; the candidate
        # blocks and their kept pairs peak at 4.5 MB.
        gs = box_recipe_set(6400, 6400)
        value, peak = traced_peak(lambda: indiv_overlap(gs))
        assert value > 1.0
        assert peak < 32 * 2**20

    def test_paper_recipe_matches_exhaustive_oracle(self):
        gs = box_recipe_set(2048, 2048)
        exact = pair_coefficients(gs)
        assert np.mean(exact > metrics._INDIV_EPS) < 0.2  # most pairs are pruned
        assert_within_pruning_contract(indiv_overlap(gs), exact.sum() / 2048, 2048)

    @pytest.mark.parametrize("block", [1, 100, 500])
    def test_blocks_do_not_change_the_pairs(self, block, monkeypatch):
        gs = box_recipe_set(300, 3)
        lam = metrics._eigenvalue_bounds(gs.scales)
        expected = {(min(i, j), max(i, j)) for ii, jj in metrics._indiv_pairs(gs.means, lam) for i, j in zip(ii, jj)}
        monkeypatch.setattr(metrics, "_INDIV_PAIR_BLOCK", block)
        blocks = list(metrics._indiv_pairs(gs.means, lam))
        assert len(blocks) > 1
        got = [(min(i, j), max(i, j)) for ii, jj in blocks for i, j in zip(ii, jj)]
        assert len(got) == len(set(got)) and set(got) == expected

