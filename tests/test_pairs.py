"""The sparse (Gaussian, point) pair kernel against brute-force and
per-primitive loop oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from gaussocc import field
from gaussocc.core import MIN_SCALE, GaussianSet, mahalanobis_sq, rotation_matrices
from gaussocc.field import (
    EvalOptions,
    FieldEvaluator,
    _CellIndex,
    _cov_diag,
    _local_coords,
    _Pairs,
    _runs,
    _VoxelLattice,
    live_pairs,
)
from gaussocc.fit import ParamVector, _loss_and_grad
from gaussocc.grid import GridSpec, nuscenes_grid_spec, voxel_center, voxelize, voxelize_legacy
from gaussocc.scenes import synth_scene

from conftest import random_gaussian_set, traced_peak
from test_fit import fd_gradient, grad_errors

CUTOFF = 25.0


def brute_force_d2(gs: GaussianSet, points: np.ndarray) -> np.ndarray:
    """(P, N) squared Mahalanobis distances, one primitive at a time."""
    return np.array([[mahalanobis_sq(x, gs.primitive(g)) for x in points] for g in range(len(gs))])


def mixed_set(rng, p=24, c=3) -> GaussianSet:
    """Rotated anisotropic Gaussians plus MIN_SCALE Gaussians, a needle
    (one MIN_SCALE axis) and one Gaussian whose box covers every point."""
    base = random_gaussian_set(rng, p, c, spread=6.0)
    scales = base.scales * np.exp(rng.uniform(-1.0, 1.0, size=(p, 3)))
    scales[:3] = MIN_SCALE
    scales[3] = [2.0, 1.0, MIN_SCALE / 10.0]
    scales[4] = 40.0
    return GaussianSet(
        means=base.means,
        scales=scales,
        rotations=base.rotations,
        opacities=base.opacities,
        logits=base.logits,
    )


def query_points(rng, gs: GaussianSet, n=300) -> np.ndarray:
    """Uniform points, points within a few thousandths of the tiny
    Gaussians' means, and points outside every cutoff box."""
    near_tiny = gs.means[:4].repeat(3, axis=0) + rng.normal(0.0, 2e-3, size=(12, 3))
    far = rng.uniform(900.0, 1000.0, size=(5, 3))
    return np.concatenate([rng.uniform(-9.0, 9.0, size=(n, 3)), near_tiny, gs.means[:2], far])


def pair_set(pairs) -> set:
    return set(zip(pairs.gauss.tolist(), pairs.point.tolist()))


_RUNS_RNG = np.random.default_rng(12)


@pytest.mark.parametrize(
    "first, count",
    [
        ([3, -2, 7, 0], [2, 0, 3, 1]),
        ([5, 1], [0, 0]),
        ([4], [6]),
        ([], []),
        (_RUNS_RNG.integers(-100, 100, size=300).tolist(), _RUNS_RNG.integers(0, 6, size=300).tolist()),
    ],
)
def test_runs_equal_concatenated_ranges(first, count):
    first, count = np.array(first, dtype=np.int64), np.array(count, dtype=np.int64)
    want = np.concatenate([np.arange(f, f + c) for f, c in zip(first, count)] + [np.arange(0)])
    got = _runs(first, count)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestCellJoin:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_live_pairs_equal_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        gs = mixed_set(rng)
        points = query_points(rng, gs)
        d2 = brute_force_d2(gs, points)
        # No pair so close to the cutoff that the two distance formulas
        # could round to opposite sides of it.
        assert np.min(np.abs(d2 / CUTOFF - 1.0)) > 1e-9
        rot = rotation_matrices(gs.rotations)
        pairs, local, kept_d2 = live_pairs(points, gs.means, rot, gs.scales, CUTOFF)
        assert pair_set(pairs) == set(zip(*np.nonzero(d2 <= CUTOFF)))
        assert len(pair_set(pairs)) == pairs.gauss.size  # no pair listed twice
        assert all(np.any(pairs.gauss == g) for g in range(4))  # the tiny Gaussians see points
        np.testing.assert_allclose(kept_d2, d2[pairs.gauss, pairs.point], rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(kept_d2, np.sum(local**2, axis=1))
        # The wide Gaussian sees every point but the far ones; nothing sees those.
        assert set(pairs.point[pairs.gauss == 4].tolist()) == set(range(points.shape[0] - 5))
        assert not np.any(pairs.point >= points.shape[0] - 5)

    @pytest.mark.parametrize("cutoff", [CUTOFF, np.inf])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_d2_equals_mahalanobis_sq_exactly(self, seed, cutoff):
        # The kernel computes each pair's d2 with the operations of the
        # primitive-level formula, so the two agree bit for bit.
        rng = np.random.default_rng(320 + seed)
        gs = mixed_set(rng)
        points = query_points(rng, gs)
        pairs, _, d2 = live_pairs(points, gs.means, rotation_matrices(gs.rotations), gs.scales, cutoff)
        prims = [gs.primitive(g) for g in range(len(gs))]
        expected = [mahalanobis_sq(points[j], prims[g]) for g, j in zip(pairs.gauss.tolist(), pairs.point.tolist())]
        assert pairs.gauss.size >= (500 if np.isfinite(cutoff) else len(gs) * points.shape[0])
        np.testing.assert_array_equal(d2, expected)

    def test_candidates_are_grouped_by_gaussian(self):
        rng = np.random.default_rng(310)
        gs = mixed_set(rng)
        points = query_points(rng, gs)
        rot = rotation_matrices(gs.rotations)
        pairs = _CellIndex(gs.means, _cov_diag(rot, gs.scales), CUTOFF).pairs(points)
        assert np.all(np.diff(pairs.gauss) >= 0)
        for g in range(len(gs)):
            np.testing.assert_array_equal(pairs.gauss[pairs.bounds[g] : pairs.bounds[g + 1]], g)
        assert pairs.bounds[-1] == pairs.gauss.size
        # Candidates may exceed the live pairs, never miss one.
        d2 = np.sum(_local_coords(points, pairs, gs.means, rot, gs.scales) ** 2, axis=1)
        live, _, _ = live_pairs(points, gs.means, rot, gs.scales, CUTOFF)
        assert pair_set(live) <= pair_set(pairs)
        assert np.count_nonzero(d2 <= CUTOFF) == live.gauss.size

    def test_many_wide_gaussians_grow_the_cells(self):
        # Every box spans the whole cloud, so cells at half the median
        # half-width would need far more columns than the budget.
        rng = np.random.default_rng(311)
        base = random_gaussian_set(rng, 40, 2, spread=1.0)
        gs = GaussianSet(means=base.means, scales=np.full((40, 3), 30.0), rotations=base.rotations,
                         opacities=base.opacities, logits=base.logits)
        points = rng.uniform(-50.0, 50.0, size=(200, 3))
        d2 = brute_force_d2(gs, points)
        rot = rotation_matrices(gs.rotations)
        pairs, _, _ = live_pairs(points, gs.means, rot, gs.scales, CUTOFF)
        assert pair_set(pairs) == set(zip(*np.nonzero(d2 <= CUTOFF)))

    def test_non_finite_box_rejected(self):
        means = np.zeros((2, 3))
        cov_diag = np.array([[1.0, 1.0, 1.0], [np.inf, 1.0, 1.0]])
        with pytest.raises(ValueError, match="Gaussian 1 has a non-finite cutoff box"):
            _CellIndex(means, cov_diag, CUTOFF)
        # A finite set whose covariance overflows cannot reach the join either.
        gs = GaussianSet(means=np.zeros((1, 3)), scales=np.full((1, 3), 1e200),
                         rotations=np.array([[1.0, 0, 0, 0]]), opacities=np.ones(1), logits=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="non-finite cutoff box"):
            FieldEvaluator(gs)


def oracle_field(gs: GaussianSet, points: np.ndarray, cutoff=CUTOFF):
    """Composed and additive predictions, one point and one primitive at a time."""
    c = gs.num_classes
    sem = softmax(gs.logits, axis=1)
    compose, legacy = [], []
    for x in points:
        alpha_terms, logw, classes, additive = [], [], [], np.zeros(c)
        for g in range(len(gs)):
            prim = gs.primitive(g)
            d2 = mahalanobis_sq(x, prim)
            if d2 > cutoff:
                continue
            alpha_terms.append(np.exp(-0.5 * d2))
            logw.append(np.log(prim.opacity) - np.sum(np.log(prim.scale)) - 0.5 * d2)
            classes.append(sem[g])
            additive += prim.opacity * np.exp(-0.5 * d2) * prim.semantics
        alpha = 1.0 - np.prod(1.0 - np.array(alpha_terms))
        if logw and logsumexp(logw) - 1.5 * np.log(2 * np.pi) >= np.log(1e-300):
            e = softmax(np.array(logw)) @ np.array(classes)
        else:
            e = np.full(c, 1.0 / c)
        compose.append(np.concatenate([[1.0 - alpha], alpha * e]))
        legacy.append(additive)
    return np.array(compose), np.array(legacy)


class TestFieldAgainstLoopOracle:
    def test_compose_and_legacy_at_cutoff(self):
        rng = np.random.default_rng(320)
        gs = mixed_set(rng, p=12, c=3)
        points = query_points(rng, gs, n=150)
        want_compose, want_legacy = oracle_field(gs, points)
        ev = FieldEvaluator(gs, EvalOptions())
        np.testing.assert_allclose(ev.compose(points), want_compose, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ev.legacy(points), want_legacy, rtol=1e-12, atol=1e-12)
        # Far points see no Gaussian: pure empty, zero additive output.
        np.testing.assert_array_equal(ev.compose(points[-5:]), np.tile([1.0, 0.0, 0.0, 0.0], (5, 1)))
        np.testing.assert_array_equal(ev.legacy(points[-5:]), 0.0)

    @pytest.mark.parametrize("cutoff", [CUTOFF, None])
    def test_chunking_does_not_change_results(self, cutoff):
        rng = np.random.default_rng(321)
        gs = mixed_set(rng, p=10, c=2)
        points = query_points(rng, gs, n=100)
        opts = EvalOptions(cutoff_mahalanobis_sq=cutoff)
        whole, pieces = FieldEvaluator(gs, opts), FieldEvaluator(gs, opts, chunk=7)
        np.testing.assert_array_equal(pieces.compose(points), whole.compose(points))
        np.testing.assert_array_equal(pieces.legacy(points), whole.legacy(points))


def oracle_loss(pv: ParamVector, points, labels, model, cutoff=CUTOFF) -> float:
    """The fitting loss, one point and one primitive at a time, floors
    included."""
    gs = pv.decode()
    sem = softmax(gs.logits, axis=1)
    terms = []
    for x, y in zip(points, labels):
        d2 = np.array([mahalanobis_sq(x, gs.primitive(g)) for g in range(len(gs))])
        live = d2 <= cutoff
        if model == "additive":
            z = (gs.opacities[live] * np.exp(-0.5 * d2[live])) @ gs.logits[live]
            terms.append(-max(z[y] - logsumexp(z), np.log(1e-12)))
            continue
        total = np.sum(np.maximum(np.log(-np.expm1(-0.5 * d2[live])), np.log(1e-15)))
        if y == 0:
            terms.append(-total)
            continue
        with np.errstate(divide="ignore"):
            log_alpha = max(np.log(-np.expm1(total)), np.log(1e-12))
        logw = np.log(gs.opacities[live]) - np.sum(np.log(gs.scales[live]), axis=1) - 0.5 * d2[live]
        if live.any() and logsumexp(logw) - 1.5 * np.log(2 * np.pi) >= np.log(1e-300):
            e_y = softmax(logw) @ sem[live, y - 1]
        else:
            e_y = 1.0 / gs.num_classes
        terms.append(-log_alpha - np.log(max(e_y, 1e-12)))
    return float(np.mean(terms))


class TestLossAgainstLoopOracle:
    @pytest.mark.parametrize("model,ch", [("probabilistic", 3), ("additive", 4)])
    def test_loss_and_gradient_at_cutoff(self, model, ch):
        rng = np.random.default_rng(330)
        p = 6
        gs = random_gaussian_set(rng, p, ch, spread=2.0)
        means = gs.means.copy()
        means[-1] = [60.0, 60.0, 60.0]  # no point within its cutoff
        gs = GaussianSet(means=means, scales=gs.scales, rotations=gs.rotations,
                         opacities=gs.opacities, logits=gs.logits)
        pv = ParamVector.encode(gs)
        theta = pv.values.copy()
        top = ch if model == "probabilistic" else ch - 1
        points = np.concatenate([rng.uniform(-6.0, 6.0, size=(24, 3)), [[-40.0, 0.0, 0.0], [0.0, -40.0, 0.0]]])
        labels = np.concatenate([rng.integers(0, top + 1, 24), [1, 0]])  # an occupied point nothing reaches
        d2 = brute_force_d2(pv.decode(), points)
        assert np.min(np.abs(d2 - CUTOFF)) > 1e-3  # finite differences never cross the cutoff
        assert np.all(d2[:, -2:] > CUTOFF) and np.all(d2[-1] > CUTOFF)
        assert np.count_nonzero(d2[:-1] <= CUTOFF) > 20  # the cutoff keeps some pairs ...
        assert np.count_nonzero(d2[:-1] > CUTOFF) > 20  # ... and drops others

        loss, grad = _loss_and_grad(theta, p, ch, points, labels, model, CUTOFF)
        assert loss == pytest.approx(oracle_loss(pv, points, labels, model), rel=1e-10)
        np.testing.assert_array_equal(grad.reshape(p, -1)[-1], 0.0)
        fd = fd_gradient(theta, p, ch, points, labels, model, CUTOFF)
        abs_err, rel_err = grad_errors(grad, fd)
        assert np.all((rel_err <= 1e-4) | (abs_err <= 1e-7))


# -- the voxel-lattice generator ---------------------------------------------


def lattice_spec(resolution=(36, 20, 7), num_classes_total=4) -> GridSpec:
    """Non-cubic voxels (0.5 x 0.8 x 6/7) over a box smaller than the
    mixed set's spread, so some Gaussians stick out of it."""
    return GridSpec(min_corner=np.array([-9.0, -8.0, -3.0]), max_corner=np.array([9.0, 8.0, 3.0]),
                    resolution=np.array(resolution), num_classes_total=num_classes_total)


def lattice_set(rng, spec: GridSpec, c=3) -> GaussianSet:
    """The mixed set plus thin Gaussians with their mean on a voxel center
    and on a voxel face, and Gaussians partly and wholly outside the grid."""
    base = mixed_set(rng, p=24, c=c)
    vs = spec.voxel_size
    on_center = voxel_center(spec, 9, 7, min(3, spec.resolution[2] - 1))
    on_x_face = on_center + np.array([0.5, 0.0, 0.0]) * vs
    on_y_face = on_center + np.array([0.0, 0.5, 0.0]) * vs
    means = np.concatenate([base.means, [on_center, on_x_face, on_y_face, [12.0, 0.0, 0.0], [40.0, 0.0, 0.0]]])
    scales = np.concatenate([base.scales, [[MIN_SCALE, 1.0, 1.0], [0.3, MIN_SCALE, MIN_SCALE],
                                           [MIN_SCALE, 0.7, MIN_SCALE], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]]])
    rotations = np.concatenate([base.rotations, np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))])
    extra = len(means) - len(base)
    return GaussianSet(means=means, scales=scales, rotations=rotations,
                       opacities=np.concatenate([base.opacities, rng.uniform(0.2, 1.0, extra)]),
                       logits=np.concatenate([base.logits, rng.normal(0.0, 2.0, (extra, c))]))


def lattice_candidates(gs: GaussianSet, spec: GridSpec, cutoff=CUTOFF, budget=1 << 17, voxel_budget=1 << 17) -> list:
    """Per span: (first flat voxel, span centers, candidate pairs)."""
    lattice = _VoxelLattice(gs.means, rotation_matrices(gs.rotations), gs.scales, cutoff, spec.centers(), budget,
                            voxel_budget)
    row = int(spec.resolution[1] * spec.resolution[2])
    return [(start * row, *lattice.span_pairs(start, stop)) for start, stop in lattice.spans]


def every_pair_d2(gs: GaussianSet, points: np.ndarray) -> np.ndarray:
    """(P, N) d2 of every pair, by the kernel's own local-frame formula."""
    every = _Pairs.every(len(gs), points.shape[0])
    local = _local_coords(points, every, gs.means, rotation_matrices(gs.rotations), gs.scales)
    return np.sum(local**2, axis=1).reshape(len(gs), -1)


def check_lattice(gs: GaussianSet, spec: GridSpec, cutoff=CUTOFF, budget=1 << 17,
                  voxel_budget=1 << 17) -> tuple[int, int]:
    """Assert that the lattice lists every live pair once, grouped by
    Gaussian, with the span's centers, in spans of at most
    ``voxel_budget`` voxels or one x-row; return (candidates, live)."""
    centers = spec.all_centers()
    d2 = every_pair_d2(gs, centers)
    rot = rotation_matrices(gs.rotations)
    row = int(spec.resolution[1] * spec.resolution[2])
    candidates, live, listed = set(), set(), 0
    spans = lattice_candidates(gs, spec, cutoff, budget, voxel_budget)
    assert spans[0][0] == 0
    for (first, points, pairs), nxt in zip(spans, spans[1:] + [(spec.num_voxels,)]):
        np.testing.assert_array_equal(points, centers[first : nxt[0]])
        assert points.shape[0] <= max(voxel_budget, row)
        assert np.all(np.diff(pairs.gauss) >= 0)
        np.testing.assert_array_equal(pairs.bounds, np.searchsorted(pairs.gauss, np.arange(len(gs) + 1)))
        assert np.all((pairs.point >= 0) & (pairs.point < points.shape[0]))
        span_d2 = np.sum(_local_coords(points, pairs, gs.means, rot, gs.scales) ** 2, axis=1)
        glob = zip(pairs.gauss.tolist(), (pairs.point + first).tolist())
        for pair, inside in zip(glob, (span_d2 <= cutoff).tolist()):
            candidates.add(pair)
            if inside:
                live.add(pair)
        listed += pairs.gauss.size
    assert listed == len(candidates)  # no pair listed twice
    want = set(zip(*np.nonzero(d2 <= cutoff)))
    assert live == want
    assert live <= candidates
    return len(candidates), len(live)


class TestVoxelLattice:
    @pytest.mark.parametrize("resolution", [(36, 20, 7), (30, 24, 1)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_live_pairs_equal_brute_force_and_cell_join(self, seed, resolution):
        rng = np.random.default_rng(340 + seed)
        spec = lattice_spec(resolution)
        gs = lattice_set(rng, spec)
        n_candidates, n_live = check_lattice(gs, spec)
        centers = spec.all_centers()
        joined, _, _ = live_pairs(centers, gs.means, rotation_matrices(gs.rotations), gs.scales, CUTOFF)
        d2 = every_pair_d2(gs, centers)
        assert pair_set(joined) == set(zip(*np.nonzero(d2 <= CUTOFF)))  # the lattice's live pairs
        assert n_live == joined.gauss.size
        # The thin Gaussians on a voxel center and a face see their voxels;
        # the ones outside the grid see none.
        assert np.all(np.count_nonzero(d2[24:27] <= CUTOFF, axis=1) > 0)
        assert not np.any(d2[28] <= CUTOFF)
        assert n_candidates <= 1.05 * n_live

    def test_small_spans_list_the_same_pairs(self):
        rng = np.random.default_rng(342)
        spec = lattice_spec()
        gs = lattice_set(rng, spec)
        assert len(lattice_candidates(gs, spec, budget=64)) == spec.resolution[0]
        assert check_lattice(gs, spec, budget=64) == check_lattice(gs, spec)

    def test_pairs_exactly_at_the_cutoff_are_found(self):
        # Axis-aligned Gaussians centred on a voxel, with a center exactly
        # at d2 == cutoff along each axis and on the diagonals.
        spec = GridSpec(min_corner=np.zeros(3), max_corner=np.array([4.0, 4.0, 4.0]),
                        resolution=np.array([16, 16, 16]), num_classes_total=2)
        # Without the padded cutoff, rounding drops some of these pairs.
        shapes = ([1.0, 1.0, 1.0], [1.0, 2.0, 0.5], [0.5, 0.5, 3.0], [3.0, 0.5, 1.0], [1.0, 3.0, 1.0])
        scales = np.array([np.array(shape) * 0.25 * k / 5.0 for k in range(1, 31) for shape in shapes])
        p = len(scales)
        gs = GaussianSet(means=np.tile(voxel_center(spec, 7, 8, 6), (p, 1)), scales=scales,
                         rotations=np.tile([1.0, 0, 0, 0], (p, 1)), opacities=np.ones(p), logits=np.zeros((p, 1)))
        d2 = every_pair_d2(gs, spec.all_centers())
        assert np.count_nonzero(d2 == CUTOFF) >= 400
        check_lattice(gs, spec)

    def test_mostly_live_on_a_paper_like_set(self):
        # Scales of 0.5-3 voxels and random rotations, as in the audit
        # benchmark; the cell join lists about four candidates per live pair.
        rng = np.random.default_rng(343)
        spec = GridSpec(min_corner=np.array([-15.0, -15.0, -5.0]), max_corner=np.array([15.0, 15.0, 3.0]),
                        resolution=np.array([60, 60, 16]), num_classes_total=5)
        p = 300
        quats = rng.normal(size=(p, 4))
        gs = GaussianSet(means=rng.uniform(spec.min_corner, spec.max_corner, size=(p, 3)),
                         scales=np.exp(rng.uniform(np.log(0.5), np.log(3.0), size=(p, 3))) * spec.voxel_size,
                         rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
                         opacities=rng.uniform(0.1, 1.0, p), logits=rng.normal(size=(p, 4)))
        n_candidates, n_live = 0, 0
        for _, points, pairs in lattice_candidates(gs, spec):
            d2 = np.sum(_local_coords(points, pairs, gs.means, rotation_matrices(gs.rotations), gs.scales) ** 2, axis=1)
            n_candidates += d2.size
            n_live += int(np.count_nonzero(d2 <= CUTOFF))
        assert n_live > 10_000
        assert n_live >= 0.9 * n_candidates

    @pytest.mark.parametrize("resolution", [(36, 20, 7), (30, 24, 1)])
    def test_outputs_equal_the_point_evaluation(self, resolution):
        # Voxel centers given as a lattice and as points give the same
        # bits, so the per-voxel sums run in the same order.
        rng = np.random.default_rng(344)
        spec = lattice_spec(resolution)
        gs = lattice_set(rng, spec)
        ev = FieldEvaluator(gs)
        centers = spec.all_centers()
        for method in (ev.alpha, ev.semantics, ev.compose, ev.legacy):
            np.testing.assert_array_equal(method(spec.centers()), method(centers))
        want = np.argmax(ev.compose(centers), axis=1)
        assert np.count_nonzero(want) > 20
        np.testing.assert_array_equal(voxelize(gs, spec).labels_flat, want)
        np.testing.assert_array_equal(ev.compose_labels(centers), want)
        additive = lattice_set(rng, spec, c=4)
        additive = dataclasses.replace(additive, logits=additive.logits - [3.0, 0.0, 0.0, 0.0])
        want = np.argmax(FieldEvaluator(additive).legacy(centers), axis=1)
        assert np.count_nonzero(want) > 20
        np.testing.assert_array_equal(voxelize_legacy(additive, spec).labels_flat, want)

    def test_no_cutoff_matches_the_point_evaluation(self):
        rng = np.random.default_rng(345)
        spec = lattice_spec((12, 10, 3))
        gs = lattice_set(rng, spec)
        ev = FieldEvaluator(gs, EvalOptions(cutoff_mahalanobis_sq=None))
        centers = spec.all_centers()
        np.testing.assert_array_equal(ev.compose(spec.centers()), ev.compose(centers))
        np.testing.assert_array_equal(voxelize(gs, spec, EvalOptions(cutoff_mahalanobis_sq=None)).labels_flat,
                                      np.argmax(ev.compose(centers), axis=1))

    # 30 voxels per x-row: spans of 12, 3 (12 = 4 * 3) and 5 (12 = 2 * 5 + 2)
    # x-rows, and of one x-row for a budget below a row.
    @pytest.mark.parametrize("voxel_budget", [1 << 17, 90, 150, 7])
    def test_no_cutoff_spans_match_the_point_evaluation(self, voxel_budget, monkeypatch):
        rng = np.random.default_rng(345)
        spec = lattice_spec((12, 10, 3))
        gs = lattice_set(rng, spec)
        monkeypatch.setattr(field, "_SPAN_VOXELS", voxel_budget)
        spans = field._row_spans(spec.resolution)
        assert len(spans) == {1 << 17: 1, 90: 4, 150: 3, 7: 12}[voxel_budget]
        opts = EvalOptions(cutoff_mahalanobis_sq=None)
        ev = FieldEvaluator(gs, opts, chunk=64)
        centers = spec.all_centers()
        for method in (ev.alpha, ev.semantics, ev.compose, ev.legacy):
            np.testing.assert_array_equal(method(spec.centers()), method(centers))
        np.testing.assert_array_equal(voxelize(gs, spec, opts).labels_flat, np.argmax(ev.compose(centers), axis=1))

    @pytest.mark.parametrize("voxel_budget", [1, 300, 1000])
    def test_voxel_cap_on_a_sparse_set_matches_the_point_evaluation(self, voxel_budget, monkeypatch):
        # Six Gaussians in one corner: their pair bound alone lets one span
        # cover the grid, so the voxel cap alone cuts the spans.
        rng = np.random.default_rng(346)
        spec = lattice_spec()  # 140 voxels per x-row
        vs = spec.voxel_size
        p = 6
        gs = GaussianSet(means=spec.min_corner + rng.uniform(0.0, 4.0, (p, 3)) * vs,
                         scales=rng.uniform(0.5, 2.0, (p, 3)) * vs, rotations=rng.normal(size=(p, 4)),
                         opacities=rng.uniform(0.5, 1.0, p), logits=rng.normal(0.0, 2.0, (p, 3)))
        rot = rotation_matrices(gs.rotations)
        assert _VoxelLattice(gs.means, rot, gs.scales, CUTOFF, spec.centers(), 1 << 17, 1 << 17).spans == [(0, 36)]
        lattice = _VoxelLattice(gs.means, rot, gs.scales, CUTOFF, spec.centers(), 1 << 17, voxel_budget)
        rows = max(1, voxel_budget // 140)
        assert lattice.spans == [(x, min(x + rows, 36)) for x in range(0, 36, rows)]
        check_lattice(gs, spec, voxel_budget=voxel_budget)
        monkeypatch.setattr(field, "_SPAN_VOXELS", voxel_budget)
        ev = FieldEvaluator(gs)
        centers = spec.all_centers()
        dense = ev.compose(centers)
        want = np.argmax(dense, axis=1)
        assert np.count_nonzero(want) > 20
        np.testing.assert_array_equal(ev.compose(spec.centers()), dense)
        np.testing.assert_array_equal(voxelize(gs, spec).labels_flat, want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_sets_and_grids(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        p = data.draw(st.integers(1, 8), label="p")
        res = [data.draw(st.integers(1, 9), label=f"res{a}") for a in range(3)]
        lo = rng.uniform(-3.0, 0.0, 3)
        spec = GridSpec(min_corner=lo, max_corner=lo + rng.uniform(0.5, 6.0, 3), resolution=np.array(res),
                        num_classes_total=3)
        low = data.draw(st.sampled_from([np.log(MIN_SCALE), -3.0, -1.0]), label="log_scale_low")
        means = rng.uniform(spec.min_corner - 1.0, spec.max_corner + 1.0, size=(p, 3))
        # Some means snapped onto voxel centers or faces.
        snap = rng.random(p) < 0.3
        half_steps = np.round((means - spec.min_corner) / (0.5 * spec.voxel_size))
        means[snap] = (spec.min_corner + half_steps * 0.5 * spec.voxel_size)[snap]
        gs = GaussianSet(means=means, scales=np.exp(rng.uniform(low, 0.5, size=(p, 3))),
                         rotations=rng.normal(size=(p, 4)), opacities=rng.uniform(0.1, 1.0, p),
                         logits=rng.normal(size=(p, 2)))
        cutoff = data.draw(st.sampled_from([CUTOFF, 6.251, 1.0]), label="cutoff")
        check_lattice(gs, spec, cutoff, budget=data.draw(st.sampled_from([16, 1 << 17]), label="budget"),
                      voxel_budget=data.draw(st.sampled_from([1, 30, 1 << 17]), label="voxel_budget"))


def test_paper_scale_voxelize_memory_is_bounded():
    # P=6400 on the 200x200x16 grid. Voxelize allocates per span, not per
    # grid: its traced peak was 51 MB when it built all 640,000 centers and
    # joined them 16,384 at a time, and is 16 MB from lattice spans.
    spec = nuscenes_grid_spec(5)
    grid, _ = synth_scene(0, spec=spec)
    rng = np.random.default_rng(6400)
    occupied = grid.occupied_centers()
    p = 6400
    means = occupied[rng.choice(occupied.shape[0], p, replace=False)]
    quats = rng.normal(size=(p, 4))
    gs = GaussianSet(means=means + rng.uniform(-0.75, 0.75, (p, 3)) * spec.voxel_size,
                     scales=np.exp(rng.uniform(np.log(0.5), np.log(3.0), (p, 3))) * spec.voxel_size,
                     rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
                     opacities=rng.uniform(0.1, 1.0, p), logits=rng.normal(size=(p, 4)))
    pred, peak = traced_peak(lambda: voxelize(gs, spec))
    assert np.count_nonzero(pred.labels) > 10_000
    assert peak < 32 * 2**20


def corner_set(spec: GridSpec, p: int, seed: int) -> GaussianSet:
    """``p`` Gaussians of 0.5-3 voxels within 8 voxels of the grid's first
    corner."""
    rng = np.random.default_rng(seed)
    vs = spec.voxel_size
    quats = rng.normal(size=(p, 4))
    return GaussianSet(means=spec.min_corner + rng.uniform(0.0, 8.0, (p, 3)) * vs,
                       scales=np.exp(rng.uniform(np.log(0.5), np.log(3.0), (p, 3))) * vs,
                       rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
                       opacities=rng.uniform(0.5, 1.0, p), logits=rng.normal(size=(p, 4)))


def test_sparse_corner_voxelize_memory_is_bounded():
    # 16 Gaussians in one corner of the 200x200x16 grid: few pairs, so
    # only the voxel cap keeps a span from covering the grid. One span of
    # the whole grid peaked at 86 MB; spans of 40 x-rows peak at 19 MB.
    spec = nuscenes_grid_spec(5)
    gs = corner_set(spec, 16, 1)
    pred, peak = traced_peak(lambda: voxelize(gs, spec))
    assert 0 < np.count_nonzero(pred.labels) < 10_000
    assert peak < 24 * 2**20


def test_paper_scale_no_cutoff_voxelize_memory_is_bounded():
    # Every pair of 4 Gaussians on the 200x200x16 grid. Building all
    # 640,000 centers first peaked at 31 MB; spans of 40 x-rows peak at 7 MB.
    spec = nuscenes_grid_spec(5)
    gs = corner_set(spec, 4, 2)
    pred, peak = traced_peak(lambda: voxelize(gs, spec, EvalOptions(cutoff_mahalanobis_sq=None)))
    assert np.count_nonzero(pred.labels) > 0
    assert peak < 16 * 2**20
