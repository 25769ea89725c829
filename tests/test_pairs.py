"""The sparse (Gaussian, point) pair kernel against brute-force and
per-primitive loop oracles."""

import dataclasses
import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from gaussocc import field
from gaussocc.core import MIN_SCALE, GaussianSet, mahalanobis_sq, rotation_matrices
from gaussocc.field import (
    EvalOptions,
    FieldEvaluator,
    _CellIndex,
    _cov_diag,
    _offsets,
    _Pairs,
    _runs,
    _scaled_local,
    _VoxelLattice,
    live_pairs,
    scatter_sum,
)
from gaussocc.fit import FitConfig, ParamVector, _loss_and_grad, fit
from gaussocc.grid import GridSpec, nuscenes_grid_spec, voxel_center, voxelize, voxelize_legacy
from gaussocc.metrics import mc_coverage_volume
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


def gauss_of(pairs: _Pairs) -> np.ndarray:
    """Each pair's Gaussian, implied by its segment."""
    return pairs.spread(np.arange(pairs.bounds.size - 1))


def pair_set(pairs) -> set:
    return set(zip(gauss_of(pairs).tolist(), pairs.point.tolist()))


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


@pytest.mark.parametrize(
    "counts, step",
    [
        ([3, 0, 4, 12, 1, 1, 0, 9, 2, 2], 1000),
        ([3, 0, 4, 12, 1, 1, 0, 9, 2, 2], 3),
        ([0] * 25, 7),
        ([11], 5),
        ([], 4),
        ([4] * 23, 1000),  # every point has P = 4 candidates: ranges of budget // P points
        (_RUNS_RNG.integers(0, 15, size=300).tolist(), 6),
    ],
)
def test_ranges_are_greedy_within_the_budget(counts, step):
    counts = np.array(counts, dtype=np.int64)
    ranges = field._ranges(np.cumsum(counts), step, 10)
    bounds = [0] + [r.stop for r in ranges]
    assert [r.start for r in ranges] == bounds[:-1] and bounds[-1] == counts.size
    for r in ranges:
        rows, total = r.stop - r.start, int(counts[r].sum())
        assert 1 <= rows <= step and (total <= 10 or rows == 1)
        # One more row would pass the budget or the row cap.
        assert r.stop == counts.size or rows == step or total + counts[r.stop] > 10
    if counts.size and np.all(counts == 4):
        assert {r.stop - r.start for r in ranges[:-1]} == {10 // 4}


def greedy_row_spans(bound, budget: int, max_rows: int) -> list:
    """The per-row loop that cut the voxel lattice's x-rows into spans
    before the lattice took its spans from ``_ranges``, kept as an oracle:
    a span takes the next row while its bounds stay within ``budget`` and
    it holds fewer than ``max_rows`` rows; its first row always."""
    spans = []
    start, total = 0, 0.0
    for x, b in enumerate(bound):
        if x > start and (total + b > budget or x - start >= max_rows):
            spans.append((start, x))
            start, total = x, 0.0
        total += b
    spans.append((start, len(bound)))
    return spans


_PLAN_RNG = np.random.default_rng(29)


@pytest.mark.parametrize("case", range(40))
def test_ranges_equal_the_greedy_row_loop(case):
    # Random bounds with runs of zero rows and rows alone over the budget,
    # under row caps from 1 upward.
    rows = int(_PLAN_RNG.integers(1, 60))
    budget = int(_PLAN_RNG.integers(1, 200))
    bound = _PLAN_RNG.integers(0, 2 * budget, size=rows)
    bound[_PLAN_RNG.random(rows) < 0.3] = 0
    bound[_PLAN_RNG.random(rows) < 0.1] = budget + int(_PLAN_RNG.integers(1, 100))
    for max_rows in (1, 2, 3, 7, rows, rows + 5):
        got = [(r.start, r.stop) for r in field._ranges(np.cumsum(bound), max_rows, budget)]
        assert got == greedy_row_spans(bound.tolist(), budget, max_rows), max_rows


def assert_same_bytes(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_segments(pairs: _Pairs, gauss: np.ndarray, point: np.ndarray, p: int):
    """``pairs`` holds the pairs ``(gauss[i], point[i])``, grouped by Gaussian."""
    assert_same_bytes(pairs.point, point)
    assert_same_bytes(pairs.bounds, np.searchsorted(gauss, np.arange(p + 1)))


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 5), max_size=12), num_points=st.integers(1, 9),
       mode=st.sampled_from(["random", "none", "all"]), seed=st.integers(0, 2**32 - 1))
def test_segments_equal_an_explicit_gaussian_column(counts, num_points, mode, seed):
    # The reference keeps each pair's Gaussian in an explicit column, as
    # pair lists once did; the segment format implies it from the bounds.
    rng = np.random.default_rng(seed)
    p = len(counts)
    gauss = np.array([g for g, c in enumerate(counts) for _ in range(c)], dtype=np.int64)
    m = gauss.size
    point = rng.integers(0, num_points, size=m)
    pairs = _Pairs(point, np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]))
    assert_segments(pairs, gauss, point, p)
    assert_same_bytes(pairs.counts, np.array(counts, dtype=np.int64).reshape(p))

    per_gaussian = rng.normal(size=p)
    assert_same_bytes(pairs.spread(per_gaussian), per_gaussian[gauss])
    rows = rng.normal(size=(3, p))
    assert_same_bytes(pairs.spread(rows, axis=1), np.take(rows, gauss, axis=1))

    keep = {"random": rng.random(m) < 0.5, "none": np.zeros(m, bool), "all": np.ones(m, bool)}[mode]
    assert_segments(pairs.select(keep), gauss[keep], point[keep], p)

    d2 = np.where(keep, rng.uniform(0.0, 1.0, m), rng.uniform(1.5, 2.0, m))
    live, live_d2 = pairs.within(d2, 1.0)
    assert_segments(live, gauss[keep], point[keep], p)
    assert_same_bytes(live_d2, d2[keep])

    mask = {"random": rng.random(num_points) < 0.5, "none": np.zeros(num_points, bool),
            "all": np.ones(num_points, bool)}[mode]
    sub, sub_d2, points = pairs.restrict(d2, mask)
    kept = mask[point]
    rank = np.cumsum(mask) - 1
    assert_segments(sub, gauss[kept], rank[point[kept]], p)
    assert_same_bytes(sub_d2, d2[kept])
    assert_same_bytes(points, np.flatnonzero(mask))


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 5), max_size=12), rows=st.sampled_from([None, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
@example(counts=[0, 2, 0, 3, 0], rows=None, seed=0)  # empty first, middle and last segments
@example(counts=[0, 2, 0, 3, 0], rows=3, seed=0)
@example(counts=[0, 0, 0], rows=None, seed=0)  # no pairs at all
@example(counts=[0, 0, 0], rows=3, seed=0)
@example(counts=[0, 1, 0], rows=None, seed=0)  # one pair
@example(counts=[1], rows=1, seed=0)
def test_segment_sums_equal_a_bincount_over_the_gaussian_column(counts, rows, seed):
    # Integer-valued floats sum exactly in any order, so both sums agree to the bit.
    rng = np.random.default_rng(seed)
    p = len(counts)
    pairs = _Pairs(rng.integers(0, 9, size=sum(counts)), np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]))
    shape = (sum(counts),) if rows is None else (rows, sum(counts))
    values = rng.integers(-1000, 1000, size=shape).astype(np.float64)
    want = np.array([np.bincount(gauss_of(pairs), row, minlength=p) for row in np.atleast_2d(values)])
    got = pairs.sum(values)
    assert got.dtype == np.float64 and got.shape == shape[:-1] + (p,)
    np.testing.assert_array_equal(got, want.reshape(got.shape))


@pytest.mark.parametrize("mode", ["random", "none", "all"])
@pytest.mark.parametrize("counts", [[0, 3, 0, 0, 5, 1, 0], [0, 0, 0], [7], [2, 0, 9, 4, 0, 0, 1, 6, 3, 0]])
def test_select_bounds_equal_the_kept_counts_per_segment(counts, mode):
    # Empty first, middle and last segments, no pairs at all, one segment.
    rng = np.random.default_rng(len(counts))
    m = sum(counts)
    bounds = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    pairs = _Pairs(rng.integers(0, 50, size=m), bounds)
    keep = {"random": rng.random(m) < 0.5, "none": np.zeros(m, bool), "all": np.ones(m, bool)}[mode]
    got = pairs.select(keep)
    kept = [np.count_nonzero(keep[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(got.bounds, np.concatenate([[0], np.cumsum(kept, dtype=np.int64)]))
    assert np.array_equal(got.bounds, np.searchsorted(np.flatnonzero(keep), bounds))
    assert_same_bytes(got.point, pairs.point[keep])


def class_rows_semantics(ev: FieldEvaluator, pairs: _Pairs, d2: np.ndarray, n: int) -> np.ndarray:
    """The mixture expectation from (C, M) arrays: every class spread at
    once, as the evaluator summed it before it took one class at a time."""
    w = pairs.spread(ev._log_weight) - 0.5 * d2
    wmax = np.full(n, -np.inf)
    np.maximum.at(wmax, pairs.point, w)
    shift = np.where(np.isfinite(wmax), wmax, 0.0)
    expw = np.exp(w - shift[pairs.point])
    denom = scatter_sum(pairs.point, expw, n)
    with np.errstate(divide="ignore"):
        log_norm = shift + np.log(denom)
    undefined = ~np.isfinite(log_norm) | (log_norm - 1.5 * np.log(2.0 * np.pi) < np.log(field.GMM_DENOMINATOR_FLOOR))
    rho = expw / np.where(denom > 0.0, denom, 1.0)[pairs.point]
    e = scatter_sum(pairs.point, rho * pairs.spread(ev._sem_t, axis=1), n)
    e[undefined] = 1.0 / ev.gs.num_classes
    return e


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semantics_one_class_at_a_time_equal_the_class_rows(seed):
    # Zero-opacity Gaussians (-inf weights) and points far from every
    # Gaussian (the uniform fallback) included.
    rng = np.random.default_rng(seed)
    gs = mixed_set(rng, p=40, c=5)
    gs = dataclasses.replace(gs, opacities=np.where(rng.random(40) < 0.2, 0.0, gs.opacities))
    points = query_points(rng, gs, 400)
    ev = FieldEvaluator(gs)
    pairs, _, d2 = live_pairs(points, gs.means, ev._rot, gs.scales, CUTOFF)
    assert_same_bytes(ev._semantics(pairs, d2, points.shape[0]), class_rows_semantics(ev, pairs, d2, points.shape[0]))


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
        assert len(pair_set(pairs)) == gauss_of(pairs).size  # no pair listed twice
        assert all(np.any(gauss_of(pairs) == g) for g in range(4))  # the tiny Gaussians see points
        np.testing.assert_allclose(kept_d2, d2[gauss_of(pairs), pairs.point], rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(kept_d2, np.sum(local**2, axis=1))
        # The wide Gaussian sees every point but the far ones; nothing sees those.
        assert set(pairs.point[gauss_of(pairs) == 4].tolist()) == set(range(points.shape[0] - 5))
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
        gauss = gauss_of(pairs)
        expected = [mahalanobis_sq(points[j], prims[g]) for g, j in zip(gauss.tolist(), pairs.point.tolist())]
        assert gauss.size >= (500 if np.isfinite(cutoff) else len(gs) * points.shape[0])
        np.testing.assert_array_equal(d2, expected)

    def test_candidates_are_grouped_by_gaussian(self):
        rng = np.random.default_rng(310)
        gs = mixed_set(rng)
        points = query_points(rng, gs)
        rot = rotation_matrices(gs.rotations)
        pairs = _CellIndex(gs.means, _cov_diag(rot, gs.scales), CUTOFF).pairs(points)
        assert np.all(np.diff(gauss_of(pairs)) >= 0)
        for g in range(len(gs)):
            np.testing.assert_array_equal(gauss_of(pairs)[pairs.bounds[g] : pairs.bounds[g + 1]], g)
        assert pairs.bounds[-1] == gauss_of(pairs).size
        # Candidates may exceed the live pairs, never miss one.
        d2 = np.sum(_scaled_local(_offsets(points, pairs, gs.means), pairs, rot, gs.scales) ** 2, axis=1)
        live, _, _ = live_pairs(points, gs.means, rot, gs.scales, CUTOFF)
        assert pair_set(live) <= pair_set(pairs)
        assert np.count_nonzero(d2 <= CUTOFF) == gauss_of(live).size

    @pytest.mark.parametrize("seed", [0, 1])
    def test_counts_equal_the_listed_pairs(self, seed):
        # Per-point candidate counts, taken without listing a pair, against
        # the pairs listed: with points outside the index's extent, on its
        # corners and repeated.
        rng = np.random.default_rng(330 + seed)
        gs = mixed_set(rng)
        index = _CellIndex(gs.means, _cov_diag(rotation_matrices(gs.rotations), gs.scales), CUTOFF)
        points = query_points(rng, gs)
        points = np.concatenate([points, points[::7], points[::7], [index.origin, index.top],
                                 [index.origin - 1e-9, index.top + 1e-9]])
        outside = ~np.all((points >= index.origin) & (points <= index.top), axis=1)
        want = np.bincount(index.pairs(points).point, minlength=points.shape[0])
        assert np.count_nonzero(outside) >= 7 and want.max() > 10
        np.testing.assert_array_equal(index.counts(points), want)

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
    def test_chunking_does_not_change_results(self, cutoff, monkeypatch):
        # Ranges of one point, of 7 points, and of the points that fit in a
        # budget of 64 or 200 candidate pairs give the bits of the default
        # ranges. At cutoff 25 the points have 0-74 candidates, so under a
        # budget of 64 some are a range by themselves; without a cutoff
        # every point has 80.
        rng = np.random.default_rng(321)
        gs = mixed_set(rng, p=80, c=2)
        points = query_points(rng, gs, n=100)
        opts = EvalOptions(cutoff_mahalanobis_sq=cutoff)
        methods = ("alpha", "semantics", "compose", "legacy", "compose_labels", "legacy_labels")
        whole = FieldEvaluator(gs, opts)
        want = {m: getattr(whole, m)(points) for m in methods}
        if cutoff is not None:
            counts = whole._index.counts(points)
            assert counts.max() > 64 and np.any(counts <= 32)
        evaluators = [FieldEvaluator(gs, opts, chunk=chunk) for chunk in (1, 7, np.int64(7))]
        for budget in (field._SPAN_PAIRS, 64, 200):
            monkeypatch.setattr(field, "_SPAN_PAIRS", budget)
            for ev in evaluators + [FieldEvaluator(gs, opts)]:
                for m in methods:
                    np.testing.assert_array_equal(getattr(ev, m)(points), want[m], err_msg=m)

    @pytest.mark.parametrize("cutoff", [CUTOFF, None])
    @pytest.mark.parametrize("chunk", [0, -1, 2.5, "8"])
    def test_chunk_must_be_a_positive_integer(self, cutoff, chunk):
        # A negative chunk once left the output as uninitialized memory.
        gs = mixed_set(np.random.default_rng(322), p=10, c=2)
        with pytest.raises(ValueError, match="chunk must be an integer >= 1"):
            FieldEvaluator(gs, EvalOptions(cutoff_mahalanobis_sq=cutoff), chunk=chunk)


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


def lattice_spans(lattice: _VoxelLattice, spec: GridSpec, budget=1 << 17, voxel_budget=1 << 17) -> list:
    """(first, stop) x-rows of the spans, planned as the evaluator plans them."""
    rows = max(1, voxel_budget // int(spec.resolution[1] * spec.resolution[2]))
    return [(r.start, r.stop) for r in field._ranges(np.cumsum(lattice.row_bound), rows, budget)]


def lattice_candidates(gs: GaussianSet, spec: GridSpec, cutoff=CUTOFF, budget=1 << 17, voxel_budget=1 << 17) -> list:
    """Per span: (first flat voxel, pair offsets ``x - m``, candidate pairs)."""
    lattice = _VoxelLattice(gs.means, rotation_matrices(gs.rotations), gs.scales, cutoff, spec.centers())
    row = int(spec.resolution[1] * spec.resolution[2])
    return [(start * row, *lattice.span_pairs(start, stop))
            for start, stop in lattice_spans(lattice, spec, budget, voxel_budget)]


def every_pair_d2(gs: GaussianSet, points: np.ndarray) -> np.ndarray:
    """(P, N) d2 of every pair, by the kernel's own local-frame formula."""
    every = _Pairs.every(len(gs), points.shape[0])
    local = _scaled_local(_offsets(points, every, gs.means), every, rotation_matrices(gs.rotations), gs.scales)
    return np.sum(local**2, axis=1).reshape(len(gs), -1)


def check_lattice(gs: GaussianSet, spec: GridSpec, cutoff=CUTOFF, budget=1 << 17,
                  voxel_budget=1 << 17) -> tuple[int, int]:
    """Assert that the lattice lists every live pair once, grouped by
    Gaussian, with the offsets of the span's centers from the means bit
    for bit, in spans of at most ``voxel_budget`` voxels or one x-row;
    return (candidates, live)."""
    centers = spec.all_centers()
    d2 = every_pair_d2(gs, centers)
    rot = rotation_matrices(gs.rotations)
    row = int(spec.resolution[1] * spec.resolution[2])
    candidates, live, listed = set(), set(), 0
    spans = lattice_candidates(gs, spec, cutoff, budget, voxel_budget)
    assert spans[0][0] == 0
    for (first, offsets, pairs), nxt in zip(spans, spans[1:] + [(spec.num_voxels,)]):
        points = centers[first : nxt[0]]
        assert points.shape[0] <= max(voxel_budget, row)
        assert np.all(np.diff(gauss_of(pairs)) >= 0)
        np.testing.assert_array_equal(pairs.bounds, np.searchsorted(gauss_of(pairs), np.arange(len(gs) + 1)))
        assert np.all((pairs.point >= 0) & (pairs.point < points.shape[0]))
        assert offsets.tobytes() == (points[pairs.point] - gs.means[gauss_of(pairs)]).tobytes()
        span_d2 = np.sum(_scaled_local(offsets, pairs, rot, gs.scales) ** 2, axis=1)
        glob = zip(gauss_of(pairs).tolist(), (pairs.point + first).tolist())
        for pair, inside in zip(glob, (span_d2 <= cutoff).tolist()):
            candidates.add(pair)
            if inside:
                live.add(pair)
        listed += gauss_of(pairs).size
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
        assert n_live == gauss_of(joined).size
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
        for _, offsets, pairs in lattice_candidates(gs, spec):
            d2 = np.sum(_scaled_local(offsets, pairs, rotation_matrices(gs.rotations), gs.scales) ** 2, axis=1)
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

    # 29 Gaussians and 30 voxels per x-row: every x-row bounds 870 pairs.
    # Spans of 12, 3 (12 = 4 * 3) and 5 (12 = 2 * 5 + 2) x-rows, of one
    # x-row for a budget below a row, and of the x-rows whose pairs fit
    # the pair budget (2 for 2000, 4 for 4000).
    @pytest.mark.parametrize("budget, voxel_budget, spans", [
        (1 << 17, 1 << 17, 1), (1 << 17, 90, 4), (1 << 17, 150, 3), (1 << 17, 7, 12),
        (2000, 1 << 17, 6), (4000, 150, 3), (100, 1 << 17, 12),
    ], ids=["131072", "90", "150", "7", "pairs-2000", "pairs-4000-voxels-150", "pairs-100"])
    def test_no_cutoff_spans_match_the_point_evaluation(self, budget, voxel_budget, spans, monkeypatch):
        rng = np.random.default_rng(345)
        spec = lattice_spec((12, 10, 3))
        gs = lattice_set(rng, spec)
        assert len(gs) == 29
        check_lattice(gs, spec, np.inf, budget=budget, voxel_budget=voxel_budget)
        monkeypatch.setattr(field, "_SPAN_PAIRS", budget)
        monkeypatch.setattr(field, "_SPAN_VOXELS", voxel_budget)
        listed = []
        span_pairs = _VoxelLattice.span_pairs
        monkeypatch.setattr(_VoxelLattice, "span_pairs",
                            lambda self, start, stop: listed.append((start, stop)) or span_pairs(self, start, stop))
        opts = EvalOptions(cutoff_mahalanobis_sq=None)
        ev = FieldEvaluator(gs, opts, chunk=64)
        centers = spec.all_centers()
        for method in (ev.alpha, ev.semantics, ev.compose, ev.legacy, ev.compose_labels, ev.legacy_labels):
            listed.clear()
            np.testing.assert_array_equal(method(spec.centers()), method(centers))
            assert len(listed) == spans
            assert [start for start, _ in listed] == [0] + [stop for _, stop in listed[:-1]]
            assert listed[-1][1] == 12
        np.testing.assert_array_equal(voxelize(gs, spec, opts).labels_flat, np.argmax(ev.compose(centers), axis=1))

    def test_no_cutoff_overflowing_covariances_span_every_axis(self):
        # Scales of 1e200 overflow the covariance: the lattice's intervals
        # are then inf or NaN, and each must cover its whole axis, so every
        # pair is still listed once.
        rng = np.random.default_rng(347)
        spec = lattice_spec((12, 10, 3))
        base = lattice_set(rng, spec)
        scales, rotations = base.scales.copy(), base.rotations.copy()
        scales[0] = 1e200
        scales[1, 0] = scales[2, 2] = 1e200
        rotations[1:3] = [1.0, 0.0, 0.0, 0.0]
        gs = dataclasses.replace(base, scales=scales, rotations=rotations)
        lattice = _VoxelLattice(gs.means, rotation_matrices(gs.rotations), gs.scales, np.inf, spec.centers())
        assert np.isnan(lattice.var_y[:3]).all() and np.isnan(lattice.slope_zx[[0, 2]]).all()
        assert np.isinf(lattice.var_z[[0, 2]]).all()
        assert check_lattice(gs, spec, np.inf) == (len(gs) * spec.num_voxels,) * 2
        ev = FieldEvaluator(gs, EvalOptions(cutoff_mahalanobis_sq=None))
        centers = spec.all_centers()
        for method in (ev.alpha, ev.semantics, ev.compose, ev.legacy, ev.compose_labels, ev.legacy_labels):
            np.testing.assert_array_equal(method(spec.centers()), method(centers))

    def test_no_cutoff_voxelize_never_builds_the_centers(self, monkeypatch):
        rng = np.random.default_rng(345)
        spec = lattice_spec((12, 10, 3))
        gs = lattice_set(rng, spec)
        additive = lattice_set(rng, spec, c=4)
        opts = EvalOptions(cutoff_mahalanobis_sq=None)
        centers = spec.all_centers()
        want = np.argmax(FieldEvaluator(gs, opts).compose(centers), axis=1)
        want_legacy = np.argmax(FieldEvaluator(additive, opts).legacy(centers), axis=1)

        def build(*args):
            raise AssertionError("the centers of a grid were built")

        monkeypatch.setattr(GridSpec, "all_centers", build)
        monkeypatch.setattr(field.VoxelCenters, "take", build)
        np.testing.assert_array_equal(voxelize(gs, spec, opts).labels_flat, want)
        np.testing.assert_array_equal(voxelize_legacy(additive, spec, opts).labels_flat, want_legacy)

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
        lattice = _VoxelLattice(gs.means, rot, gs.scales, CUTOFF, spec.centers())
        assert lattice_spans(lattice, spec) == [(0, 36)]
        rows = max(1, voxel_budget // 140)
        assert lattice_spans(lattice, spec, voxel_budget=voxel_budget) == [(x, min(x + rows, 36))
                                                                           for x in range(0, 36, rows)]
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
        budget = data.draw(st.sampled_from([16, 1 << 17]), label="budget")
        voxel_budget = data.draw(st.sampled_from([1, 30, 1 << 17]), label="voxel_budget")
        check_lattice(gs, spec, cutoff, budget=budget, voxel_budget=voxel_budget)
        # The bound-first labels of the lattice spans equal the argmax of
        # the full composed prediction at the centers.
        ev = FieldEvaluator(gs, EvalOptions(cutoff_mahalanobis_sq=cutoff))
        want = np.argmax(ev.compose(spec.all_centers()), axis=1)
        with mock.patch.object(field, "_SPAN_PAIRS", budget), mock.patch.object(field, "_SPAN_VOXELS", voxel_budget):
            np.testing.assert_array_equal(ev.compose_labels(spec.centers()), want)


def unit_grid(n: int) -> GridSpec:
    """An n x n x n grid of unit voxels with two classes besides empty."""
    return GridSpec(min_corner=np.zeros(3), max_corner=np.full(3, float(n)), resolution=np.array([n, n, n]),
                    num_classes_total=3)


def isotropic_set(means: np.ndarray, scale: float = 1.0) -> GaussianSet:
    """Unit-opacity Gaussians of one scale whose semantics are class 1
    to within rounding."""
    p = means.shape[0]
    return GaussianSet(means=means, scales=np.full((p, 3), scale), rotations=np.tile([1.0, 0.0, 0.0, 0.0], (p, 1)),
                       opacities=np.ones(p), logits=np.tile([40.0, 0.0], (p, 1)))


class TestBoundFirstLabels:
    """Voxel labels take the exact alpha only where the summed
    single-Gaussian alphas reach 1/2 (less a rounding margin); these cases
    sit on that bound."""

    @pytest.mark.parametrize("count", [40, 61, 63, 80])
    def test_many_weak_gaussians(self, count):
        # ``count`` Gaussians at d2 = 9 of the middle voxel's center, each
        # with alpha exp(-4.5) = 0.011 there: the summed alphas pass 1/2 from
        # 46 Gaussians on, and the aggregate 1 - (1 - 0.011)^count from 63.
        spec = unit_grid(5)
        center = voxel_center(spec, 2, 2, 2)
        k = np.arange(count) + 0.5
        polar, azimuth = np.arccos(1.0 - 2.0 * k / count), np.pi * (1.0 + 5.0**0.5) * k
        directions = np.column_stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])
        gs = isotropic_set(center + 3.0 * directions)
        ev = FieldEvaluator(gs)
        centers = spec.all_centers()
        want = np.argmax(ev.compose(centers), axis=1)
        middle = (2 * 5 + 2) * 5 + 2
        terms = np.exp(-0.5 * every_pair_d2(gs, centers)[:, middle])
        assert np.all(terms < 0.012) and (np.sum(terms) > 0.5) == (count >= 46)
        assert want[middle] == (1 if count >= 63 else 0)
        np.testing.assert_array_equal(voxelize(gs, spec).labels_flat, want)

    @pytest.mark.parametrize("others", [0, 4])
    def test_alpha_within_1e_12_of_one_half(self, others):
        # One Gaussian slides along x away from the middle voxel's center,
        # bisected until the aggregate alpha there lies within 1e-12 of 1/2
        # on each side. Its semantics round to class 1 exactly, so the label
        # flips with alpha at 1/2.
        spec = unit_grid(3)
        center = voxel_center(spec, 1, 1, 1)
        fixed = center + np.array([[0.0, 2.5, 0.0], [0.0, -2.5, 0.0], [0.0, 0.0, 2.6], [0.0, 0.0, -2.6]])[:others]

        def placed(t):
            return isotropic_set(np.concatenate([center + [[t, 0.0, 0.0]], fixed]))

        def alpha(t):
            return FieldEvaluator(placed(t)).alpha(center[None, :])[0]

        near, far = 0.0, 3.0
        for _ in range(200):
            if alpha(near) - 0.5 < 1e-12 and 0.5 - alpha(far) < 1e-12:
                break
            mid = 0.5 * (near + far)
            near, far = (mid, far) if alpha(mid) > 0.5 else (near, mid)
        assert 0.0 < alpha(near) - 0.5 < 1e-12 and 0.0 < 0.5 - alpha(far) < 1e-12
        middle = (1 * 3 + 1) * 3 + 1
        centers = spec.all_centers()
        for t, label in ((near, 1), (far, 0)):
            gs = placed(t)
            want = np.argmax(FieldEvaluator(gs).compose(centers), axis=1)
            assert want[middle] == label
            np.testing.assert_array_equal(voxelize(gs, spec).labels_flat, want)


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


def large_paper_set() -> GaussianSet:
    """2048 Gaussians of 1.5-2.5 m spread over the 200x200x16 grid."""
    spec = nuscenes_grid_spec(5)
    rng = np.random.default_rng(0)
    p = 2048
    quats = rng.normal(size=(p, 4))
    return GaussianSet(means=rng.uniform(spec.min_corner, spec.max_corner, (p, 3)), scales=rng.uniform(1.5, 2.5, (p, 3)),
                       rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
                       opacities=rng.uniform(0.1, 1.0, p), logits=rng.normal(size=(p, 4)))


def test_paper_scale_point_evaluation_memory_is_bounded():
    # 2048 Gaussians of about 2 m on the 200x200x16 grid: 8192 uniform
    # points have about 930k candidates at cutoff 25. Chunks of 8192
    # points, whatever their pair count, traced 57.7 MiB (alpha) and 57.9
    # MiB (compose), and one 2^17-sample Monte Carlo chunk 20.6 MiB; ranges
    # of about 2^17 candidate pairs traced 10.7, 11.0 and 13.8 MiB while a
    # candidate pair held a second (M, 3) array, and trace 7.0, 7.2 and
    # 11.2 MiB.
    spec = nuscenes_grid_spec(5)
    gs = large_paper_set()
    points = np.random.default_rng(1).uniform(spec.min_corner, spec.max_corner, (8192, 3))
    alpha, peak = traced_peak(lambda: FieldEvaluator(gs).alpha(points))
    assert np.count_nonzero(alpha > 0.5) > 4096
    assert peak < 16 * 2**20
    composed, peak = traced_peak(lambda: FieldEvaluator(gs).compose(points))
    np.testing.assert_array_equal(composed[:, 0], 1.0 - alpha)
    assert peak < 16 * 2**20
    volume, peak = traced_peak(lambda: mc_coverage_volume(gs, (spec.min_corner, spec.max_corner), 1 << 17, 0))
    assert 0.5 < volume / np.prod(spec.max_corner - spec.min_corner) < 1.0
    assert peak < 16 * 2**20


def test_monte_carlo_ranges_on_large_gaussians_hold_few_bytes():
    # 20,000 samples of the same 2 m set have 567,293 candidates at the
    # 90% cutoff, so the pair budget cuts them into 5 ranges. They traced
    # 11.4 MiB while each candidate pair held its offsets twice; they
    # trace 7.6 MiB, and the bound leaves about 11% over that.
    spec = nuscenes_grid_spec(5)
    volume, peak = traced_peak(lambda: mc_coverage_volume(large_paper_set(), (spec.min_corner, spec.max_corner),
                                                          20_000, 0))
    assert 0.5 < volume / np.prod(spec.max_corner - spec.min_corner) < 1.0
    assert peak < 8.5 * 2**20, peak / 2**20


def test_bound_leaves_few_pairs_to_the_exact_alpha(monkeypatch, tmp_path):
    # On the audit benchmark's set at seed 0, 17.5% of the live pairs of
    # voxelize belong to voxels whose summed alphas reach 1/2, so only
    # those reach log1mexp; without the bound every live pair would.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads, spans = importlib.import_module("workloads"), importlib.import_module("spans")
    ctx = workloads.Context(root=Path(__file__).resolve().parents[1], seed=0, tracer=spans.Tracer(enabled=False),
                            workdir=tmp_path)
    inputs = workloads.WORKLOADS["audit-paper"]().setup(ctx)
    exact, live = [], []
    log1mexp, compose_label = field.log1mexp, FieldEvaluator._compose_label

    def counted_log1mexp(a):
        exact.append(np.size(a))
        return log1mexp(a)

    def counted_compose_label(self, pairs, d2, n):
        live.append(d2.size)
        return compose_label(self, pairs, d2, n)

    monkeypatch.setattr(field, "log1mexp", counted_log1mexp)
    monkeypatch.setattr(FieldEvaluator, "_compose_label", counted_compose_label)
    pred = voxelize(inputs["gs"], inputs["grid"].spec, EvalOptions(neighbor_index=True))
    assert np.count_nonzero(pred.labels) > 10_000
    assert sum(live) > 1_000_000
    assert 0 < sum(exact) < 0.25 * sum(live)


def dense_street_set(grid) -> GaussianSet:
    """1024 Gaussians of 0.7-2 voxels on occupied voxels of ``grid``,
    their logits leaning to the voxel's label."""
    spec = grid.spec
    rng = np.random.default_rng(0)
    occupied, labels = grid.occupied_centers(), grid.occupied_labels()
    p = 1024
    idx = rng.choice(occupied.shape[0], p, replace=False)
    quats = rng.normal(size=(p, 4))
    logits = rng.normal(size=(p, spec.num_classes_total - 1))
    logits[np.arange(p), labels[idx] - 1] += 4.0
    return GaussianSet(means=occupied[idx], scales=np.exp(rng.uniform(np.log(0.7), np.log(2.0), (p, 3))) * spec.voxel_size,
                       rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
                       opacities=rng.uniform(0.5, 1.0, p), logits=logits)


def test_dense_voxelize_memory_is_bounded(mini_street):
    # 1024 Gaussians on occupied voxels of mini-street: 73% of the live
    # pairs belong to voxels whose alpha passes 1/2, so the bound prunes
    # little. Evaluating the exact terms on every pair peaked at 11.0 MB;
    # the bound-first labels peaked at 10.9 MB, and at 6.1 MB once the
    # offsets were rotated in place and the classes summed one at a time.
    grid, _ = mini_street
    pred, peak = traced_peak(lambda: voxelize(dense_street_set(grid), grid.spec))
    assert np.count_nonzero(pred.labels) > 5000
    assert peak < 11.0 * 2**20


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


@pytest.mark.parametrize("case", ["no cutoff, paper grid", "cutoff 25, mini-street"])
def test_voxelize_holds_few_bytes_per_candidate_pair(case, mini_street):
    # The traced peak over the largest span's candidate pairs; the peak
    # also holds the labels and the lattice. Every pair of 4 Gaussians on
    # the 200x200x16 grid gives spans of 128,000 candidates; 1024
    # Gaussians on mini-street give spans of up to 87,662. A candidate pair
    # held 90.5 and 115.5 bytes while its rotated offsets were a second
    # (M, 3) array and the classes (C, M) arrays; it holds 53.0 and 69.0,
    # and each bound leaves about 13% over that.
    if case.startswith("no cutoff"):
        spec, opts, bound = nuscenes_grid_spec(5), EvalOptions(cutoff_mahalanobis_sq=None), 60
        gs = corner_set(spec, 4, 2)
    else:
        grid, _ = mini_street
        spec, opts, bound = grid.spec, EvalOptions(), 78
        gs = dense_street_set(grid)
    largest = max(pairs.point.size for _, _, pairs in lattice_candidates(gs, spec, opts.cutoff))
    assert largest > 80_000
    pred, peak = traced_peak(lambda: voxelize(gs, spec, opts))
    assert np.count_nonzero(pred.labels) > 0
    assert peak < bound * largest, peak / largest


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
    # 640,000 centers first peaked at 31 MB; lattice spans of 10 x-rows
    # (about 2^17 pairs) peak at 13 MB.
    spec = nuscenes_grid_spec(5)
    gs = corner_set(spec, 4, 2)
    pred, peak = traced_peak(lambda: voxelize(gs, spec, EvalOptions(cutoff_mahalanobis_sq=None)))
    assert np.count_nonzero(pred.labels) > 0
    assert peak < 16 * 2**20


def test_no_cutoff_memory_at_the_fit_scale(mini_street):
    # Without a cutoff, every pass takes spans or chunks of about 2^17
    # pairs. Separate 2^20-pair chunks for this mode peaked at 96.7 MB
    # (voxelize), 112.7 MB (voxelize_legacy) and 113.4 MB (compose on a
    # third of the centers); these peak at 15-18 MB. The sets are fitted
    # for 40 iterations at P=256.
    grid, _ = mini_street
    spec = grid.spec
    fitted = {model: fit(grid, FitConfig(num_gaussians=256, iterations=40, seed=0, eval_every=40,
                                         model=model)).gaussians
              for model in ("probabilistic", "additive")}
    opts = EvalOptions(cutoff_mahalanobis_sq=None)
    pred, peak = traced_peak(lambda: voxelize(fitted["probabilistic"], spec, opts))
    assert np.count_nonzero(pred.labels) > 1000
    assert peak < 24 * 2**20
    pred, peak = traced_peak(lambda: voxelize_legacy(fitted["additive"], spec, opts))
    assert np.count_nonzero(pred.labels) > 1000
    assert peak < 24 * 2**20
    points = spec.all_centers()[::3]
    composed, peak = traced_peak(lambda: FieldEvaluator(fitted["probabilistic"], opts).compose(points))
    assert composed.shape == (points.shape[0], spec.num_classes_total)
    assert peak < 24 * 2**20
