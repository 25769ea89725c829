"""Parameter encoding, initialization, loss/gradient math and the fit loop."""

import importlib
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from gaussocc.core import GaussianSet
from gaussocc.field import EvalOptions, FieldEvaluator, _Pairs, additive_sums, scatter_sum
from gaussocc.fit import (
    FitConfig,
    ParamVector,
    _additive_pair_grads,
    _SamplePools,
    _loss_and_grad,
    _quaternion_grad,
    fit,
    fit_grad,
    fit_loss,
    fps_init,
    init_from_grid,
    random_init,
)
from gaussocc.grid import GridSpec, VoxelGrid, nuscenes_grid_spec
from gaussocc.metrics import ConfusionMatrix
from gaussocc.scenes import synth_scene

from conftest import random_gaussian_set, traced_peak

NO_CUTOFF = EvalOptions(cutoff_mahalanobis_sq=None)


def tiny_grid(occupied, res=(8, 8, 8), classes=4):
    spec = GridSpec(
        min_corner=np.zeros(3),
        max_corner=np.array(res, dtype=float),
        resolution=np.array(res),
        num_classes_total=classes,
    )
    labels = np.zeros(tuple(res), dtype=np.uint16)
    for idx, lab in occupied:
        labels[idx] = lab
    return VoxelGrid(spec=spec, labels=labels)


def fd_gradient(theta, p, ch, pts, labs, model, cutoff, h=1e-5):
    grad = np.empty_like(theta)
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        lu, _ = _loss_and_grad(up, p, ch, pts, labs, model, cutoff, want_grad=False)
        ld, _ = _loss_and_grad(down, p, ch, pts, labs, model, cutoff, want_grad=False)
        grad[j] = (lu - ld) / (2 * h)
    return grad


def grad_errors(analytic, numeric):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    abs_err = np.abs(analytic - numeric)
    return abs_err, abs_err / np.where(scale > 0, scale, 1.0)


def _rotation_quat_jacobian(qn):
    """(P, 4, 3, 3) derivative of the rotation matrix w.r.t. each unit
    quaternion component: the reference for the closed-form torque."""
    w, x, y, z = qn[:, 0], qn[:, 1], qn[:, 2], qn[:, 3]
    o = np.zeros_like(w)

    def mat(*rows):
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    dw = mat((o, -z, y), (z, o, -x), (-y, x, o))
    dx = mat((o, y, z), (y, -2 * x, -w), (z, w, -2 * x))
    dy = mat((-2 * y, x, w), (x, o, z), (-w, z, -2 * y))
    dz = mat((-2 * z, -w, x), (w, -2 * z, y), (x, y, o))
    return 2.0 * np.stack([dw, dx, dy, dz], axis=1)


def jacobian_quaternion_grad(k, qn, qnorm):
    """The quaternion gradient through the full rotation Jacobian, in
    extended precision: dL/dR = 2 R K, contracted with dR/dq, projected
    onto the tangent space of the unit quaternion and divided by the raw
    norm. Returns the (P, 4) gradient as float64 and, per row, the size of
    the unprojected contraction over the norm, from which the projection
    cancels (the path's own rounding scales with it)."""
    k, qn, qnorm = (np.asarray(a, dtype=np.longdouble) for a in (k, qn, qnorm))
    # Renormalized in extended precision: the Jacobian path turns a float64
    # unit quaternion's one-ulp norm error into an error of about an ulp of
    # its unprojected contraction, which the torque form does not have.
    qn = qn / np.sqrt(np.sum(qn * qn, axis=1, keepdims=True))
    w, x, y, z = qn.T
    rot = np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)
    g_qn = np.einsum("pab,piab->pi", 2 * rot @ k, _rotation_quat_jacobian(qn))
    g = (g_qn - qn * np.sum(qn * g_qn, axis=1, keepdims=True)) / qnorm[:, None]
    scale = np.max(np.abs(g_qn), axis=1) / qnorm
    return g.astype(np.float64), scale.astype(np.float64)


# The torque form must match the Jacobian path within this fraction of the
# largest entry; the reference's own rounding, a few extended-precision
# ulps of its unprojected contraction, is allowed on top.
QUAT_GRAD_RTOL = 4e-15
_LD_EPS = float(np.finfo(np.longdouble).eps)


class TestParamVector:
    def test_round_trip(self):
        rng = np.random.default_rng(70)
        gs = random_gaussian_set(rng, 6, 4)
        pv = ParamVector.encode(gs)
        back = pv.decode()
        np.testing.assert_allclose(back.means, gs.means, atol=1e-9)
        np.testing.assert_allclose(back.scales, gs.scales, rtol=1e-9)
        np.testing.assert_allclose(back.rotations, gs.rotations, atol=1e-9)
        np.testing.assert_allclose(back.opacities, gs.opacities, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(back.logits, gs.logits, atol=1e-12)

    def test_round_trip_keeps_rotations_bit_for_bit(self):
        gs = random_gaussian_set(np.random.default_rng(1), 1000, 4)
        assert ParamVector.encode(gs).decode().rotations.tobytes() == gs.rotations.tobytes()

    def test_round_trip_small_opacity(self):
        gs = GaussianSet(
            means=np.zeros((1, 3)),
            scales=np.ones((1, 3)),
            rotations=np.array([[1.0, 0, 0, 0]]),
            opacities=np.array([1e-8]),
            logits=np.zeros((1, 2)),
        )
        back = ParamVector.encode(gs).decode()
        assert back.opacities[0] == pytest.approx(1e-8, rel=1e-9)

    def test_overflowing_log_scale_is_named_without_warning(self):
        rng = np.random.default_rng(71)
        values = ParamVector.encode(random_gaussian_set(rng, 3, 2)).values.copy()
        values[13 + 4] = 1000.0  # the second Gaussian's second log-scale
        pv = ParamVector(values=values, num_gaussians=3, num_channels=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scales must be finite"):
                pv.decode()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            ParamVector(values=np.zeros(10), num_gaussians=2, num_channels=3)


def norm_loop(points, k, first):
    """The greedy loop that re-measures the whole cloud at every pick."""
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = first
    dist = np.linalg.norm(points - points[first], axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return chosen


def assert_picks_match_the_norm_loop(pts, k, seed, batched):
    got = fps_init(pts, k, seed, batched=batched)
    with mock.patch.object(importlib.import_module("gaussocc.fit"), "_greedy_fps", norm_loop):
        expected = fps_init(pts, k, seed, batched=batched)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


class TestFps:
    def test_full_selection(self):
        rng = np.random.default_rng(71)
        pts = rng.normal(size=(9, 3))
        assert set(fps_init(pts, 9, seed=0)) == set(range(9))

    def test_line_segment_extremes(self):
        t = np.linspace(0, 1, 11)
        pts = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        idx = fps_init(pts, 2, seed=3)
        assert {0, 10} == set(idx) or 10 in idx  # first pick is random, second is an extreme
        # the two chosen points must span at least the half segment
        assert np.linalg.norm(pts[idx[0]] - pts[idx[1]]) >= 0.5

    def test_beats_random_subsets(self):
        rng = np.random.default_rng(72)
        pts = rng.uniform(0, 10, size=(200, 3))

        def min_pairwise(subset):
            d = np.linalg.norm(subset[:, None, :] - subset[None, :, :], axis=-1)
            return np.min(d[np.triu_indices(len(subset), k=1)])

        fps_quality = min_pairwise(pts[fps_init(pts, 8, seed=1)])
        random_quality = np.median(
            [min_pairwise(pts[rng.choice(200, size=8, replace=False)]) for _ in range(100)]
        )
        assert fps_quality >= random_quality

    def test_batched_variant_covers_octants(self):
        rng = np.random.default_rng(73)
        pts = rng.uniform(-5, 5, size=(400, 3))
        idx = fps_init(pts, 32, seed=2, batched=True)
        assert len(idx) == 32
        assert len(set(int(i) for i in idx)) == 32
        chosen = pts[idx]
        # every octant with enough candidates should be represented
        signs = (chosen >= 0).astype(int)
        octants = {tuple(s) for s in signs}
        assert len(octants) >= 6

    def test_batched_quotas_round_each_octant_share(self):
        rng = np.random.default_rng(74)
        # Skewed clouds, one with empty octants, so the shares have fractions.
        clouds = [rng.exponential(1.0, size=(500, 3)), rng.normal(size=(37, 3)) * [1.0, 1.0, 0.0]]
        for pts in clouds:
            mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            octant = ((pts >= mid) * [4, 2, 1]).sum(axis=1)
            sizes = np.bincount(octant, minlength=8)
            n = len(pts)
            for k in range(1, n, 3):
                idx = fps_init(pts, k, seed=k, batched=True)
                assert len(set(idx.tolist())) == len(idx) == k
                quotas = np.bincount(octant[idx], minlength=8)
                share = k * sizes / n
                assert np.all((quotas == np.floor(share)) | (quotas == np.ceil(share)))

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="k must lie"):
            fps_init(np.zeros((4, 3)), 5, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(("uniform", "lattice", "voxels", "duplicates")),
        n=st.integers(1, 300),
        data_seed=st.integers(0, 2**32 - 1),
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        batched=st.booleans(),
    )
    def test_picks_match_the_norm_loop(self, kind, n, data_seed, k_frac, seed, batched):
        rng = np.random.default_rng(data_seed)
        if kind == "uniform":
            pts = rng.uniform(-5.0, 5.0, size=(n, 3))
        elif kind == "lattice":  # exact equal distances: the tie rule decides most picks
            pts = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
        elif kind == "voxels":  # distances equal up to rounding: the summation order decides
            spacing = rng.choice([0.1, 0.2, 0.3, 0.7])
            pts = -5.0 + (rng.integers(0, 8, size=(n, 3)) + 0.5) * spacing
        else:
            base = rng.normal(size=(max(1, n // 4), 3)) * rng.uniform(1e-3, 1e3)
            pts = base[rng.integers(0, len(base), size=n)]
        k = 1 + int(k_frac * (n - 1))
        assert_picks_match_the_norm_loop(pts, k, seed, batched)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 2500),
        data_seed=st.integers(0, 2**32 - 1),
        long_axis=st.integers(0, 2),
        voxels=st.booleans(),
        log_scale=st.floats(-3.0, 3.0),
        offset=st.sampled_from((0.0, 1e3, -1e5, 1e7)),
        shuffled=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        batched=st.booleans(),
        data=st.data(),
    )
    def test_picks_match_the_norm_loop_where_the_slab_culls(
        self, n, data_seed, long_axis, voxels, log_scale, offset, shuffled, seed, batched, data
    ):
        # Elongated clouds, where each pick re-measures a thin slab of the
        # long axis. Sorted input takes the tie rule's no-search path,
        # shuffled input the search of the blocks that hold the maximum.
        rng = np.random.default_rng(data_seed)
        if voxels:  # most of a thin voxel lattice: distances tie at the maximum on most picks
            cells = np.ones(3, dtype=np.int64)
            cells[np.arange(3) != long_axis] = rng.integers(1, 5, size=2)
            cells[long_axis] = np.ceil(n / np.prod(cells) / rng.uniform(0.5, 1.0))
            flat = rng.choice(np.prod(cells), size=n, replace=False)
            pts = (np.stack(np.unravel_index(flat, cells), axis=1) + 0.5) * rng.choice([0.1, 0.2, 0.3, 0.7])
        else:
            extent = np.ones(3)
            extent[long_axis] = rng.uniform(4.0, 40.0)
            pts = rng.uniform(0.0, extent, size=(n, 3))
        pts = offset + pts * 10.0**log_scale
        order = rng.permutation(n) if shuffled else np.argsort(pts[:, long_axis], kind="stable")
        k = data.draw(st.integers(1, n), label="k")
        assert_picks_match_the_norm_loop(pts[order], k, seed, batched)

    def test_paper_grid_picks_match_the_norm_loop(self):
        grid, _ = synth_scene(0, spec=nuscenes_grid_spec(5))
        assert_picks_match_the_norm_loop(grid.occupied_centers(), 2048, 0, batched=True)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidates_rejected(self, bad, batched):
        pts = np.random.default_rng(75).normal(size=(6, 3))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="candidates must be finite"):
            fps_init(pts, 5, seed=0, batched=batched)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("shape", [(6, 2), (6, 4), (2, 3, 3)])
    def test_candidates_not_n_by_3_rejected(self, shape, batched):
        with pytest.raises(ValueError, match=r"candidates must have shape \(N, 3\)"):
            fps_init(np.zeros(shape), 2, seed=0, batched=batched)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            fps_init(np.zeros((4, 3)), k, seed=0)

    def test_numpy_integer_k_accepted(self):
        pts = np.random.default_rng(76).normal(size=(8, 3))
        np.testing.assert_array_equal(fps_init(pts, np.int64(3), seed=1), fps_init(pts, 3, seed=1))


class TestInitFromGrid:
    def test_single_voxel(self):
        gt = tiny_grid([((3, 4, 5), 2)])
        cfg = FitConfig(num_gaussians=1, iterations=1, batch_points=8)
        gs = init_from_grid(gt, cfg)
        np.testing.assert_allclose(gs.means[0], [3.5, 4.5, 5.5], atol=1e-12)
        assert np.argmax(gs.logits[0]) == 1  # class 2 -> channel 1

    def test_all_means_in_occupied_voxels(self, mini_street):
        grid, _ = mini_street
        from gaussocc.metrics import perc_correct

        cfg = FitConfig(num_gaussians=256, iterations=1)
        gs = init_from_grid(grid, cfg)
        assert perc_correct(gs, grid) == 100.0

    def test_oversampling_with_jitter_stays_occupied(self):
        gt = tiny_grid([((1, 1, 1), 1), ((6, 6, 6), 3)])
        from gaussocc.metrics import perc_correct

        cfg = FitConfig(num_gaussians=16, iterations=1)
        gs = init_from_grid(gt, cfg)
        assert len(gs) == 16
        assert perc_correct(gs, gt) == 100.0

    def test_semantics_match_local_labels(self, mini_street):
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=128, iterations=1)
        gs = init_from_grid(grid, cfg)
        hot = np.argmax(gs.logits, axis=1) + 1
        looked_up = grid.labels_at_points(gs.means)
        np.testing.assert_array_equal(hot, looked_up)

    def test_empty_grid_rejected(self):
        gt = tiny_grid([])
        with pytest.raises(ValueError, match="empty"):
            init_from_grid(gt, FitConfig(num_gaussians=4, iterations=1))

    def test_additive_init_uses_empty_channel_layout(self):
        gt = tiny_grid([((2, 2, 2), 3)])
        cfg = FitConfig(num_gaussians=1, iterations=1, model="additive")
        gs = init_from_grid(gt, cfg)
        assert gs.num_classes == 4  # C + 1 channels
        assert np.argmax(gs.logits[0]) == 3


class TestFitLoss:
    def test_perfect_fit_construction_is_small(self):
        gt = tiny_grid([((2, 2, 2), 1), ((5, 5, 5), 2), ((2, 5, 2), 3)])
        cfg = FitConfig(num_gaussians=3, iterations=1, init_logit_scale=8.0)
        gs = init_from_grid(gt, cfg)
        pv = ParamVector.encode(gs)
        centers = gt.spec.all_centers()
        rng = np.random.default_rng(74)
        occ = np.flatnonzero(gt.labels_flat != 0)
        emp = rng.choice(np.flatnonzero(gt.labels_flat == 0), size=64, replace=False)
        pts = centers[np.concatenate([occ, emp])]
        assert fit_loss(pv, gt, pts) < 0.1

    def test_uniform_prediction_closed_form(self):
        # One Gaussian with zero logits; at distance where alpha = C/(C+1)
        # the composed prediction is exactly uniform over C+1 classes.
        c = 3
        gt = tiny_grid([((4, 4, 4), 1)], classes=c + 1)
        gs = GaussianSet(
            means=np.array([[4.5, 4.5, 4.5]]),
            scales=np.ones((1, 3)),
            rotations=np.array([[1.0, 0, 0, 0]]),
            opacities=np.ones(1),
            logits=np.zeros((1, c)),
        )
        pv = ParamVector.encode(gs)
        d = np.sqrt(-2.0 * np.log(c / (c + 1.0)))
        pts = np.array([[4.5 + d, 4.5, 4.5]])
        assert fit_loss(pv, gt, pts, opts=NO_CUTOFF) == pytest.approx(np.log(c + 1.0), abs=1e-6)

    def test_probabilistic_loss_equals_compose_route(self):
        rng = np.random.default_rng(75)
        gt = tiny_grid([((2, 3, 4), 1), ((5, 2, 6), 2), ((6, 6, 1), 3)])
        gs = random_gaussian_set(rng, 5, 3, spread=4.0)
        gs = GaussianSet(
            means=np.abs(gs.means),
            scales=gs.scales,
            rotations=gs.rotations,
            opacities=gs.opacities,
            logits=gs.logits,
        )
        pv = ParamVector.encode(gs)
        pts = gt.spec.all_centers()[rng.choice(gt.spec.num_voxels, 64, replace=False)]
        expected = -np.mean(
            np.log(
                FieldEvaluator(pv.decode(), NO_CUTOFF).compose(pts)[
                    np.arange(64), gt.labels_at_points(pts)
                ]
            )
        )
        assert fit_loss(pv, gt, pts, opts=NO_CUTOFF) == pytest.approx(expected, abs=1e-12)

    def test_additive_loss_equals_softmax_route(self):
        rng = np.random.default_rng(76)
        gt = tiny_grid([((2, 3, 4), 1), ((5, 2, 6), 2)])
        gs = random_gaussian_set(rng, 4, 4, spread=4.0)
        gs = GaussianSet(
            means=np.abs(gs.means),
            scales=gs.scales,
            rotations=gs.rotations,
            opacities=gs.opacities,
            logits=gs.logits,
        )
        pv = ParamVector.encode(gs)
        pts = gt.spec.all_centers()[rng.choice(gt.spec.num_voxels, 48, replace=False)]
        z = FieldEvaluator(pv.decode(), NO_CUTOFF).legacy(pts)
        probs = softmax(z, axis=1)
        expected = -np.mean(np.log(probs[np.arange(48), gt.labels_at_points(pts)]))
        assert fit_loss(pv, gt, pts, model="additive", opts=NO_CUTOFF) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("model", ["probabilistic", "additive"])
    def test_paper_scale_call_keeps_memory_bounded(self, model):
        # P=6400 on the nuScenes grid with a 1024-point batch at cutoff 25:
        # the call's traced peak follows its live pairs, not P x N.
        gt, _ = synth_scene(0, spec=nuscenes_grid_spec(5))
        cfg = FitConfig(num_gaussians=6400, model=model, seed=0)
        pv = ParamVector.encode(init_from_grid(gt, cfg))
        points, labels = _SamplePools(gt).draw(1024, cfg.occupied_ratio, np.random.default_rng(0))
        (loss, grad), peak = traced_peak(lambda: _loss_and_grad(
            pv.values, pv.num_gaussians, pv.num_channels, points, labels, model, 25.0))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert peak < 16 * 2**20, peak / 2**20

    def test_additive_call_after_the_pipeline_fit_holds_few_bytes(self, mini_street):
        # The README pipeline's fit (additive, P=256, random init, 30
        # iterations, seed 0), then one 1024-point call at cutoff 25. It
        # traced 7.96 MiB while the channels were (ch, M) arrays and the
        # rotated offsets a second (M, 3) array; it traces 5.02 MiB, and
        # the bound leaves about 12% over that.
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=256, iterations=30, seed=0, model="additive", init="random", eval_every=30)
        pv = ParamVector.encode(fit(grid, cfg).gaussians)
        points, labels = _SamplePools(grid).draw(1024, cfg.occupied_ratio, np.random.default_rng(0))
        (loss, grad), peak = traced_peak(lambda: _loss_and_grad(
            pv.values, pv.num_gaussians, pv.num_channels, points, labels, "additive", 25.0))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert peak < 5.6 * 2**20, peak / 2**20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_additive_channel_sums_equal_the_channel_rows(seed):
    # The (ch, M) forms the additive branch took before it went one channel
    # at a time: the same products, bincounts and segment sums, and
    # np.einsum's sum over the channels (which adds in another order when
    # there is a single pair). One Gaussian has zero logits, so some sums
    # are of zeros alone and keep einsum's sign of zero.
    rng = np.random.default_rng(seed)
    p, ch, n = 30, 5, 200
    counts = rng.integers(0, 40, size=p)
    counts[[0, 7, -1]] = 0
    pairs = _Pairs(rng.integers(0, n, size=counts.sum()), np.concatenate([[0], np.cumsum(counts)]))
    g_vals = rng.uniform(0.0, 2.0, size=counts.sum())
    logits = rng.normal(size=(p, 11 + ch))[:, 11:]  # a strided view, as the fit's parameter block gives
    logits[3] = 0.0
    d_loss_dz = rng.normal(size=(n, ch))
    pair_logits = pairs.spread(logits.T, axis=1)
    dz = np.take(np.ascontiguousarray(d_loss_dz.T), pairs.point, axis=1)
    g_gv, grad_logits = _additive_pair_grads(pairs, g_vals, logits, d_loss_dz)
    for got, want in ((additive_sums(pairs, g_vals, logits, n), scatter_sum(pairs.point, g_vals * pair_logits, n)),
                      (g_gv, np.einsum("cm,cm->m", pair_logits, dz)),
                      (grad_logits, pairs.sum(g_vals * dz).T)):
        assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestGradient:
    def random_theta(self, rng, p, ch):
        blocks = []
        for _ in range(p):
            blocks.append(
                np.concatenate(
                    [
                        rng.uniform(-2, 2, 3),
                        rng.uniform(-1.5, 0.5, 3),
                        rng.normal(0, 1, 4),
                        rng.uniform(-1, 2, 1),
                        rng.normal(0, 2, ch),
                    ]
                )
            )
        return np.concatenate(blocks)

    @pytest.mark.parametrize(
        "model,ch,cutoff",
        [
            pytest.param("probabilistic", 3, np.inf, id="probabilistic-3"),
            pytest.param("additive", 4, np.inf, id="additive-4"),
            # Five Gaussians, of which the first, the middle and the last sit
            # far from every point: their pair segments are empty, between
            # non-empty ones.
            pytest.param("probabilistic", 3, 16.0, id="probabilistic-3-empty-segments"),
            pytest.param("additive", 4, 16.0, id="additive-4-empty-segments"),
        ],
    )
    def test_matches_finite_differences(self, model, ch, cutoff):
        rng = np.random.default_rng(77)
        p, n = (4, 8) if np.isinf(cutoff) else (5, 8)
        theta = self.random_theta(rng, p, ch)
        pts = rng.uniform(-2, 2, (n, 3))
        labs = rng.integers(0, (ch if model == "probabilistic" else ch - 1) + 1, n)
        dead = [0, 2, 4] if np.isfinite(cutoff) else []
        theta.reshape(p, -1)[dead, 0:3] += 50.0
        _, grad = _loss_and_grad(theta, p, ch, pts, labs, model, cutoff)
        fd = fd_gradient(theta, p, ch, pts, labs, model, cutoff)
        abs_err, rel_err = grad_errors(grad, fd)
        assert np.all((rel_err <= 1e-4) | (abs_err <= 1e-7))
        live = np.any(grad.reshape(p, -1) != 0.0, axis=1)
        np.testing.assert_array_equal(live, ~np.isin(np.arange(p), dead))

    def test_single_gaussian(self):
        rng = np.random.default_rng(78)
        theta = self.random_theta(rng, 1, 3)
        pts = rng.uniform(-1, 1, (4, 3))
        labs = np.array([0, 1, 2, 3])
        _, grad = _loss_and_grad(theta, 1, 3, pts, labs, "probabilistic", np.inf)
        fd = fd_gradient(theta, 1, 3, pts, labs, "probabilistic", np.inf)
        abs_err, rel_err = grad_errors(grad, fd)
        assert np.all((rel_err <= 1e-4) | (abs_err <= 1e-7))

    def test_degenerate_point_at_mean(self):
        # At the Gaussian center the occupancy is stationary in the mean.
        rng = np.random.default_rng(79)
        theta = self.random_theta(rng, 1, 2)
        theta[0:3] = [0.5, -0.25, 1.0]
        pts = np.array([[0.5, -0.25, 1.0]])
        labs = np.array([1])
        _, grad = _loss_and_grad(theta, 1, 2, pts, labs, "probabilistic", np.inf)
        fd = fd_gradient(theta, 1, 2, pts, labs, "probabilistic", np.inf)
        np.testing.assert_allclose(grad[0:3], 0.0, atol=1e-9)
        abs_err, rel_err = grad_errors(grad, fd)
        assert np.all((rel_err <= 1e-4) | (abs_err <= 1e-7))

    @pytest.mark.parametrize("model,ch", [("probabilistic", 3), ("additive", 4)])
    def test_no_live_pair(self, model, ch):
        # Every point lies far beyond the cutoff of every Gaussian, so the
        # pair list is empty and no parameter moves the loss. RuntimeWarning
        # is an error under this suite's settings.
        rng = np.random.default_rng(81)
        p = 5
        theta = self.random_theta(rng, p, ch)
        pts = rng.uniform(100.0, 110.0, (16, 3))
        labs = np.arange(16) % (ch + 1 if model == "probabilistic" else ch)
        loss, grad = _loss_and_grad(theta, p, ch, pts, labs, model, 25.0)
        assert np.isfinite(loss)
        assert grad.shape == theta.shape
        assert np.all(grad == 0.0)

    def test_public_wrappers_agree_with_core(self):
        rng = np.random.default_rng(80)
        gt = tiny_grid([((3, 3, 3), 1), ((5, 5, 5), 2)])
        gs = random_gaussian_set(rng, 3, 3, spread=3.0)
        gs = GaussianSet(
            means=np.abs(gs.means),
            scales=gs.scales,
            rotations=gs.rotations,
            opacities=gs.opacities,
            logits=gs.logits,
        )
        pv = ParamVector.encode(gs)
        pts = gt.spec.all_centers()[:32]
        loss = fit_loss(pv, gt, pts)
        grad = fit_grad(pv, gt, pts)
        core_loss, core_grad = _loss_and_grad(
            pv.values.copy(), 3, 3, pts, gt.labels_at_points(pts), "probabilistic", 25.0
        )
        assert loss == core_loss
        np.testing.assert_array_equal(grad, core_grad)

    @pytest.mark.parametrize("wrapper", [fit_loss, fit_grad], ids=["fit_loss", "fit_grad"])
    @pytest.mark.parametrize(
        "points,message",
        [
            ([[0.0, 0.0, np.nan], [1.0, 1.0, 1.0]], r"query point 0 is not finite: \[0.0, 0.0, nan\]"),
            ([[1.0, 1.0, 1.0], [1.0, -np.inf, 1.0]], r"query point 1 is not finite"),
            (np.ones((4, 2)), r"query points must be an \(N, 3\) array, got shape \(4, 2\)"),
            (np.empty((0, 3)), r"sample_points must hold at least one point"),
        ],
        ids=["nan-row", "inf-row", "shape-4x2", "empty"],
    )
    def test_bad_sample_points_rejected(self, wrapper, points, message):
        gt = tiny_grid([((3, 3, 3), 1), ((5, 5, 5), 2)])
        pv = ParamVector.encode(random_gaussian_set(np.random.default_rng(82), 16, 3, spread=3.0))
        with pytest.raises(ValueError, match=message):
            wrapper(pv, gt, points)

    def test_descent_step_reduces_loss(self):
        successes = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            p, ch, n = 3, 3, 12
            theta = self.random_theta(rng, p, ch)
            pts = rng.uniform(-2, 2, (n, 3))
            labs = rng.integers(0, ch + 1, n)
            loss, grad = _loss_and_grad(theta, p, ch, pts, labs, "probabilistic", np.inf)
            step = 1e-4 / max(1.0, float(np.max(np.abs(grad))))
            new_loss, _ = _loss_and_grad(
                theta - step * grad, p, ch, pts, labs, "probabilistic", np.inf, want_grad=False
            )
            successes += new_loss < loss
        assert successes >= 95


class TestQuaternionGradient:
    @staticmethod
    def random_k(rng, p):
        a = rng.normal(size=(p, 3, 3))
        uu = a + a.transpose(0, 2, 1)
        s = 10.0 ** rng.uniform(-3, 3, size=(p, 3))
        return s[:, :, None] * uu / s[:, None, :]

    @staticmethod
    def assert_matches_jacobian_path(k, q):
        qnorm = np.linalg.norm(q, axis=1)
        qn = q / qnorm[:, None]
        got = _quaternion_grad(k, qn, qnorm)
        want, scale = jacobian_quaternion_grad(k, qn, qnorm)
        tol = QUAT_GRAD_RTOL * np.max(np.abs(want), axis=1) + 8 * _LD_EPS * scale
        err = np.max(np.abs(got - want), axis=1)
        assert np.all(err <= tol), np.max(err / np.where(tol > 0, tol, 1.0))

    def test_equals_the_jacobian_path(self):
        rng = np.random.default_rng(180)
        p = 2000
        q = rng.normal(size=(p, 4))
        q *= (10.0 ** rng.uniform(-3, 3, size=p) / np.linalg.norm(q, axis=1))[:, None]
        self.assert_matches_jacobian_path(self.random_k(rng, p), q)

    @pytest.mark.parametrize("quat", [
        (0.0, 0.3, -0.5, 0.8),   # w = 0
        (1.0, 0.0, 0.0, 0.0),    # w = 1
        (-1.0, 0.0, 0.0, 0.0),   # w = -1
        (0.0, 1.0, 0.0, 0.0),    # one non-zero vector component
        (0.0, 0.0, -1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ])
    @pytest.mark.parametrize("norm", [1e-3, 1.0, 1e3])
    def test_degenerate_quaternions(self, quat, norm):
        rng = np.random.default_rng(181)
        p = 64
        q = np.tile(np.array(quat) / np.linalg.norm(quat) * norm, (p, 1))
        self.assert_matches_jacobian_path(self.random_k(rng, p), q)

    @pytest.mark.parametrize("model", ["probabilistic", "additive"])
    @pytest.mark.parametrize("cutoff", [25.0, np.inf])
    def test_loss_and_grad_against_the_jacobian_path(self, model, cutoff, monkeypatch):
        # The torque form moves the quaternion columns by rounding only;
        # the loss and every other gradient entry keep their bits.
        module = importlib.import_module("gaussocc.fit")
        c = 4
        ch = c - 1 if model == "probabilistic" else c
        for seed in range(26):
            rng = np.random.default_rng([183, seed])
            p, n = int(rng.integers(4, 64)), int(rng.integers(64, 384))
            blk = np.empty((p, 11 + ch))
            blk[:, 0:3] = rng.uniform(-4, 4, size=(p, 3))
            blk[:, 3:6] = np.log(rng.uniform(0.2, 2.0, size=(p, 3)))
            q = rng.normal(size=(p, 4))
            blk[:, 6:10] = q * (10.0 ** rng.uniform(-3, 3, size=p) / np.linalg.norm(q, axis=1))[:, None]
            blk[:, 10] = rng.normal(size=p)
            blk[:, 11:] = rng.normal(0, 2, size=(p, ch))
            args = (blk.reshape(-1), p, ch, rng.uniform(-5, 5, size=(n, 3)), rng.integers(0, c, size=n),
                    model, cutoff)
            loss, grad = _loss_and_grad(*args)
            scales = []
            with monkeypatch.context() as m:
                def reference(k, qn, qnorm):
                    g, scale = jacobian_quaternion_grad(k, qn, qnorm)
                    scales.append(scale)
                    return g

                m.setattr(module, "_quaternion_grad", reference)
                want_loss, want = _loss_and_grad(*args)
            assert loss == want_loss
            grad, want = grad.reshape(p, -1), want.reshape(p, -1)
            other = np.r_[0:6, 10 : 11 + ch]
            assert grad[:, other].tobytes() == want[:, other].tobytes()
            tol = QUAT_GRAD_RTOL * np.max(np.abs(want)) + 8 * _LD_EPS * np.max(scales[0]) / n
            assert np.max(np.abs(grad[:, 6:10] - want[:, 6:10])) <= tol


class TestFitLoop:
    def test_reproducible_loss_trace(self, mini_street):
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=16, iterations=25, batch_points=128, seed=5, eval_every=25)
        a = fit(grid, cfg)
        b = fit(grid, cfg)
        np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
        np.testing.assert_array_equal(a.gaussians.means, b.gaussians.means)

    def test_each_step_gets_a_fresh_unchanged_array(self, mini_street, monkeypatch):
        grid, _ = mini_street
        module = importlib.import_module("gaussocc.fit")
        real = module._loss_and_grad
        passed = []

        def recording(theta, *args, **kwargs):
            passed.append((theta, theta.copy()))
            return real(theta, *args, **kwargs)

        monkeypatch.setattr(module, "_loss_and_grad", recording)
        fit(grid, FitConfig(num_gaussians=8, iterations=4, batch_points=64, seed=2, eval_every=4))
        assert len(passed) == 4
        for theta, snapshot in passed:
            assert np.array_equal(theta, snapshot)
        for (a, _), (b, _) in combinations(passed, 2):
            assert not np.shares_memory(a, b)

    # Recorded before the quaternion gradient took its closed torque form:
    # (model, cutoff) -> losses at iterations 1, 10, 20 and 30, final IoU
    # and final mIoU of a seed-3 fit of 32 Gaussians.
    TRAJECTORIES = {
        ("probabilistic", 25.0): ((6.024854559928512, 3.5708725795968914, 2.370592278097475, 2.362982426189037),
                                  0.08068158489016629, 0.11637828258119354),
        ("probabilistic", None): ((4.569105462724702, 3.153762337320798, 2.3776576285159194, 2.3391725945173105),
                                  0.0740968801313629, 0.1132100062247121),
        ("additive", 25.0): ((1.5381180901387632, 1.4934835948878868, 1.4470238871358092, 1.4568687694141562),
                             0.37190915432912175, 0.2000037937106271),
        ("additive", None): ((1.5381176188195558, 1.4934819022025407, 1.4470207891742701, 1.4568658495413613),
                             0.18984375, 0.10710931836197048),
    }

    @pytest.mark.parametrize("model, cutoff", list(TRAJECTORIES), ids=lambda v: str(v))
    def test_short_fit_trajectory_is_pinned(self, mini_street, model, cutoff):
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=32, iterations=30, eval_every=10, seed=3, model=model,
                        cutoff_mahalanobis_sq=cutoff)
        result = fit(grid, cfg)
        losses, final_iou, final_miou = self.TRAJECTORIES[model, cutoff]
        np.testing.assert_allclose(result.loss_trace[[0, 9, 19, 29]], losses, rtol=1e-9)
        np.testing.assert_allclose([result.final_iou, result.final_miou], [final_iou, final_miou], rtol=1e-9)

    def test_each_evaluation_builds_one_confusion_matrix(self, mini_street, monkeypatch):
        grid, _ = mini_street
        module = importlib.import_module("gaussocc.fit")
        real_cm, real_eval = ConfusionMatrix.from_grids, module._evaluate
        calls = {"cm": 0, "eval": 0}

        def counting_cm(pred, gt):
            calls["cm"] += 1
            return real_cm(pred, gt)

        def counting_eval(*args):
            calls["eval"] += 1
            return real_eval(*args)

        monkeypatch.setattr(ConfusionMatrix, "from_grids", staticmethod(counting_cm))
        monkeypatch.setattr(module, "_evaluate", counting_eval)
        fit(grid, FitConfig(num_gaussians=8, iterations=6, batch_points=64, seed=2, eval_every=2))
        assert calls == {"cm": 4, "eval": 4}

    def test_quaternion_gradient_is_tangent(self):
        # The analytic gradient of a free quaternion lies in the tangent
        # space of its direction: radial moves cannot change the loss.
        rng = np.random.default_rng(81)
        gt = tiny_grid([((3, 3, 3), 1), ((5, 5, 5), 2)])
        gs = random_gaussian_set(rng, 4, 3, spread=3.0)
        gs = GaussianSet(
            means=np.abs(gs.means),
            scales=gs.scales,
            rotations=gs.rotations,
            opacities=gs.opacities,
            logits=gs.logits,
        )
        pv = ParamVector.encode(gs)
        pts = gt.spec.all_centers()[::17]
        grad = fit_grad(pv, gt, pts).reshape(4, 14)
        quats = pv.values.reshape(4, 14)[:, 6:10]
        radial = np.sum(quats * grad[:, 6:10], axis=1)
        np.testing.assert_allclose(radial, 0.0, atol=1e-12)

    def test_quaternion_norm_drift_is_bounded(self, mini_street):
        # Replicates the fit update loop (tangent-projected gradients,
        # preconditioned step, per-step renormalization) and watches the
        # raw quaternion norms.
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=24, iterations=150, batch_points=256, seed=6, eval_every=150)
        from gaussocc.fit import _SamplePools, _stream

        pv0 = ParamVector.encode(init_from_grid(grid, cfg))
        theta = pv0.values.copy()
        pools = _SamplePools(grid)
        rng = _stream(cfg.seed, 2)
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        worst = 0.0
        for t in range(cfg.iterations):
            pts, labs = pools.draw(cfg.batch_points, cfg.occupied_ratio, rng)
            _, g = _loss_and_grad(theta, 24, 4, pts, labs, cfg.model, 25.0)
            lr = 0.5 * cfg.learning_rate * (1 + np.cos(np.pi * t / (cfg.iterations - 1)))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= lr * (m / (1 - 0.9 ** (t + 1))) / (np.sqrt(v / (1 - 0.999 ** (t + 1))) + 1e-8)
            quats = theta.reshape(24, 15)[:, 6:10]
            quats /= np.linalg.norm(quats, axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(np.linalg.norm(quats, axis=1) - 1.0))))
        assert worst < 1e-3

    def test_fit_improves_over_initialization(self, mini_street):
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=256, iterations=300, seed=0, eval_every=300)
        result = fit(grid, cfg)
        start = result.metrics_trace[0]
        end = result.metrics_trace[-1]
        assert end[1] > start[1]  # IoU strictly improves
        assert end[2] > start[2]  # mIoU strictly improves

    def test_divergence_fails_fast(self, mini_street):
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=16, iterations=50, batch_points=128, learning_rate=1e4)
        with pytest.raises(ValueError, match="diverged at iteration 0: non-finite parameters in scales"):
            fit(grid, cfg)

    def test_random_init_policy(self, mini_street):
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=32, iterations=1, init="random", seed=7)
        gs = random_init(grid, cfg)
        assert len(gs) == 32
        assert np.all(gs.means >= grid.spec.min_corner) and np.all(gs.means <= grid.spec.max_corner)
        np.testing.assert_array_equal(gs.logits, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(occupied_ratio=0.0)
        with pytest.raises(ValueError):
            FitConfig(model="learned")
        with pytest.raises(ValueError):
            FitConfig(init="fps")
        with pytest.raises(ValueError):
            FitConfig(iterations=0)
        with pytest.raises(ValueError, match="seed"):
            FitConfig(seed=-1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", np.nan),
            ("learning_rate", np.inf),
            ("lr_min", np.inf),
            ("weight_decay", np.nan),
            ("init_logit_scale", -np.inf),
            ("cutoff_mahalanobis_sq", np.nan),
        ],
    )
    def test_non_finite_config_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            FitConfig(**{key: value})

    def test_seed_beyond_uint64_rejected(self):
        FitConfig(seed=2**64 - 1)
        with pytest.raises(ValueError, match=r"seed must be >= 0 and < 2\*\*64"):
            FitConfig(seed=2**64)

    def test_infinite_cutoff_accepted(self):
        assert FitConfig(cutoff_mahalanobis_sq=np.inf).cutoff_mahalanobis_sq == np.inf

    def test_config_file_round_trip(self, tmp_path):
        from gaussocc.io import write_key_values

        cfg = FitConfig(num_gaussians=32, iterations=10, model="additive", init="random", seed=3)
        path = tmp_path / "fit.cfg"
        write_key_values(path, cfg.to_dict())
        again = FitConfig.from_file(path)
        assert again == cfg

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "fit.cfg"
        path.write_text("gaussians=12\n")
        with pytest.raises(ValueError, match="unknown fit config key"):
            FitConfig.from_file(path)
