"""Parameter encoding, initialization, loss/gradient math and the fit loop."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from gaussocc.core import GaussianSet
from gaussocc.field import EvalOptions, FieldEvaluator
from gaussocc.fit import (
    FitConfig,
    ParamVector,
    _loss_and_grad,
    fit,
    fit_grad,
    fit_loss,
    fps_init,
    init_from_grid,
    random_init,
)
from gaussocc.grid import GridSpec, VoxelGrid

from conftest import random_gaussian_set

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

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            ParamVector(values=np.zeros(10), num_gaussians=2, num_channels=3)


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
        def norm_loop(points, k, first):  # the greedy loop the column kernel replaced
            chosen = np.empty(k, dtype=np.int64)
            chosen[0] = first
            dist = np.linalg.norm(points - points[first], axis=1)
            for i in range(1, k):
                nxt = int(np.argmax(dist))
                chosen[i] = nxt
                dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
            return chosen

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
        got = fps_init(pts, k, seed, batched=batched)
        with mock.patch.object(importlib.import_module("gaussocc.fit"), "_greedy_fps", norm_loop):
            expected = fps_init(pts, k, seed, batched=batched)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

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

    @pytest.mark.parametrize("model,ch", [("probabilistic", 3), ("additive", 4)])
    def test_matches_finite_differences(self, model, ch):
        rng = np.random.default_rng(77)
        p, n = 4, 8
        theta = self.random_theta(rng, p, ch)
        pts = rng.uniform(-2, 2, (n, 3))
        labs = rng.integers(0, (ch if model == "probabilistic" else ch - 1) + 1, n)
        _, grad = _loss_and_grad(theta, p, ch, pts, labs, model, np.inf)
        fd = fd_gradient(theta, p, ch, pts, labs, model, np.inf)
        abs_err, rel_err = grad_errors(grad, fd)
        assert np.all((rel_err <= 1e-4) | (abs_err <= 1e-7))

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


class TestFitLoop:
    def test_reproducible_loss_trace(self, mini_street):
        grid, _ = mini_street
        cfg = FitConfig(num_gaussians=16, iterations=25, batch_points=128, seed=5, eval_every=25)
        a = fit(grid, cfg)
        b = fit(grid, cfg)
        np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
        np.testing.assert_array_equal(a.gaussians.means, b.gaussians.means)

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
