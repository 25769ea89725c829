"""End-to-end command-line behavior."""

import json
import warnings

import numpy as np
import pytest

from gaussocc.cli import main
from gaussocc.core import GaussianPrimitive, GaussianSet
from gaussocc.grid import load_grid, save_grid
from gaussocc.io import (
    load_gaussian_set,
    read_key_values,
    save_camera,
    save_gaussian_set,
    write_key_values,
)
from gaussocc.metrics import ConfusionMatrix, iou, miou, utilization_report
from gaussocc.rays import CameraModel, RaySampling, camera_rays, occupancy_labels, pixel_ray, ray_reference_points
from gaussocc.grid import voxelize, voxelize_legacy
from gaussocc.fit import FitConfig, init_from_grid
from gaussocc.scenes import synth_scene

from conftest import traced_peak


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "street.ogrid"
    assert run("synth", "--recipe", "mini-street", "--seed", "0", "--out", path) == 0
    return path


class TestSynth:
    def test_header_of_default_scene(self, tmp_path):
        out = tmp_path / "scene.ogrid"
        assert run("synth", "--out", out) == 0
        assert out.read_text().splitlines()[0].startswith("OGRID 1 40 40 16 5")

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.ogrid", tmp_path / "b.ogrid"
        assert run("synth", "--seed", 7, "--out", a) == 0
        assert run("synth", "--seed", 7, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_recipe_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--recipe", "metropolis", "--out", tmp_path / "x.ogrid")
        assert exc.value.code == 2
        assert "metropolis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--out", "x.ogrid"),
            ("fit", "--gt", "x.ogrid", "--out", "x.gsocc"),
            ("audit", "--gaussians", "x.gsocc", "--gt", "x.ogrid", "--report", "x.txt"),
        ],
    )
    def test_negative_seed_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", -1)
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--out", "x.ogrid"),
            ("fit", "--gt", "x.ogrid", "--out", "x.gsocc"),
            ("audit", "--gaussians", "x.gsocc", "--gt", "x.ogrid", "--report", "x.txt"),
        ],
    )
    def test_seed_beyond_uint64_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", 2**64)
        assert exc.value.code == 2
        assert "seed must be >= 0 and < 2**64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--gt", "x.ogrid", "--out", "x.gsocc", "--iterations", 0),
            ("fit", "--gt", "x.ogrid", "--out", "x.gsocc", "--gaussians", -2),
            ("audit", "--gaussians", "x.gsocc", "--gt", "x.ogrid", "--report", "x.txt", "--mc-samples", 0),
        ],
    )
    def test_non_positive_count_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "must be an integer >= 1, got " in capsys.readouterr().err

    def test_binary_flag(self, tmp_path):
        out = tmp_path / "scene.ogrid"
        assert run("synth", "--binary", "--out", out) == 0
        grid = load_grid(out)
        assert grid.spec.num_voxels == 40 * 40 * 16

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (("--max", "inf", 10, 10), "max_corner must be finite"),
            # -(10**308) prints as digits only, which argparse reads as a number.
            (("--min", *[-(10**308)] * 3, "--max", 1e308, 1e308, 1e308),
             "max_corner - min_corner must be finite"),
        ],
    )
    def test_non_finite_extent_is_runtime_error(self, bounds, message, tmp_path, capsys):
        out = tmp_path / "x.ogrid"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("synth", *bounds, "--res", 4, 4, 4, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_voxel_count_beyond_int64_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "x.ogrid"
        assert run("synth", "--res", 2**32, 2**32, 1, "--out", out) == 1
        assert "more voxels than an int64 can count" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_exponent_numbers_are_values(self, tmp_path):
        paths = []
        for i, corner in enumerate([(-10, -10, 0), ("-1e1", "-1.0E+1", 0), ("-.1e2", "-10e0", "0e0")]):
            paths.append(tmp_path / f"{i}.ogrid")
            assert run("synth", "--min", *corner, "--res", 4, 4, 4, "--out", paths[-1]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NaN"])
    def test_negative_special_values_reach_the_finite_check(self, value, tmp_path, capsys):
        # Read as values, not options: the corner check rejects them, as it
        # rejects "--max inf".
        out = tmp_path / "y.ogrid"
        assert run("synth", "--min", value, 0, 0, "--res", 4, 4, 4, "--out", out) == 1
        err = capsys.readouterr().err
        assert "min_corner must be finite" in err
        assert "expected 3 arguments" not in err
        assert not out.exists()


class TestRemovedOptions:
    @pytest.mark.parametrize("flags", [("--threads", 2), ("--deterministic",)])
    def test_global_option_is_usage_error(self, flags, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*flags, "synth", "--out", tmp_path / "x.ogrid")
        assert exc.value.code == 2
        assert "gaussocc: error:" in capsys.readouterr().err
        assert not (tmp_path / "x.ogrid").exists()

    def test_eval_neighbor_index_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "eval", "--pred-gaussians", tmp_path / "x.gsocc", "--gt", tmp_path / "x.ogrid",
                "--report", tmp_path / "x.txt", "--neighbor-index",
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --neighbor-index" in capsys.readouterr().err

    def test_eval_model_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "eval", "--pred-gaussians", tmp_path / "x.gsocc", "--gt", tmp_path / "x.ogrid",
                "--report", tmp_path / "x.txt", "--model", "additive",
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --model additive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [(), ("eval",)])
    def test_help_lists_none(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--threads", "--deterministic", "--neighbor-index"):
            assert flag not in out


class TestFit:
    def test_smoke_run_and_round_trip(self, scene_file, tmp_path):
        import time

        out = tmp_path / "set.gsocc"
        trace = tmp_path / "trace.csv"
        start = time.time()
        assert (
            run(
                "fit", "--gt", scene_file, "--out", out, "--trace", trace,
                "--gaussians", 16, "--iterations", 50, "--seed", 1,
            )
            == 0
        )
        assert time.time() - start < 30.0
        rows = trace.read_text().splitlines()
        assert rows[0] == "iteration,loss,iou,miou"
        assert len(rows) == 51
        final = rows[-1].split(",")
        # re-evaluate the written set; must match the trace's final metrics
        gs = load_gaussian_set(out)
        gt = load_grid(scene_file)
        pred = voxelize(gs, gt.spec)
        assert iou(pred, gt) == pytest.approx(float(final[2]), abs=1e-9)
        assert miou(pred, gt) == pytest.approx(float(final[3]), abs=1e-9)

    def test_model_flag_changes_channels_and_trace(self, scene_file, tmp_path):
        prob_out, add_out = tmp_path / "p.gsocc", tmp_path / "a.gsocc"
        prob_tr, add_tr = tmp_path / "p.csv", tmp_path / "a.csv"
        for model, out, tr in (("probabilistic", prob_out, prob_tr), ("additive", add_out, add_tr)):
            assert (
                run(
                    "fit", "--gt", scene_file, "--out", out, "--trace", tr,
                    "--model", model, "--gaussians", 32, "--iterations", 150, "--seed", 2,
                )
                == 0
            )
        assert load_gaussian_set(prob_out).num_classes == 4
        assert load_gaussian_set(add_out).num_classes == 5
        assert prob_tr.read_text() != add_tr.read_text()

        def tail_loss(path):
            rows = path.read_text().splitlines()[1:]
            return float(np.mean([float(r.split(",")[1]) for r in rows[-10:]]))

        assert tail_loss(prob_tr) < tail_loss(add_tr)

    def test_config_file_drives_run(self, scene_file, tmp_path):
        cfg = FitConfig(num_gaussians=8, iterations=20, batch_points=128, seed=3)
        cfg_path = tmp_path / "fit.cfg"
        write_key_values(cfg_path, cfg.to_dict())
        out = tmp_path / "set.gsocc"
        assert run("fit", "--gt", scene_file, "--config", cfg_path, "--out", out) == 0
        assert len(load_gaussian_set(out)) == 8

    def test_flags_override_config_file(self, scene_file, tmp_path):
        cfg_path = tmp_path / "fit.cfg"
        write_key_values(cfg_path, FitConfig(num_gaussians=8, iterations=20, batch_points=64).to_dict())
        trace = tmp_path / "trace.csv"
        argv = ["fit", "--gt", scene_file, "--config", cfg_path, "--out", tmp_path / "set.gsocc"]
        assert run(*argv, "--iterations", 3, "--gaussians", 5, "--trace", trace) == 0
        assert len(load_gaussian_set(tmp_path / "set.gsocc")) == 5
        assert [row.split(",")[0] for row in trace.read_text().splitlines()] == ["iteration", "1", "2", "3"]

    def test_missing_gt_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--out", tmp_path / "x.gsocc")
        assert exc.value.code == 2

    def test_unreadable_gt_is_runtime_error(self, tmp_path, capsys):
        assert run("fit", "--gt", tmp_path / "missing.ogrid", "--out", tmp_path / "x.gsocc") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["learning_rate", "weight_decay", "cutoff_mahalanobis_sq"])
    def test_nan_config_value_is_runtime_error(self, scene_file, tmp_path, capsys, key):
        cfg_path = tmp_path / "fit.cfg"
        cfg_path.write_text(f"iterations=2\n{key}=nan\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", "--gt", scene_file, "--config", cfg_path, "--out", tmp_path / "x.gsocc") == 1
        assert f"error: {cfg_path}: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "x.gsocc").exists()


class TestEval:
    def test_perfect_set_scores_one(self, tmp_path):
        grid, _ = synth_scene(0, recipe="single-box")
        gt_path = tmp_path / "box.ogrid"
        save_grid(gt_path, grid)
        # one sharp Gaussian per occupied voxel reproduces the grid exactly
        prims = [
            GaussianPrimitive(
                mean=c, scale=(0.2, 0.2, 0.2), rotation=(1, 0, 0, 0), opacity=1.0,
                semantics=5.0 * np.eye(4)[int(l) - 1],
            )
            for c, l in zip(grid.occupied_centers(), grid.occupied_labels())
        ]
        set_path = tmp_path / "exact.gsocc"
        save_gaussian_set(set_path, GaussianSet.from_primitives(prims))
        report = tmp_path / "report.txt"
        assert run("eval", "--pred-gaussians", set_path, "--gt", gt_path, "--report", report) == 0
        values = read_key_values(report)
        assert float(values["iou"]) == 1.0
        assert float(values["miou"]) == 1.0

    def test_report_schema_and_library_agreement(self, scene_file, tmp_path):
        gt = load_grid(scene_file)
        gs = init_from_grid(gt, FitConfig(num_gaussians=64, iterations=1, seed=4))
        set_path = tmp_path / "init.gsocc"
        save_gaussian_set(set_path, gs)
        report = tmp_path / "report.txt"
        assert run("eval", "--pred-gaussians", set_path, "--gt", scene_file, "--report", report) == 0
        values = read_key_values(report)
        assert set(values) == {"iou", "miou", "iou_1", "iou_2", "iou_3", "iou_4"}
        pred = voxelize(gs, gt.spec)
        assert float(values["iou"]) == iou(pred, gt)
        assert float(values["miou"]) == miou(pred, gt)

    def test_eval_builds_one_confusion_matrix(self, scene_file, tmp_path, monkeypatch):
        gt = load_grid(scene_file)
        set_path = tmp_path / "init.gsocc"
        save_gaussian_set(set_path, init_from_grid(gt, FitConfig(num_gaussians=64, iterations=1, seed=4)))
        real = ConfusionMatrix.from_grids
        calls = []

        def counting(pred, gt):
            calls.append(1)
            return real(pred, gt)

        monkeypatch.setattr(ConfusionMatrix, "from_grids", staticmethod(counting))
        assert run("eval", "--pred-gaussians", set_path, "--gt", scene_file, "--report", tmp_path / "r.txt") == 0
        assert len(calls) == 1

    def test_channel_count_picks_the_additive_model(self, scene_file, tmp_path):
        gt = load_grid(scene_file)
        cfg = FitConfig(model="additive", num_gaussians=64, iterations=1, seed=4)
        gs = init_from_grid(gt, cfg)
        assert gs.num_classes == gt.spec.num_classes_total
        set_path = tmp_path / "additive.gsocc"
        save_gaussian_set(set_path, gs)
        report = tmp_path / "report.txt"
        assert run("eval", "--pred-gaussians", set_path, "--gt", scene_file, "--report", report) == 0
        values = read_key_values(report)
        pred = voxelize_legacy(gs, gt.spec)
        assert float(values["iou"]) == iou(pred, gt)
        assert float(values["miou"]) == miou(pred, gt)

    def test_other_channel_count_is_runtime_error(self, scene_file, tmp_path, capsys):
        gt = load_grid(scene_file)
        c = gt.spec.num_classes_total - 1
        gs = GaussianSet.from_primitives(
            [GaussianPrimitive(mean=(0.0, 0.0, 1.0), scale=(1.0, 1.0, 1.0), rotation=(1, 0, 0, 0),
                               opacity=1.0, semantics=np.zeros(c + 2))]
        )
        set_path = tmp_path / "wide.gsocc"
        save_gaussian_set(set_path, gs)
        report = tmp_path / "report.txt"
        assert run("eval", "--pred-gaussians", set_path, "--gt", scene_file, "--report", report) == 1
        err = capsys.readouterr().err
        assert f"set has {c + 2} channels" in err
        assert "accepts C (probabilistic) or C+1 (additive)" in err
        assert not report.exists()


class TestAudit:
    def test_grid_init_scores_perfect_positions(self, scene_file, tmp_path):
        gt = load_grid(scene_file)
        gs = init_from_grid(gt, FitConfig(num_gaussians=32, iterations=1, seed=5))
        set_path = tmp_path / "init.gsocc"
        save_gaussian_set(set_path, gs)
        report = tmp_path / "audit.txt"
        assert (
            run(
                "audit", "--gaussians", set_path, "--gt", scene_file,
                "--mc-samples", 50_000, "--seed", 6, "--report", report,
            )
            == 0
        )
        values = read_key_values(report)
        assert float(values["perc_correct"]) == 100.0
        assert float(values["mean_dist"]) == 0.0

    def test_coincident_duplicates_indiv(self, scene_file, tmp_path):
        g = GaussianPrimitive(
            mean=(0, 0, 1), scale=(1, 1, 1), rotation=(1, 0, 0, 0), opacity=1.0,
            semantics=(5.0, 0.0, 0.0, 0.0),
        )
        gs = GaussianSet.from_primitives([g] * 6)
        set_path = tmp_path / "dup.gsocc"
        save_gaussian_set(set_path, gs)
        report = tmp_path / "audit.txt"
        assert (
            run(
                "audit", "--gaussians", set_path, "--gt", scene_file,
                "--mc-samples", 20_000, "--seed", 7, "--report", report,
            )
            == 0
        )
        assert float(read_key_values(report)["indiv_overlap"]) == pytest.approx(5.0, abs=1e-9)

    def test_same_seed_identical_bytes(self, scene_file, tmp_path):
        gt = load_grid(scene_file)
        gs = init_from_grid(gt, FitConfig(num_gaussians=16, iterations=1, seed=8))
        set_path = tmp_path / "set.gsocc"
        save_gaussian_set(set_path, gs)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert (
                run(
                    "audit", "--gaussians", set_path, "--gt", scene_file,
                    "--mc-samples", 30_000, "--seed", 9, "--report", out,
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_keys_and_library_agreement(self, scene_file, tmp_path):
        gt = load_grid(scene_file)
        gs = init_from_grid(gt, FitConfig(num_gaussians=16, iterations=1, seed=8))
        set_path = tmp_path / "set.gsocc"
        save_gaussian_set(set_path, gs)
        report = tmp_path / "audit.json"
        assert (
            run(
                "audit", "--gaussians", set_path, "--gt", scene_file,
                "--mc-samples", 30_000, "--seed", 9, "--report", report,
            )
            == 0
        )
        values = json.loads(report.read_text())
        rep = utilization_report(gs, gt, mc_samples=30_000, seed=9)
        assert values == {
            "perc_correct": rep.perc_correct,
            "mean_dist": rep.mean_dist,
            "overall_overlap": rep.overall_overlap,
            "indiv_overlap": rep.indiv_overlap,
            "mc_samples": 30_000,
            "seed": 9,
            "mc_stderr": rep.mc_stderr,
        }
        assert 0.0 < rep.mc_stderr < 0.01

    def test_overflowing_scale_is_runtime_error(self, scene_file, tmp_path, capsys):
        g = GaussianPrimitive(
            mean=(0, 0, 1), scale=(1e160, 1, 1), rotation=(1, 0, 0, 0), opacity=1.0,
            semantics=(5.0, 0.0, 0.0, 0.0),
        )
        set_path = tmp_path / "huge.gsocc"
        save_gaussian_set(set_path, GaussianSet.from_primitives([g]))
        code = run(
            "audit", "--gaussians", set_path, "--gt", scene_file,
            "--mc-samples", 1000, "--report", tmp_path / "audit.txt",
        )
        assert code == 1
        assert "non-finite cutoff box" in capsys.readouterr().err


def _street_camera(width, height, position=(-9.0, 0.5, 1.7), pitch=0.0, focal=None):
    # By default the camera stands inside the mini-street grid and looks
    # along +x with a wide view, so rays partly leave it; pitch tilts it down.
    pose = np.eye(4)
    pose[:3, 0] = [0.0, -1.0, 0.0]
    pose[:3, 1] = [-np.sin(pitch), 0.0, -np.cos(pitch)]
    pose[:3, 2] = [np.cos(pitch), 0.0, -np.sin(pitch)]
    pose[:3, 3] = position
    f = 30.0 * width / 80 if focal is None else focal
    return CameraModel(
        intrinsics=np.array([[f, 0, width / 2], [0, f, height / 2], [0, 0, 1]]),
        pose=pose,
        image_size=(width, height),
    )


class TestRays:
    def _camera(self, path):
        cam = CameraModel(
            intrinsics=np.array([[20.0, 0, 8.0], [0, 20.0, 6.0], [0, 0, 1]]),
            pose=np.eye(4),
            image_size=(16, 12),
        )
        save_camera(path, cam)
        return cam

    def test_empty_grid_all_zero(self, tmp_path):
        from gaussocc.grid import GridSpec, VoxelGrid

        spec = GridSpec(
            min_corner=np.array([-4.0, -4.0, 0.0]),
            max_corner=np.array([4.0, 4.0, 8.0]),
            resolution=np.array([8, 8, 8]),
            num_classes_total=2,
        )
        gt_path = tmp_path / "empty.ogrid"
        save_grid(gt_path, VoxelGrid(spec=spec, labels=np.zeros(512, dtype=np.uint16)))
        cam_path = tmp_path / "cam.txt"
        self._camera(cam_path)
        out = tmp_path / "labels.txt"
        assert (
            run(
                "rays", "--camera", cam_path, "--gt", gt_path, "--out", out,
                "--depth-min", 0.5, "--depth-max", 7.5, "--num-refs", 16,
            )
            == 0
        )
        rows = out.read_text().splitlines()
        assert len(rows) == 16 * 12
        assert all(row == " ".join(["0"] * 16) for row in rows)

    def test_row_schema_on_scene(self, scene_file, tmp_path):
        cam_path = tmp_path / "cam.txt"
        self._camera(cam_path)
        out = tmp_path / "labels.txt"
        assert (
            run(
                "rays", "--camera", cam_path, "--gt", scene_file, "--out", out,
                "--depth-min", 1.0, "--depth-max", 18.0, "--num-refs", 24,
            )
            == 0
        )
        rows = [r.split() for r in out.read_text().splitlines()]
        assert len(rows) == 16 * 12
        assert all(len(r) == 24 and set(r) <= {"0", "1"} for r in rows)

    # case -> (camera, depth_min, depth_max, num_refs). The streamed
    # blocks hold 2**18 // num_refs pixels.
    _CASES = {
        # 80 x 60 = 4800 rays: two blocks, of 4096 rays and 704, at 64 references.
        64: (_street_camera(80, 60), 1.0, 12.0, 64),
        2: (_street_camera(80, 60), 1.0, 12.0, 2),
        # Outside the grid, tilted down: rays enter it through its -x face.
        "outside": (_street_camera(80, 60, position=(-16.0, 0.5, 4.0), pitch=0.15), 1.0, 40.0, 64),
        # A focal length of 1e30 makes every ray +x to within 1e-28, and the
        # origin and the 0.5 m depth steps put every sample exactly on voxel
        # faces of all three axes (the grid has 0.5 m voxels from -10, -10, 0).
        "faces": (_street_camera(40, 30, position=(-10.0, 5.0, 1.0), focal=1e30), 0.5, 20.5, 41),
        # 241 x 17 = 4097 rays: the first block ends inside row 16, and the
        # last block is one pixel.
        "block-in-row": (_street_camera(241, 17), 1.0, 12.0, 64),
    }

    @pytest.mark.parametrize("case", list(_CASES))
    def test_bytes_match_per_row_formatting(self, scene_file, tmp_path, case):
        cam, depth_min, depth_max, num_refs = self._CASES[case]
        cam_path = tmp_path / "cam.txt"
        save_camera(cam_path, cam)
        out = tmp_path / "labels.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "rays", "--camera", cam_path, "--gt", scene_file, "--out", out,
                "--depth-min", depth_min, "--depth-max", depth_max, "--num-refs", num_refs,
            )
        assert code == 0
        origin, dirs = camera_rays(cam)
        depths = RaySampling(depth_min=depth_min, depth_max=depth_max, num_refs=num_refs).depths
        pts = (origin[None, None, :] + depths[None, :, None] * dirs[:, None, :]).reshape(-1, 3)
        gt = load_grid(scene_file)
        inside = gt.spec.voxel_index(pts.T.copy()) < gt.spec.num_voxels
        assert inside.any() and not inside.all()
        if case == "faces":
            rel = (pts - gt.spec.min_corner) / gt.spec.voxel_size
            assert np.array_equal(rel, np.round(rel))
        labels = occupancy_labels(pts, gt).reshape(cam.width * cam.height, num_refs)
        assert labels.any() and not labels.all()
        if case in (64, 2):
            assert labels[:4096].any() and labels[4096:].any()
        want = "".join(" ".join(str(int(v)) for v in row) + "\n" for row in labels)
        assert out.read_bytes() == want.encode("ascii")

    @pytest.mark.parametrize("case", ["rotated", "faces"])
    def test_pixel_ray_labels_match_the_file_rows(self, scene_file, tmp_path, case):
        # The labels one pixel's ray gives through the library are that
        # pixel's row of the file, digit for digit.
        if case == "rotated":
            rng = np.random.default_rng(19)
            rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            pose = np.eye(4)
            pose[:3, :3] = rot * np.sign(np.linalg.det(rot))
            pose[:3, 3] = [-4.0, 1.5, 2.5]
            cam = CameraModel(intrinsics=np.array([[30.0, 0, 40.0], [0, 30.0, 30.0], [0, 0, 1]]), pose=pose,
                              image_size=(80, 60))
            sampling = RaySampling(depth_min=1.0, depth_max=12.0, num_refs=64)
        else:
            cam, depth_min, depth_max, num_refs = self._CASES["faces"]
            sampling = RaySampling(depth_min=depth_min, depth_max=depth_max, num_refs=num_refs)
        cam_path = tmp_path / "cam.txt"
        save_camera(cam_path, cam)
        out = tmp_path / "labels.txt"
        assert run(
            "rays", "--camera", cam_path, "--gt", scene_file, "--out", out, "--depth-min", sampling.depth_min,
            "--depth-max", sampling.depth_max, "--num-refs", sampling.num_refs,
        ) == 0
        text = out.read_text()
        assert "0" in text and "1" in text
        rows = text.splitlines()
        assert len(rows) == cam.width * cam.height
        gt = load_grid(scene_file)
        for v in range(cam.height):
            for u in range(cam.width):
                labels = occupancy_labels(ray_reference_points(*pixel_ray(cam, u, v), sampling), gt)
                assert " ".join(map(str, labels)) == rows[v * cam.width + u], (u, v)

    def test_memory_does_not_grow_with_the_image(self, scene_file, tmp_path):
        # Pixels are labelled in ranges of about 2**18 samples, so a 16 times
        # larger image keeps the same peak.
        peaks = []
        for width, height in ((160, 120), (640, 480)):
            cam_path = tmp_path / f"cam{width}.txt"
            save_camera(cam_path, _street_camera(width, height))
            code, peak = traced_peak(lambda: run(
                "rays", "--camera", cam_path, "--gt", scene_file, "--out", tmp_path / "labels.txt",
                "--depth-min", 1.0, "--depth-max", 12.0, "--num-refs", 64,
            ))
            assert code == 0
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 2**20, peaks

    def test_many_refs_keep_memory_bounded(self, scene_file, tmp_path):
        # 3072 rays x 1000 references: the rays are labelled in blocks of
        # about 2**18 points, not of a fixed ray count.
        cam = _street_camera(64, 48)
        cam_path = tmp_path / "cam.txt"
        save_camera(cam_path, cam)
        out = tmp_path / "labels.txt"
        code, peak = traced_peak(lambda: run(
            "rays", "--camera", cam_path, "--gt", scene_file, "--out", out,
            "--depth-min", 1.0, "--depth-max", 12.0, "--num-refs", 1000,
        ))
        assert code == 0
        assert peak < 64 * 2**20
        origin, dirs = camera_rays(cam)
        depths = RaySampling(depth_min=1.0, depth_max=12.0, num_refs=1000).depths
        gt = load_grid(scene_file)
        text = np.frombuffer(out.read_bytes(), dtype=np.uint8).reshape(64 * 48, 2000)
        for start in range(0, dirs.shape[0], 256):
            block = dirs[start : start + 256]
            pts = (origin[None, None, :] + depths[None, :, None] * block[:, None, :]).reshape(-1, 3)
            want = occupancy_labels(pts, gt).reshape(block.shape[0], 1000)
            np.testing.assert_array_equal(text[start : start + 256, 0::2] - ord("0"), want)
        assert (text[:, 0::2] == ord("1")).any()

    @pytest.mark.parametrize("pose, message", [
        ("-1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", "pose rotation block must have det +1, not a reflection"),
        ("1 0 0 0\n0 1 0 0\n0 0 1 0\n1 2 3 4\n", "pose must be a 4x4 rigid transform with last row [0, 0, 0, 1]"),
    ], ids=["reflected", "last-row"])
    def test_improper_camera_pose_is_runtime_error(self, pose, message, scene_file, tmp_path, capsys):
        cam_path = tmp_path / "bad.cam"
        cam_path.write_text("20 20 8 6\n16 12\n" + pose)
        out = tmp_path / "labels.txt"
        assert run("rays", "--camera", cam_path, "--gt", scene_file, "--out", out) == 1
        assert f"error: {cam_path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("num_refs", [1, 0, -3])
    def test_fewer_than_two_refs_is_usage_error(self, num_refs, capsys):
        with pytest.raises(SystemExit) as exc:
            run("rays", "--camera", "cam.txt", "--gt", "x.ogrid", "--out", "x.txt", "--num-refs", num_refs)
        assert exc.value.code == 2
        assert f"argument --num-refs: num_refs must be an integer >= 2, got {num_refs}" in capsys.readouterr().err

    def test_non_finite_depth_is_runtime_error(self, scene_file, tmp_path, capsys):
        cam_path = tmp_path / "cam.txt"
        self._camera(cam_path)
        out = tmp_path / "labels.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "rays", "--camera", cam_path, "--gt", scene_file, "--out", out,
                "--depth-max", "inf",
            )
        assert code == 1
        assert "depths must be finite" in capsys.readouterr().err


class TestSlice:
    def test_dimensions_and_background(self, tmp_path):
        from gaussocc.grid import GridSpec, VoxelGrid

        spec = GridSpec(
            min_corner=np.zeros(3),
            max_corner=np.array([6.0, 5.0, 4.0]),
            resolution=np.array([6, 5, 4]),
            num_classes_total=3,
        )
        gt_path = tmp_path / "grid.ogrid"
        save_grid(gt_path, VoxelGrid(spec=spec, labels=np.zeros(120, dtype=np.uint16)))
        out = tmp_path / "slice.ppm"
        assert run("slice", "--grid", gt_path, "--axis", "z", "--index", 1, "--out", out) == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n6 5\n255\n")
        pixels = np.frombuffer(data[11:], dtype=np.uint8).reshape(5, 6, 3)
        assert np.all(pixels == pixels[0, 0])

    def test_palette_stable_across_runs(self, scene_file, tmp_path):
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        for out in (a, b):
            assert run("slice", "--grid", scene_file, "--axis", "z", "--index", 2, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_index_is_runtime_error(self, scene_file, tmp_path, capsys):
        assert (
            run("slice", "--grid", scene_file, "--axis", "z", "--index", 99, "--out", tmp_path / "x.ppm")
            == 1
        )
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("binary", [False, True])
    def test_out_of_range_label_names_the_file_and_the_label(self, tmp_path, capsys, binary):
        from gaussocc.grid import GridSpec, VoxelGrid

        spec = GridSpec(min_corner=np.zeros(3), max_corner=np.array([3.0, 2.0, 2.0]),
                        resolution=np.array([3, 2, 2]), num_classes_total=3)
        gt_path = tmp_path / "grid.ogrid"
        save_grid(gt_path, VoxelGrid(spec=spec, labels=np.zeros(12, dtype=np.uint16)), binary=binary)
        # Labels 7 and then 3 at flat voxels 5 and 9: (1, 0, 1) names the first.
        data = bytearray(gt_path.read_bytes())
        header_end = data.index(b"\n") + 1
        if binary:
            data[header_end + 10 : header_end + 12] = (7).to_bytes(2, "little")
            data[header_end + 18 : header_end + 20] = (3).to_bytes(2, "little")
        else:
            data[header_end:] = b"0 0 0 0 0 7 0 0 0 3 0 0\n"
        gt_path.write_bytes(bytes(data))
        assert run("slice", "--grid", gt_path, "--axis", "z", "--index", 0, "--out", tmp_path / "x.ppm") == 1
        err = capsys.readouterr().err
        assert f"{gt_path}: labels must lie in [0, num_classes_total) = [0, 3), got 7 at voxel (1, 0, 1)" in err
