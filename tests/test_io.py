"""File format round trips."""

import json

import numpy as np
import pytest

from gaussocc.core import GaussianSet
from gaussocc.io import (
    format_number,
    load_camera,
    load_gaussian_set,
    read_key_values,
    save_camera,
    save_gaussian_set,
    write_key_values,
    write_ppm,
    write_report,
)
from gaussocc.rays import CameraModel

from conftest import random_gaussian_set


class TestGaussianSetFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        gs = random_gaussian_set(rng, 12, 5)
        path = tmp_path / "set.gsocc"
        save_gaussian_set(path, gs)
        back = load_gaussian_set(path)
        # 17 significant digits round-trips doubles exactly
        np.testing.assert_array_equal(back.means, gs.means)
        np.testing.assert_array_equal(back.scales, gs.scales)
        np.testing.assert_array_equal(back.rotations, gs.rotations)
        np.testing.assert_array_equal(back.opacities, gs.opacities)
        np.testing.assert_array_equal(back.logits, gs.logits)

    def test_save_load_save_gives_the_same_bytes(self, tmp_path):
        gs = random_gaussian_set(np.random.default_rng(1), 1000, 4)
        first, second = tmp_path / "first.gsocc", tmp_path / "second.gsocc"
        save_gaussian_set(first, gs)
        save_gaussian_set(second, load_gaussian_set(first))
        assert second.read_bytes() == first.read_bytes()

    def test_bytes_equal_the_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(92)
        gs = random_gaussian_set(rng, 9, 4)
        means, opacities, logits = gs.means.copy(), gs.opacities.copy(), gs.logits.copy()
        means[2] = [1e300, -1e-300, 0.1]
        opacities[0] = 0.0
        logits[1, 0] = -0.0
        gs = GaussianSet(means, gs.scales, gs.rotations, opacities, logits)
        path = tmp_path / "set.gsocc"
        save_gaussian_set(path, gs)
        want = ["GSOCC 1 9 4\n"]
        for i in range(len(gs)):
            row = np.concatenate([gs.means[i], gs.scales[i], gs.rotations[i], [gs.opacities[i]], gs.logits[i]])
            want.append(" ".join(format_number(v) for v in row) + "\n")
        assert path.read_bytes() == "".join(want).encode("ascii")

    def test_header_contents(self, tmp_path):
        rng = np.random.default_rng(91)
        gs = random_gaussian_set(rng, 3, 2)
        path = tmp_path / "set.gsocc"
        save_gaussian_set(path, gs)
        assert path.read_text().splitlines()[0] == "GSOCC 1 3 2"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.gsocc"
        path.write_text("GSPLAT 1 1 1\n0 0 0 1 1 1 1 0 0 0 1 0\n")
        with pytest.raises(ValueError, match="GSOCC"):
            load_gaussian_set(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.gsocc"
        path.write_text("GSOCC 1 1 2\n0 0 0 1 1 1 1 0 0 0 1\n")
        with pytest.raises(ValueError):
            load_gaussian_set(path)


class TestCameraFile:
    def test_round_trip(self, tmp_path):
        angle = 0.3
        pose = np.eye(4)
        pose[:3, :3] = np.array(
            [[np.cos(angle), -np.sin(angle), 0], [np.sin(angle), np.cos(angle), 0], [0, 0, 1]]
        )
        pose[:3, 3] = [0.5, -1.5, 2.0]
        cam = CameraModel(
            intrinsics=np.array([[100.0, 0, 32.5], [0, 95.0, 24.5], [0, 0, 1]]),
            pose=pose,
            image_size=(64, 48),
        )
        path = tmp_path / "cam.txt"
        save_camera(path, cam)
        back = load_camera(path)
        np.testing.assert_array_equal(back.intrinsics, cam.intrinsics)
        np.testing.assert_array_equal(back.pose, cam.pose)
        assert back.image_size == cam.image_size

    def test_wrong_line_count_rejected(self, tmp_path):
        path = tmp_path / "cam.txt"
        path.write_text("100 100 32 24\n64 48\n")
        with pytest.raises(ValueError, match="6 lines"):
            load_camera(path)


class TestKeyValues:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("# a comment\nalpha = 1.5\nname=probabilistic  # trailing\n\n")
        assert read_key_values(path) == {"alpha": "1.5", "name": "probabilistic"}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            read_key_values(path)

    def test_write_formats_floats_exactly(self, tmp_path):
        path = tmp_path / "out.cfg"
        value = 0.1 + 0.2
        write_key_values(path, {"x": value, "n": 7})
        parsed = read_key_values(path)
        assert float(parsed["x"]) == value
        assert parsed["n"] == "7"


class TestReports:
    def test_flat_report(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(path, {"iou": 0.5, "count": 3})
        assert path.read_text() == "iou=0.5\ncount=3\n"

    def test_json_report(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"iou": 0.5, "count": 3})
        assert json.loads(path.read_text()) == {"iou": 0.5, "count": 3}

    def test_json_report_writes_non_finite_as_null(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"iou_1": np.float64("nan"), "ratio": float("inf"), "miou": 0.25, "count": np.int64(2)})
        # A strict parser: NaN and Infinity are not JSON.
        assert json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name)) == {
            "iou_1": None, "ratio": None, "miou": 0.25, "count": 2}
        # All-finite reports keep their bytes.
        write_report(path, {"iou": 0.5, "count": 3})
        assert path.read_text() == '{\n  "count": 3,\n  "iou": 0.5\n}\n'
        flat = tmp_path / "report.txt"
        write_report(flat, {"iou_1": float("nan"), "ratio": float("-inf")})
        assert flat.read_text() == "iou_1=nan\nratio=-inf\n"


class TestPpm:
    def test_header_and_payload(self, tmp_path):
        img = np.zeros((2, 3, 3), dtype=np.uint8)
        img[0, 0] = (255, 0, 0)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert data[11:] == img.tobytes()

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


class TestFormatNumber:
    def test_integers_stay_short(self):
        assert format_number(3) == "3"
        assert format_number(np.int64(-2)) == "-2"

    def test_floats_round_trip(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.pi):
            assert float(format_number(x)) == x
