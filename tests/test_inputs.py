"""Counts, seeds, point arrays and boxes: every entry point, the CLI flags
included, applies the one rule of ``gaussocc.core`` for each, and raises its
message."""

import re

import numpy as np
import pytest

from gaussocc import cli
from gaussocc.core import seeded_stream
from gaussocc.field import FieldEvaluator
from gaussocc.fit import FitConfig, ParamVector, fit_loss, fps_init
from gaussocc.grid import GridSpec, VoxelGrid, voxel_center
from gaussocc.metrics import mc_coverage_volume, utilization_report
from gaussocc.rays import CameraModel, RaySampling
from gaussocc.scenes import synth_scene

from conftest import random_gaussian_set

GS = random_gaussian_set(np.random.default_rng(0), 3, 2)
BOX = (GS.means[0] - 0.01, GS.means[0] + 0.01)  # every sample hits Gaussian 0
SPEC = GridSpec(np.zeros(3), np.full(3, 4.0), np.array([4, 4, 4]), 3)
GRID = VoxelGrid(spec=SPEC, labels=np.ones(SPEC.num_voxels, dtype=np.uint16))

# (field name, lower bound, call with the count)
COUNTS = [
    *((name, 1, lambda v, name=name: FitConfig(**{name: v}))
      for name in ("num_gaussians", "iterations", "batch_points", "eval_every")),
    ("k", 1, lambda v: fps_init(np.zeros((4, 3)), v, seed=0)),
    ("resolution", 1, lambda v: GridSpec(np.zeros(3), np.ones(3), [4, v, 4], 3)),
    ("num_classes_total", 2, lambda v: GridSpec(np.zeros(3), np.ones(3), [4, 4, 4], v)),
    ("voxel index", 0, lambda v: voxel_center(SPEC, 1, v, 1)),
    ("num_refs", 2, lambda v: RaySampling(num_refs=v)),
    ("image_size", 1, lambda v: CameraModel(np.eye(3), np.eye(4), (4, v))),
    ("chunk", 1, lambda v: FieldEvaluator(GS, chunk=v)),
    ("mc_samples", 1, lambda v: mc_coverage_volume(GS, BOX, v, 0)),
]

SEEDS = {
    "seeded_stream": lambda s: seeded_stream(s, 0),
    "synth_scene": lambda s: synth_scene(s),
    "fps_init": lambda s: fps_init(np.zeros((4, 3)), 2, seed=s),
    "mc_coverage_volume": lambda s: mc_coverage_volume(GS, BOX, 10, s),
    "utilization_report": lambda s: utilization_report(GS, GRID, mc_samples=10, seed=s),
    "FitConfig": lambda s: FitConfig(seed=s),
}


@pytest.mark.parametrize("name, low, call", COUNTS, ids=[c[0] for c in COUNTS])
@pytest.mark.parametrize("kind", ["fraction", "bool", "numpy bool", "below"])
def test_bad_count_rejected_naming_the_field(name, low, call, kind):
    value = {"fraction": 2.5, "bool": True, "numpy bool": np.True_, "below": low - 1}[kind]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got "):
        call(value)


@pytest.mark.parametrize("name, low, call", COUNTS, ids=[c[0] for c in COUNTS])
def test_numpy_integer_count_accepted(name, low, call):
    call(np.int64(low))
    call(np.uint8(low + 1))


@pytest.mark.parametrize("call", SEEDS.values(), ids=SEEDS.keys())
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.True_], ids=["negative", "2**64", "1.5", "True", "np.True_"])
def test_bad_seed_rejected(call, seed):
    with pytest.raises(ValueError, match=r"^seed must be >= 0 and < 2\*\*64"):
        call(seed)


@pytest.mark.parametrize("call", SEEDS.values(), ids=SEEDS.keys())
def test_largest_numpy_seed_accepted(call):
    call(np.uint64(2**64 - 1))


def test_seeded_stream_keys_on_the_integer_value():
    a = seeded_stream(np.uint64(2**64 - 1), 3).random(4)
    b = seeded_stream(2**64 - 1, 3).random(4)
    assert a.tobytes() == b.tobytes()


# (entry point, call with an array of points); each takes an (N, 3) array.
POINTS = {
    **{f"FieldEvaluator.{m}": lambda pts, m=m: getattr(FieldEvaluator(GS), m)(pts)
       for m in ("alpha", "semantics", "compose", "legacy", "covered", "compose_labels", "legacy_labels")},
    "fit_loss": lambda pts: fit_loss(ParamVector.encode(GS), GRID, pts),
    "fps_init": lambda pts: fps_init(pts, 1, seed=0),
    "labels_at_points": lambda pts: GRID.labels_at_points(pts),
}
# The entry points whose points must also be finite; labels_at_points reads a
# non-finite point as empty.
FINITE_POINTS = {name: call for name, call in POINTS.items() if name != "labels_at_points"}


@pytest.mark.parametrize("call", POINTS.values(), ids=POINTS.keys())
@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2, 3, 3), (5,)])
def test_points_that_are_not_n_by_3_rejected(call, shape):
    want = re.escape(str(np.atleast_2d(np.zeros(shape)).shape))
    with pytest.raises(ValueError, match=rf"^query points must be an \(N, 3\) array, got shape {want}$"):
        call(np.zeros(shape))


@pytest.mark.parametrize("call", FINITE_POINTS.values(), ids=FINITE_POINTS.keys())
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected_naming_its_row(call, bad):
    pts = np.zeros((4, 3))
    pts[2, 1] = bad
    with pytest.raises(ValueError, match=rf"^query point 2 is not finite: \[0\.0, {bad}, 0\.0\]$"):
        call(pts)


# (entry point, call with a box's two corners)
BOXES = {
    "GridSpec": lambda lo, hi: GridSpec(lo, hi, [4, 4, 4], 3),
    "mc_coverage_volume": lambda lo, hi: mc_coverage_volume(GS, (lo, hi), 10, 0),
}


@pytest.mark.parametrize("call", BOXES.values(), ids=BOXES.keys())
@pytest.mark.parametrize("lo, hi, message", [
    ([0.0, 0.0], [1.0, 1.0, 1.0],
     r"^a box must be two 3-vectors \(min_corner, max_corner\), got shapes \[\(2,\), \(3,\)\]$"),
    ([0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]], r"^a box must be two 3-vectors .*got shapes \[\(3,\), \(1, 3\)\]$"),
    ([0.0, np.nan, 0.0], [1.0, 1.0, 1.0], r"^min_corner must be finite, got \[0\.0, nan, 0\.0\]$"),
    ([0.0, 0.0, 0.0], [1.0, 1.0, np.inf], r"^max_corner must be finite, got \[1\.0, 1\.0, inf\]$"),
    ([0.0, 0.0, 0.0], [1.0, 0.0, 1.0], r"^max_corner must exceed min_corner on every axis$"),
    ([-1e308, 0.0, 0.0], [1e308, 1.0, 1.0], r"^max_corner - min_corner must be finite on every axis$"),
], ids=["short", "2d", "nan", "inf", "flat", "overflowing-extent"])
def test_bad_box_rejected(call, lo, hi, message):
    with pytest.raises(ValueError, match=message):
        call(lo, hi)


@pytest.mark.parametrize("box", [(np.zeros(3),), (np.zeros(3), np.ones(3), np.ones(3))], ids=["1-tuple", "3-tuple"])
def test_scene_box_of_other_than_two_corners_rejected(box):
    with pytest.raises(ValueError, match=r"^a box must be two 3-vectors \(min_corner, max_corner\)"):
        mc_coverage_volume(GS, box, 10, 0)


# (flag, the library's name for it, lower bound, argv before the flag)
FLAGS = [
    ("--iterations", "iterations", 1, ["fit", "--gt", "x.ogrid", "--out", "x.gsocc"]),
    ("--gaussians", "num_gaussians", 1, ["fit", "--gt", "x.ogrid", "--out", "x.gsocc"]),
    ("--mc-samples", "mc_samples", 1, ["audit", "--gaussians", "x.gsocc", "--gt", "x.ogrid", "--report", "x.txt"]),
    ("--num-refs", "num_refs", 2, ["rays", "--camera", "x.cam", "--gt", "x.ogrid", "--out", "x.txt"]),
]


@pytest.mark.parametrize("flag, name, low, argv", FLAGS, ids=[f[0] for f in FLAGS])
@pytest.mark.parametrize("below", [1, 3])
def test_cli_count_below_its_bound_is_a_usage_error(flag, name, low, argv, below, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, str(low - below)])
    assert exc.value.code == 2
    assert f"argument {flag}: {name} must be an integer >= {low}, got {low - below}\n" in capsys.readouterr().err
