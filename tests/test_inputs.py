"""Counts and seeds: every library entry point applies the one count rule and
the one seed rule of ``gaussocc.core``."""

import numpy as np
import pytest

from gaussocc.core import seeded_stream
from gaussocc.field import FieldEvaluator
from gaussocc.fit import FitConfig, fps_init
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

