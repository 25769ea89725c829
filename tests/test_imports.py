"""The package imports without scipy; only the audit's nearest-distance
search loads it. The benchmark's imports and wrap targets resolve."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

from gaussocc.field import softmax

_SRC = Path(__file__).resolve().parent.parent / "src"
_PERFBENCH = _SRC.parent / "perfbench"

# Runs in a fresh interpreter: this test process has imported scipy itself.
_CHILD = """
import sys

import numpy as np

import gaussocc.cli

print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

from gaussocc.core import GaussianSet
from gaussocc.grid import GridSpec, VoxelGrid
from gaussocc.metrics import mean_nearest_dist

labels = np.zeros((4, 4, 4), dtype=np.uint16)
labels[1, 2, 3] = 1
spec = GridSpec(np.zeros(3), np.full(3, 4.0), np.array([4, 4, 4]), 2)
gs = GaussianSet(
    means=np.array([[1.5, 2.5, 3.5], [0.0, 0.0, 0.0]]),
    scales=np.ones((2, 3)),
    rotations=np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
    opacities=np.ones(2),
    logits=np.zeros((2, 1)),
)
print(mean_nearest_dist(gs, VoxelGrid(spec=spec, labels=labels)))
"""


def test_cli_import_loads_no_scipy_and_nearest_dist_still_works():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    modules, dist = proc.stdout.splitlines()
    assert modules == "[]"
    # The one occupied center is (1.5, 2.5, 3.5): L1 distances 0 and 7.5.
    assert float(dist) == 3.75


def test_softmax_is_bit_identical_to_scipy():
    rng = np.random.default_rng(7)
    for magnitude in (1.0, 10.0, 100.0, 700.0):
        logits = rng.uniform(-magnitude, magnitude, size=(20_000, 5))
        assert np.array_equal(softmax(logits), scipy.special.softmax(logits, axis=1))


def test_perfbench_imports_and_wrap_targets_resolve(monkeypatch):
    # A rename of a name the benchmark uses fails here, not only in a
    # benchmark run.
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    for module_name, path, _, _ in spans.LIBRARY_WRAPS + spans.CLI_WRAPS:
        target = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{path}"
