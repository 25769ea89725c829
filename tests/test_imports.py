"""The package needs numpy alone: it imports no other third-party module,
and neither importing the CLI nor a real ``gaussocc audit`` run loads
scipy, which the tests use only as an oracle. The benchmark's imports and
wrap targets resolve, its wrapped layers record spans, and two of its
workloads reproduce their recorded reference outputs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from gaussocc.core import MIN_SCALE, rotation_matrices
from gaussocc.field import softmax
from gaussocc.grid import save_grid
from gaussocc.io import save_gaussian_set

from conftest import random_gaussian_set

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


def test_audit_run_loads_no_scipy(tmp_path, mini_street):
    gt, _ = mini_street
    rng = np.random.default_rng(4)
    save_grid(tmp_path / "gt.ogrid", gt)
    save_gaussian_set(tmp_path / "gs.gsocc", random_gaussian_set(rng, 64, gt.spec.num_classes_total))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # -X importtime lists every module the run imports on stderr.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gaussocc.cli", "audit", "--gaussians", "gs.gsocc",
         "--gt", "gt.ogrid", "--mc-samples", "2000", "--report", "audit.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "numpy" in imported and "gaussocc.metrics" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    assert "mean_dist" in (tmp_path / "audit.json").read_text()


def test_package_imports_no_third_party_module_but_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "gaussocc"}
    found = set()
    for path in sorted((_SRC / "gaussocc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {name for _, name in found} >= {"numpy", "__future__"}
    assert sorted((f, name) for f, name in found if name not in allowed) == []


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


def test_perfbench_wrapped_layers_record(monkeypatch, mini_street):
    # A layer whose call site stops going through the wrapped name records
    # nothing; this catches that, and pins the positional arguments the
    # loss+grad counter reads.
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    spans = importlib.import_module("spans")
    # The package namespace exports functions named like its modules.
    fit, field, metrics = (importlib.import_module(f"gaussocc.{m}") for m in ("fit", "field", "metrics"))
    calls = []
    loss_and_grad = fit._loss_and_grad

    def recording(*args, **kwargs):
        calls.append(args)
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(fit, "_loss_and_grad", recording)
    gt, _ = mini_street
    cfg = fit.FitConfig(num_gaussians=16, iterations=3, seed=3)
    tracer = spans.Tracer()
    try:
        spans.install_wraps(tracer, spans.LIBRARY_WRAPS)
        gs = fit.fit(gt, cfg).gaussians
        metrics.utilization_report(gs, gt, mc_samples=2000, seed=1)
        field.FieldEvaluator(gs).compose(gt.spec.all_centers()[:500])
    finally:
        tracer.restore()
    recorded = {rec["name"] for rec in tracer.spans}
    for name in (
        "fit.loss_grad", "fit.eval", "fit.init", "field.d2", "field.index_build",
        "metrics.mc_coverage", "metrics.indiv_overlap", "metrics.nearest_dist",
        "metrics.perc_correct", "field.compose",
    ):
        assert name in recorded, name
    counts = [rec["counts"] for rec in tracer.spans if rec["name"] == "fit.loss_grad"]
    assert len(counts) == len(calls) == cfg.iterations
    for args, count in zip(calls, counts):
        theta, p, ch, points, cutoff = args[0], args[1], args[2], args[3], args[6]
        assert count["pairs"] == p * cfg.batch_points
        blk = theta.reshape(p, 11 + ch)
        qn = blk[:, 6:10] / np.linalg.norm(blk[:, 6:10], axis=1, keepdims=True)
        scales = np.maximum(np.exp(blk[:, 3:6]), MIN_SCALE)
        live = field.live_pairs(points, blk[:, 0:3], rotation_matrices(qn), scales, cutoff)[2].size
        assert 0 < live < p * cfg.batch_points
        assert abs(count["live"] - live) <= 0.01 * live


def check_reference_outputs(monkeypatch, tmp_path, name: str, seed: int):
    """One repetition of a workload and its checks against the reference
    recorded for ``seed``."""
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    reference = json.loads((_PERFBENCH / "reference.json").read_text())[name][str(seed)]
    ctx = workloads.Context(root=_SRC.parent, seed=seed, tracer=spans.Tracer(enabled=False), workdir=tmp_path,
                            reference=reference)
    workload = workloads.WORKLOADS[name]()
    inputs = workload.setup(ctx)
    out = workload.body(ctx, inputs)
    workload.resample(ctx, inputs, out)
    checks = dict(workload.check(ctx, inputs, out, None))
    assert {f"reference-{key}" for key in reference} <= set(checks)
    assert {check: problem for check, problem in checks.items() if problem is not None} == {}


@pytest.mark.parametrize("name", ["audit-paper", "fit-street"])
def test_perfbench_reference_outputs_at_seed_0(monkeypatch, tmp_path, name):
    # A change that moves a voxel label hash, a Monte Carlo hit count or a
    # gradient fails here, not only in a benchmark run.
    check_reference_outputs(monkeypatch, tmp_path, name, 0)


def test_perfbench_audit_paper_reference_outputs_at_seed_1(monkeypatch, tmp_path):
    # A second generated paper-scale set pins the voxel label hash and the
    # Monte Carlo hits on other voxels.
    check_reference_outputs(monkeypatch, tmp_path, "audit-paper", 1)
