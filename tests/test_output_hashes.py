"""The output-hash tool: two runs on one tree agree, and a compare names
what differs."""

import base64
import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_hashes", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_agree_and_a_compare_finds_no_difference(tool, tmp_path, capsys):
    # The hashes depend on the BLAS, so they are compared with each other,
    # never pinned.
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert tool.main(["--size", "small", "--out", str(path)]) == 0
    a, b = (json.loads(p.read_text()) for p in paths)
    assert a == b
    names = a["entries"]
    for prefix in ("synth/odd/", "synth/kitti360/", "fps/nuscenes/", "fps/kitti360/", "voxelize/none",
                   "voxelize_legacy/25", "field/none/points/", "field/25/centers/legacy_labels",
                   *(f"field/large/{key}/points/{method}" for key in ("25", "none") for method in tool.FIELD_METHODS),
                   "utilization_report",
                   "loss/additive/none/", "grad/probabilistic/25/", "fit/additive/25/", "rays/inside/directions",
                   "rays/inside/labels", "rays/outside/directions", "rays/outside/labels",
                   *(f"cli/fit/{model}/{out}" for model in ("probabilistic", "additive") for out in ("gsocc", "trace")),
                   *(f"cli/{cmd}/{model}/report.{ext}" for cmd in ("eval", "audit")
                     for model in ("probabilistic", "additive") for ext in ("txt", "json")),
                   "cli/slice/x", "cli/slice/y", "cli/slice/z"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert set(a["gradients"]) == {name for name in names if name.startswith("grad/")}
    assert tool.main(["--compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out.strip() == f"0 of {len(names)} entries differ"


def test_compare_lists_changed_and_missing_entries(tool):
    grad = np.array([4.0, -2.0, 1.0])
    a = {"size": "small", "numpy": "x", "entries": {"loss/x": "0x1p+0", "grad/x": "h", "field/x": "h"},
         "gradients": {"grad/x": base64.b64encode(grad.tobytes()).decode()}}
    b = copy.deepcopy(a)
    b["entries"]["grad/x"] = "other"
    b["gradients"]["grad/x"] = base64.b64encode((grad + [0.0, 0.002, 0.0]).tobytes()).decode()
    del b["entries"]["field/x"]
    b["entries"]["loss/x"] = "0x1.0000000000001p+0"
    assert tool.compare(a, b) == [
        "field/x: only in the first file",
        "grad/x: differs (max |a - b| / max |a| = 5.000e-04)",
        "loss/x: differs",
    ]


def test_compare_reads_only_the_two_files(tmp_path):
    # Run as a script with no PYTHONPATH, so gaussocc is not importable.
    a = {"size": "small", "numpy": "x", "entries": {"loss/x": "0x1p+0", "field/x": "h"}, "gradients": {}}
    b = copy.deepcopy(a)
    b["entries"]["field/x"] = "other"
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, content in zip(paths, (a, b)):
        path.write_text(json.dumps(content))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for pair, code, last in ((paths, 1, "1 of 2 entries differ"), (paths[:1] * 2, 0, "0 of 2 entries differ")):
        done = subprocess.run([sys.executable, str(_TOOL), "--compare", *map(str, pair)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout.splitlines()[-1:]) == (code, [last]), done.stderr


def test_exact_entries_keep_their_bits_under_a_dgemm_kernel_without_fma(tool, tmp_path):
    # OpenBLAS picks its dgemm kernel per CPU at run time; Nehalem's has no
    # FMA, so float outputs may move by rounding. The order-free entries
    # (labels, voxelizations, synth scenes, picks, slices) must not.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(_TOOL.parents[1] / "src")
    runs = []
    for leg in ({}, {"OPENBLAS_CORETYPE": "Nehalem"}):
        out = tmp_path / f"run{len(runs)}.json"
        done = subprocess.run([sys.executable, str(_TOOL), "--size", "small", "--out", str(out)], env={**env, **leg},
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(out.read_text())["entries"])
    default, nehalem = runs
    assert default.keys() == nehalem.keys()
    changed = sorted(name for name in default if default[name] != nehalem[name])
    assert [name for name in changed if tool.exact(name)] == []
    if not changed:
        pytest.skip("the OPENBLAS_CORETYPE=Nehalem leg changed no float entry, so it did not reach another dgemm kernel")
