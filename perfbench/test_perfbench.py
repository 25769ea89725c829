"""Self-checks of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The coverage tests run every workload briefly, untraced and traced, and
require exactly the metrics ``BENCHMARK.json`` names, each with its unit;
together they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_every_wrap_target_exists():
    tracer = spans.Tracer()
    try:
        spans.install_wraps(tracer, spans.LIBRARY_WRAPS + spans.CLI_WRAPS)
        assert len(tracer._patches) == len(spans.LIBRARY_WRAPS) + len(spans.CLI_WRAPS)
    finally:
        tracer.restore()


def test_layer_metrics_prefer_repetitions_and_subtract_children():
    def rec(name, phase, group, t0, t1, parent=None, **counts):
        return {"name": name, "phase": phase, "group": group, "parent": parent, "t0": t0, "t1": t1,
                "rss0": 0.0, "rss1": 0.0, "counts": counts}

    recorded = [
        rec("fit.fit", "rep", 0, 0.0, 10.0),
        rec("fit.loss_grad", "rep", 0, 1.0, 3.0, parent=0, pairs=100, live=5),
        rec("fit.eval", "rep", 0, 4.0, 8.0, parent=0),
        rec("fit.loss_grad", "probe", 0, 20.0, 30.0, pairs=100, live=50),
        rec("grid.voxelize_1t", "rep", 0, 10.0, 15.0),
        rec("grid.voxelize_1t", "probe", 0, 30.0, 31.0),
        rec("grid.voxelize_2t", "probe", 0, 31.0, 31.5),
        rec("grid.voxelize_1t", "probe", 0, 31.5, 32.5),
        rec("grid.voxelize_2t", "probe", 0, 32.5, 33.0),
    ]
    metrics = spans.layer_metrics(recorded)
    assert metrics["fit.self_s"] == (4.0, "s")
    # The thread comparison: both figures from the probe, one call each.
    assert metrics["grid.voxelize_1t_s"] == (1.0, "s")
    assert metrics["grid.voxelize_2t_s"] == (0.5, "s")
    assert metrics["fit.eval_s"] == (4.0, "s")
    assert metrics["fit.loss_grad_ms_p50"] == (2000.0, "ms")
    assert metrics["pairs.live_frac"] == (0.05, "ratio")
    assert metrics["metrics.audit_s"] == (0.0, "s")


def test_counting_is_left_out_of_spans_and_worker_threads_are_untraced():
    def slow_count(args, result):
        time.sleep(0.3)
        return {"pairs": 10, "live": 1}

    owner = types.SimpleNamespace(step=lambda: time.sleep(0.01))
    tracer = spans.Tracer()
    tracer.enter("rep", 0)
    tracer.wrap(owner, "step", "fit.loss_grad", slow_count)
    try:
        start = tracer.clock()
        with tracer.span("fit.fit"):
            owner.step()
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(owner.step).result()
        elapsed = tracer.clock() - start
    finally:
        tracer.restore()
    assert [s["name"] for s in tracer.spans] == ["fit.fit", "fit.loss_grad"]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["pairs.live_frac"] == (0.1, "ratio")
    # The 0.3 s count is in neither the parent span nor the workload clock;
    # the untraced worker-thread call is in the parent's own time.
    assert 0.01 <= metrics["fit.self_s"][0] < 0.2
    assert elapsed < 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "fit-street", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
