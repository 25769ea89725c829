"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-street --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics from spans around the calls into each
module. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine facts. The full record (per-repetition times, check
results, spans) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_REPS = 2
# Stop starting repetitions after this long, so a slow machine still ends
# the run well inside its three minutes.
DEADLINE_S = 140.0


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable cores (at most 2) for this
    process and every subprocess; must run before numpy is imported."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _read_first(path: Path, default: str = "") -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return default


def machine_facts(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    mem_kb = next((int(line.split()[1]) for line in _read_first(Path("/proc/meminfo")).splitlines()
                   if line.startswith("MemTotal:")), 0)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_first(index / "level"), _read_first(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read_first(index / "size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "gaussocc" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'gaussocc'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills a running CLI child and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = perf_counter()
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import numpy as np  # noqa: F401  (timed as part of set-up)
    import gaussocc

    import_s = perf_counter() - t0
    if Path(gaussocc.__file__).resolve().parent != ROOT / "src" / "gaussocc":
        print(f"perfbench: imported gaussocc from {gaussocc.__file__}, not this checkout", file=sys.stderr)
        return 2

    from spans import LIBRARY_WRAPS, Tracer, install_wraps, layer_metrics
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    tracer = Tracer(enabled=bool(args.trace))
    if tracer.enabled:
        install_wraps(tracer, LIBRARY_WRAPS)
    ref_file = Path(__file__).resolve().parent / "reference.json"
    recorded = json.loads(ref_file.read_text()) if ref_file.exists() else {}
    reference = recorded.get(workload.name, {}).get(str(args.seed))
    if reference is None:
        print(f"perfbench: warning: no reference outputs recorded for {workload.name} seed {args.seed}; "
              "only the seed-independent checks run", file=sys.stderr)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=ROOT, seed=args.seed, tracer=tracer, workdir=workdir, reference=reference)

    attempted = failed = 0
    peak_rss_mb = 0.0
    checks: list[dict] = []
    reps: list[dict] = []
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            tracer.enter("setup", k)
            t = perf_counter()
            inputs = workload.setup(ctx)
            setup_times.append(perf_counter() - t)

        first = None
        loop_start = perf_counter()
        while True:
            k = len(reps)
            tracer.enter("rep", k)
            attempted += workload.ops_per_rep
            try:
                out = workload.body(ctx, inputs)
            except Exception:
                traceback.print_exc()
                failed += workload.ops_per_rep
                break
            if k == 0:
                # Before the checks, whose cross-path voxelizes are not part
                # of the workload.
                peak_rss_mb = workload.peak_rss_mb()
            tracer.enter("check", k)
            try:
                voxelize_times = out["voxelize_s"] + workload.resample(ctx, inputs, out)
                results = workload.check(ctx, inputs, out, first)
            except Exception:
                traceback.print_exc()
                attempted += 1
                failed += 1
                break
            for name, problem in results:
                checks.append({"rep": k, "check": name, "ok": problem is None, "detail": problem})
                if problem is not None:
                    print(f"perfbench: check {name} failed: {problem}", file=sys.stderr)
            attempted += len(results)
            failed += sum(problem is not None for _, problem in results)
            reps.append({"run_s": out["run_s"], "voxelize_s": voxelize_times, "miou": out.get("miou")})
            first = first or out
            now = perf_counter()
            if len(reps) >= MIN_REPS and (now - loop_start >= args.seconds or now - started >= DEADLINE_S):
                break
        if tracer.enabled and reps:
            tracer.enter("probe", 0)
            workload.probe(ctx, inputs, first)
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    def median(key):
        values = [v for r in reps for v in (r[key] if isinstance(r[key], list) else [r[key]]) if v is not None]
        return statistics.median(values) if values else 0.0

    if tracer.enabled:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics(tracer.spans).items()}
        metrics["quality.miou"] = {"value": median("miou"), "unit": "ratio"}
        metrics["trace.run_s"] = {"value": median("run_s"), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": median("run_s"), "unit": "s"},
            "voxelize_s": {"value": median("voxelize_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    correct = bool(reps) and failed == 0
    machine = machine_facts(blas_threads)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "reference_recorded": reference is not None, "import_s": import_s,
        "setup_times": setup_times, "reps": reps, "checks": checks, "metrics": metrics,
        "spans": tracer.spans,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
