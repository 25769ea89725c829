"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py 0 19

Runs set-up and one repetition of every workload for each seed in the
inclusive range and writes ``perfbench/reference.json``. Run it only on a
commit whose outputs are known to be right: later commits are checked
against what it records.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    first, last = (int(v) for v in sys.argv[1:3])
    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS, Context

    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in range(first, last + 1):
        for name, cls in WORKLOADS.items():
            workdir = run.ROOT / ".perfbench" / f"record-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                ctx = Context(root=run.ROOT, seed=seed, tracer=Tracer(enabled=False), workdir=workdir)
                workload = cls()
                inputs = workload.setup(ctx)
                out = workload.body(ctx, inputs)
                table.setdefault(name, {})[str(seed)] = workload.observe(ctx, inputs, out)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {name} seed {seed}", flush=True)
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
