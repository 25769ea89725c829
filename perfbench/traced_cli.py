"""Run one ``gaussocc`` subcommand with spans around its calls into each
module, and write the spans as JSON.

    python3 perfbench/traced_cli.py SPANS.json SUBCOMMAND [ARGS...]

The traced cli-pipeline run starts this in place of ``python -m
gaussocc.cli``; the exit code is the subcommand's.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import gaussocc.cli

    import_s = perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.enter("rep", 0)
    spans.install_wraps(tracer, spans.LIBRARY_WRAPS + spans.CLI_WRAPS)
    code = gaussocc.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "count_s": tracer.paused_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
