"""One benchmark iteration in a fresh interpreter.

Times the import of ``pcosync.cli``, then runs a workload's command lines
through ``pcosync.cli.main`` and writes its measurements as JSON to
``<out-dir>/result.json``.  With ``--trace 1`` the layer wrappers are
installed after the timed import and the per-layer summary is added.
``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=Path, help="traced runs: write the spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    start = time.perf_counter()
    import pcosync.cli
    setup_s = time.perf_counter() - start

    import numpy
    import scipy

    if not Path(pcosync.cli.__file__).resolve().is_relative_to(SRC):
        print(f"pcosync imported from {pcosync.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = {
        "setup_s": setup_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }

    if args.workload:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        commands = WORKLOADS[args.workload].commands
        argvs = [c.full_argv(args.out_dir, args.seed) for c in commands]
        start = time.perf_counter()
        codes = [pcosync.cli.main(argv) for argv in argvs]
        wall_s = time.perf_counter() - start
        result.update(
            wall_s=wall_s,
            exit_codes=codes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracer.summary(wall_s)
            if args.spans:
                tracer.dump(args.spans)

    (args.out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
