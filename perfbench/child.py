"""One benchmark repetition in a fresh interpreter.

Usage (started by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --spawn <perf_counter at spawn> --out <dir>
        [--trace <spans.json>] <config> [<config> ...]

Imports ``kmaxwell.cli`` (which applies ``KMAXWELL_THREADS`` before numpy
loads), parses every config and builds its grid and metric, then runs the
suites in order through ``cli.run``, each into ``<dir>/<experiment>``.  With
``--trace`` the layer wrappers are installed around the suite runs only, and
the spans are written to the given file afterwards.

Prints one JSON line: the timings (also per suite), the thread caps in
effect and, when traced, the per-layer metrics; the verdicts are in the
manifests.  An exception inside a suite is reported, not raised.
"""

import argparse
import json
import os
import resource
import time
import traceback
from pathlib import Path

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args()

    import kmaxwell
    from kmaxwell import cli

    cfgs = [cli.parse_config(path) for path in args.configs]
    for cfg in cfgs:
        cli.build_grid(cfg)
        cli.build_metric(cfg)
    setup_s = time.perf_counter() - args.spawn

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(kmaxwell)
    error, suites = None, {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for cfg in cfgs:
            start = time.perf_counter()
            cli.run(cfg, Path(args.out) / cfg.experiment)
            suites[cfg.experiment] = time.perf_counter() - start
    except Exception:  # a crashed suite is a failed run, reported to the parent
        error = traceback.format_exc()
    run_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "suites": suites,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        "threads": {
            var: os.environ.get(var)
            for var in ("KMAXWELL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(run_s)
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
