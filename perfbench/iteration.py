"""One iteration of a workload, in the fresh process ``run.py`` starts.

Runs the cold pass into an empty result cache, then warm passes that read
it back, and prints one JSON object: host timings, the counters the
end-to-end rates divide, peak memory of this process tree, the digest of
the simulated statistics and every correctness problem seen.
With ``--trace FILE`` every layer entry point is wrapped in a span (see
:mod:`tracing`), the record gains the per-layer metrics and the trace events
are written to ``FILE`` as Chrome trace-event JSON.

Usage: python3 perfbench/iteration.py --workload NAME --seed N --cache-dir DIR
       [--serial] [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

#: Warm passes per iteration: at least ``MIN_WARM_RERUNS``, more while they
#: total under ``WARM_RERUN_SECONDS``; their median is ``warm_rerun_s``.
MIN_WARM_RERUNS = 5
MAX_WARM_RERUNS = 50
WARM_RERUN_SECONDS = 0.5


def check_kernels() -> None:
    """Exit non-zero unless both native kernels loaded and self-tested."""
    from repro.native import _timecore, build
    from repro.workloads import _ffcore

    _timecore.load()
    _ffcore.load()
    for name in ("timecore", "ffcore"):
        status = build.status(name)
        if status is None or not status.available:
            reason = status.reason if status is not None else "never loaded"
            sys.exit(f"native kernel {name} is not running ({reason}); "
                     f"refusing to time the pure-Python fallback")


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children (pool workers)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True, type=Path)
    parser.add_argument("--serial", action="store_true",
                        help="one engine worker regardless of the workload")
    parser.add_argument("--trace", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    check_kernels()
    # Imported here, not at the top: setup_probe imports check_kernels from
    # this module and must time only the package import and kernel load.
    import tracing
    from workloads import WORKLOADS, digest, horizon_instructions, paper_deviation

    workload = WORKLOADS[args.workload]
    workers = 1 if args.serial or args.trace else None
    recorder = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    def set_tracing(on: bool) -> None:
        if recorder is not None:
            recorder.active = on

    try:
        set_tracing(True)
        cold = workload.run_pass(args.seed, args.cache_dir, workers,
                                 before_digest=lambda: set_tracing(False))
        warm_passes = []
        while len(warm_passes) < MIN_WARM_RERUNS or (
                sum(p.wall_s for p in warm_passes) < WARM_RERUN_SECONDS
                and len(warm_passes) < MAX_WARM_RERUNS):
            set_tracing(True)
            warm_passes.append(workload.run_pass(
                args.seed, args.cache_dir, workers,
                before_digest=lambda: set_tracing(False)))
    finally:
        shutil.rmtree(args.cache_dir, ignore_errors=True)

    errors = []
    cold_digest = digest(cold)
    resimulated = sum(p.simulated_cells for p in warm_passes)
    if resimulated:
        errors.append(f"warm reruns simulated {resimulated} cells instead of "
                      f"reading the cache")
    warm_mismatch = any(digest(p) != cold_digest for p in warm_passes)
    if warm_mismatch:
        errors.append("warm reruns' cached cells differ from the cold pass's "
                      "simulated cells")
    failed_cells = sum(1 for cell in cold.cells.values() if cell.failed)
    if cold.cell_failures or failed_cells:
        errors.append(f"{cold.cell_failures} quarantined cell failure(s), "
                      f"{failed_cells} placeholder cell(s)")
    if cold.simulated_cells != len(cold.cells):
        errors.append(f"cold pass simulated {cold.simulated_cells} of "
                      f"{len(cold.cells)} unique cells")
    errors.extend(f"degradation: {text}" for text in cold.degradations)
    deviation, exact_errors = paper_deviation(cold.checks)
    errors.extend(f"exact paper check failed: {text}" for text in exact_errors)

    cells = list(cold.cells.values())
    if warm_mismatch:
        # The digest covers the whole grid, so a mismatch fails every cell.
        failed_cells = len(cells)
    record = {
        "wall_s": cold.wall_s,
        "warm_rerun_s": statistics.median(p.wall_s for p in warm_passes),
        "total_wall_s": cold.wall_s + sum(p.wall_s for p in warm_passes),
        "cells": len(cells),
        "failed_cells": failed_cells,
        "grid_cells": cold.grid_cells,
        "horizon_insts": horizon_instructions(cold),
        "timed_uops": sum(cell.total_uops for cell in cells),
        "paper_dev_frac": deviation,
        "digest": cold_digest,
        "errors": errors,
        "model": {name: sum(getattr(cell, name) for cell in cells)
                  for name in ("cycles", "total_uops", "injected_uops",
                               "l1d_misses", "lock_cache_misses")},
        # Cold pass plus one warm pass: 0.5 when the cache serves the grid.
        "cache_hit_frac": (cold.cache_hits + warm_passes[0].cache_hits) / (
            cold.cache_hits + cold.cache_misses + warm_passes[0].cache_hits
            + warm_passes[0].cache_misses),
    }
    if recorder is not None:
        record["layers"] = tracing.layer_metrics(recorder,
                                                 record["total_wall_s"])
        recorder.write_trace(Path(args.trace))
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
