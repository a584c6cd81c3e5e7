"""Recompute the pinned digests of simulated statistics in ``pins.json``.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py --seeds 0-31 [--workload NAME ...]

Runs one untraced iteration per (workload, seed) and records its digest.
Pins describe the simulator's outputs at the commit that wrote them; a
change meant only to speed up the simulator must leave them all matching.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, metavar="FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))

    run.prepare()
    pinned = {}
    for workload in args.workload or run.WORKLOADS:
        pinned[workload] = {}
        for seed in range(first, last + 1):
            record = run.run_iteration(workload, seed, None, seed)
            if record["errors"]:
                run.log(f"{workload} seed {seed} is incorrect: "
                        f"{record['errors']}")
                return 1
            pinned[workload][str(seed)] = record["digest"]
            run.log(f"{workload} seed {seed}: wall {record['wall_s']:.3f}s "
                    f"paper_dev_frac {record['paper_dev_frac']:.4f} "
                    f"peak_rss_mb {record['peak_rss_mb']:.1f}")
    path = run.HERE / "pins.json"
    pins = run.load_json(path)
    for workload, digests in pinned.items():
        pins.setdefault(workload, {}).update(digests)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
