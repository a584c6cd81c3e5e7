"""The repository benchmark: three user-path workloads timed from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7-detail --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen and
``perfbench/predictions.json`` for which layer each one stresses):

* ``paper-stream`` — ``mcf-paper`` and ``lbm-paper`` over 100M-instruction
  horizons under a §9.1 schedule, streamed;
* ``suite-sweep`` — the whole registry at quick scale on 2 pool workers;
* ``fig7-detail`` — the unsampled Figure 7 grid, serial.  Not listed in
  ``BENCHMARK.json``: on a shared host its run medians drifted by more
  than a third between sets of runs minutes apart, beyond any allowed
  bound.  It stays runnable by hand, mainly for its per-layer trace
  (emit and stream compilation take over half of it).

Every workload iteration runs in a fresh Python process
(``perfbench/iteration.py``) so no memo, cache or memory high-water mark
carries over.  Iterations repeat while another one fits in ``--seconds``;
each end-to-end metric is the median over iterations, except
``peak_rss_mb``, their maximum.  ``setup_s`` is the median of several
fresh processes that import the package and load both native kernels
(``perfbench/setup_probe.py``), with the kernel artifact cache warm.

``--trace 1`` instead alternates an untraced serial iteration with a traced
one, reports the per-layer metrics and writes them, with the Perfetto trace
of the last traced iteration, under ``.perfbench-work/results/``.  Three
whole-run quantities are per-layer metrics because no end-to-end bound
could hold them: ``failed_frac`` (0 when healthy; failures are the result
line's ``failed`` count), ``paper_dev_frac`` (exact per seed, but it moves
by up to half between seeds) and ``warm_rerun_s`` (milliseconds on
paper-stream, where host noise alone moves it by half).

Correctness: every iteration must simulate every cell without failure or
degradation, read the identical cells back from the cache, pass the paper's
exact checks and produce the same digest of simulated statistics as every
other iteration and as the pin in ``perfbench/pins.json`` for its seed.
The last stdout line is the JSON result; progress goes to stderr.  The
metric names and units printed are those listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("fig7-detail", "paper-stream", "suite-sweep")
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 7
#: Every run must end within this many seconds (runs must stay under 180).
RUN_BUDGET_S = 170.0
#: The first run in a checkout compiles the kernels.
BUILD_TIMEOUT_S = 600.0


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    """The environment every child runs in.

    ``REPRO_*`` switches from the caller's environment are dropped so a
    stray ``REPRO_TIMECORE=0`` cannot time the fallback path; the kernel
    artifact cache and temporary files stay inside the checkout.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    kernels = WORK / "kernels"
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_TIMECORE_DIR": str(kernels),
        "REPRO_FFCORE_DIR": str(kernels),
        "TMPDIR": str(WORK / "tmp"),
    })
    return env


def run_child(script: str, args: List[str], timeout: Optional[float]) -> str:
    """Run one perfbench script in a fresh process; returns its stdout.

    The child leads its own process group, so a timeout kills its pool
    workers too; the group is always waited for before returning.
    """
    process = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(
            timeout=None if timeout is None else max(timeout, 1.0))
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise ChildFailed(f"{script} {' '.join(args)} exceeded "
                              f"{timeout:.0f}s") from None
        raise
    if process.returncode != 0:
        raise ChildFailed(f"{script} {' '.join(args)} exited with "
                          f"{process.returncode}: {stderr.strip()[-2000:]}")
    return stdout


def prepare() -> None:
    """Create the work directories and build the kernels (untimed).

    The first call in a checkout compiles both kernels into the artifact
    cache; later calls only load them.
    """
    for sub in ("kernels", "tmp", "cache", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    # The kernel loader refuses a cache directory others can write to.
    os.chmod(WORK / "kernels", 0o700)
    run_child("setup_probe.py", [], BUILD_TIMEOUT_S)


def measure_setup(deadline: float) -> float:
    durations = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        run_child("setup_probe.py", [], deadline - started)
        durations.append(time.perf_counter() - started)
    return statistics.median(durations)


def run_iteration(workload: str, seed: int, deadline: Optional[float],
                  index: int,
                  serial: bool = False,
                  trace: Optional[Path] = None) -> Dict[str, object]:
    args = ["--workload", workload, "--seed", str(seed),
            "--cache-dir", str(WORK / "cache" / f"{os.getpid()}-{index}")]
    if serial:
        args.append("--serial")
    if trace is not None:
        args += ["--trace", str(trace)]
    stdout = run_child("iteration.py", args, None if deadline is None
                       else deadline - time.perf_counter())
    return json.loads(stdout.strip().splitlines()[-1])


def load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_iterations(records: List[Dict[str, object]],
                     pin: Optional[str]) -> Tuple[List[str], bool]:
    """Correctness problems across a run's iterations, and whether every
    iteration's simulated statistics matched each other and the pin."""
    errors = []
    for record in records:
        errors.extend(record["errors"])
    digests = {record["digest"] for record in records}
    matched = len(digests) == 1 and pin in (None, *digests)
    if len(digests) > 1:
        errors.append(f"iterations disagree on the simulated statistics: "
                      f"{sorted(digests)}")
    if pin is not None and digests != {pin}:
        errors.append(f"digest {sorted(digests)} does not match the pin {pin}")
    return errors, matched


def end_to_end(records: List[Dict[str, object]],
               setup_s: float) -> Dict[str, float]:
    def median(key) -> float:
        return statistics.median(key(record) for record in records)

    return {
        "setup_s": setup_s,
        "wall_s": median(lambda r: r["wall_s"]),
        "insts_per_s": median(lambda r: r["horizon_insts"] / r["wall_s"]),
        "timed_uops_per_s": median(lambda r: r["timed_uops"] / r["wall_s"]),
        "cells_per_s": median(lambda r: r["cells"] / r["wall_s"]),
        # A high-water mark: the largest over the iterations, each of which
        # is a fresh process tree.
        "peak_rss_mb": max(record["peak_rss_mb"] for record in records),
    }


def per_layer(traced: List[Dict[str, object]],
              untraced: List[Dict[str, object]],
              failed: int, attempted: int) -> Dict[str, float]:
    """Layer metrics (medians over traced iterations) plus derived ratios.

    Shares and coverage divide by the traced iteration's whole wall time
    (cold and warm passes); the tracing overhead compares cold passes.
    """
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    first = traced[0]
    compiles = metrics["compiled.compile_measured.calls"]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics.update({
        "compiled.stream_reuse": first["cells"] / compiles if compiles else 0.0,
        "engine.dedup_ratio": first["cells"] / first["grid_cells"],
        "cache.hit_frac": first["cache_hit_frac"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(
            r["wall_s"] for r in untraced),
        "failed_frac": failed / attempted,
        # Simulated and exact per seed, but it varies between seeds more
        # than any bound allows, so it is a per-layer metric.
        "paper_dev_frac": first["paper_dev_frac"],
        # Milliseconds on paper-stream, where host noise alone moves it by
        # more than any bound allows; measured on the untraced iterations.
        "warm_rerun_s": statistics.median(r["warm_rerun_s"] for r in untraced),
    })
    metrics.update({f"model.{name}": value
                    for name, value in first["model"].items()})
    return metrics


def coverage_errors(workload: str, metrics: Dict[str, float],
                    predictions: dict) -> List[str]:
    """Layers predicted to run must have calls; predicted-idle ones none."""
    expected = predictions["coverage"][workload]
    errors = [f"coverage: {layer} was predicted to run on {workload} but "
              f"recorded no calls" for layer in expected["runs"]
              if metrics[f"{layer}.calls"] <= 0]
    errors += [f"coverage: {layer} was predicted idle on {workload} but "
               f"recorded {metrics[f'{layer}.calls']:g} calls"
               for layer in expected["idle"]
               if metrics[f"{layer}.calls"] != 0]
    return errors


def share_outcomes(workload: str, metrics: Dict[str, float],
                   predictions: dict) -> List[Dict[str, object]]:
    """Evaluate the stated self-time share predictions (reported, not gated)."""
    outcomes = []
    for claim in predictions["shares"]:
        if claim["workload"] != workload:
            continue
        shares = {layer: metrics[f"{layer}.share"]
                  for layer in predictions["coverage"][workload]["runs"]}
        if "largest" in claim:
            held = max(shares, key=shares.get) == claim["largest"]
        else:
            held = sum(shares[layer] for layer in claim["layers"]) \
                >= claim["at_least"]
        outcomes.append({"claim": claim["claim"], "held": held})
    return outcomes


def select(metrics: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    """The declared metrics, by name with their declared units."""
    missing = [entry["name"] for entry in declared
               if entry["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not "
                       f"computed: {missing}")
    return {entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]} for entry in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {ROOT / 'src'}; run from a checkout")
        return 2
    benchmark = load_json(ROOT / "BENCHMARK.json")
    predictions = load_json(HERE / "predictions.json")
    pins = load_json(HERE / "pins.json").get(args.workload, {})

    try:
        prepare()
        deadline = time.perf_counter() + RUN_BUDGET_S
        setup_s = None if args.trace else measure_setup(deadline)
        measure_start = time.perf_counter()
        untraced: List[Dict[str, object]] = []
        traced: List[Dict[str, object]] = []
        results = WORK / "results" / f"{args.workload}-seed{args.seed}"
        step_times: List[float] = []
        while True:
            step_start = time.perf_counter()
            index = len(step_times)
            if args.trace:
                untraced.append(run_iteration(args.workload, args.seed,
                                              deadline, 2 * index,
                                              serial=True))
                traced.append(run_iteration(
                    args.workload, args.seed, deadline, 2 * index + 1,
                    trace=results.with_suffix(".trace.json")))
            else:
                untraced.append(run_iteration(args.workload, args.seed,
                                              deadline, index))
            step_times.append(time.perf_counter() - step_start)
            log(f"iteration {index + 1}: {step_times[-1]:.2f}s, wall_s "
                f"{untraced[-1]['wall_s']:.3f}, peak_rss_mb "
                f"{untraced[-1]['peak_rss_mb']:.1f}")
            now = time.perf_counter()
            step = statistics.median(step_times)
            if now - measure_start + step > args.seconds \
                    or now + 1.5 * step > deadline:
                break
    except ChildFailed as error:
        log(str(error))
        return 1

    records = untraced + traced
    errors, matched = check_iterations(records, pins.get(str(args.seed)))
    attempted = sum(record["cells"] for record in records)
    # A digest covers the whole grid, so a mismatch fails every cell.
    failed = attempted if not matched \
        else sum(record["failed_cells"] for record in records)
    if args.trace:
        metrics = per_layer(traced, untraced, failed, attempted)
        errors += coverage_errors(args.workload, metrics, predictions)
        layers = {"workload": args.workload, "seed": args.seed,
                  "metrics": metrics,
                  "share_predictions": share_outcomes(args.workload, metrics,
                                                      predictions),
                  "errors": errors}
        results.with_suffix(".layers.json").write_text(
            json.dumps(layers, indent=1, sort_keys=True), encoding="utf-8")
        for outcome in layers["share_predictions"]:
            log(f"prediction {'held' if outcome['held'] else 'MISSED'}: "
                f"{outcome['claim']}")
        declared = benchmark["per_layer"]
    else:
        metrics = end_to_end(untraced, setup_s)
        declared = benchmark["end_to_end"]
    for error in errors:
        log(f"incorrect: {error}")
    log(f"digest {records[0]['digest']} "
        f"({'pinned' if str(args.seed) in pins else 'no pin for this seed'}); "
        f"{len(records)} iteration(s) in {time.perf_counter() - started:.1f}s")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed,
                      "metrics": select(metrics, declared)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
