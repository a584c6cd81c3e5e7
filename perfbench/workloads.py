"""The benchmark's three workloads, driven through the public entry points.

Each workload resolves its grid the way ``repro run`` does: a
:class:`~repro.sim.engine.SweepEngine` with a fresh on-disk result cache and
run journal, fed by :func:`~repro.experiments.run_experiments` (or, for the
paper-scale pair, :meth:`SweepEngine.run_spec`).  One *pass* is one such
resolution; the cold pass simulates every cell into an empty cache, and a
warm pass with a fresh engine reads the same grid back from that cache.

The seed is the only input that varies between runs; it becomes the
synthetic workloads' generation seed, so the simulator receives nothing but
the traces generated from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import WatchdogConfig
from repro.experiments import REGISTRY, run_experiments
from repro.experiments import fig7_runtime_overhead as fig7
from repro.experiments.common import ExperimentContext, OverheadSweep
from repro.sim.cache import ResultCache
from repro.sim.engine import SweepEngine
from repro.sim.journal import RunJournal
from repro.sim.results import CellResult, MetricCheck
from repro.sim.sampling import SamplingConfig
from repro.sim.spec import (
    ExperimentSettings,
    ExperimentSpec,
    MergedGrid,
    ResiliencePolicy,
    RunRequest,
)

#: §9.1 structure at the 100M paper horizon with four 25M periods: 24.9M
#: fast-forwarded, 50k warm-up and 50k measured instructions per period.
#: Fast-forward covers 99.6% of the horizon, which is what makes this the
#: fast-forward workload; the horizon-fitted ``paper-scaled`` schedule
#: measures 20x more and would not fit a run.
PAPER_STREAM_SAMPLING = SamplingConfig(fast_forward=24_900_000,
                                       warmup=50_000, sample=50_000)
PAPER_STREAM_PROFILES = ("mcf-paper", "lbm-paper")
#: ``repro run --all --quick`` at 2x the quick horizon: large enough that
#: the registry's multi-core mixes join the grid and the pool is busy.
SUITE_SWEEP_INSTRUCTIONS = 6_000
SUITE_SWEEP_WORKERS = 2


@dataclasses.dataclass(frozen=True)
class PassResult:
    """What one resolution of a workload's grid produced."""

    wall_s: float
    #: Every cell of the grid, keyed by (benchmark, label).
    cells: Dict[Tuple[str, str], CellResult]
    #: The requests behind ``cells`` (one per unique simulation).
    requests: Tuple[RunRequest, ...]
    grid_cells: int
    simulated_cells: int
    cell_failures: int
    checks: List[MetricCheck]
    #: Experiment summaries and series, part of the digest.
    summaries: Dict[str, object]
    cache_hits: int
    cache_misses: int
    degradations: List[str]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    #: Builds the grid from the seed and resolves it on ``engine``; returns
    #: the grid's unique requests, its cell count before dedup, the paper
    #: checks and the experiment summaries.
    resolve: Callable[[SweepEngine, int], tuple]

    def run_pass(self, seed: int, cache_dir: Path,
                 workers: Optional[int] = None,
                 before_digest: Callable[[], None] = lambda: None) -> PassResult:
        """One timed resolution through a fresh engine on ``cache_dir``.

        The engine is built as ``repro run`` builds it (result cache, run
        journal, resilience policy from the environment) and closed inside
        the timed region, so joining the pool counts.  ``before_digest``
        runs after timing, before the engine is queried for the digest.
        """
        started = time.perf_counter()
        cache = ResultCache(cache_dir)
        engine = SweepEngine(workers=self.workers if workers is None else workers,
                             cache=cache, policy=ResiliencePolicy.from_env(),
                             journal=RunJournal(cache_dir / "journal.jsonl"))
        try:
            requests, grid_cells, checks, summaries = self.resolve(engine, seed)
        finally:
            engine.close()
        wall = time.perf_counter() - started
        before_digest()
        # Memo hits only: every request was resolved inside the timed region.
        simulated = engine.simulated_cells
        cells = engine.run_requests(requests)
        return PassResult(
            wall_s=wall, cells=cells, requests=tuple(requests),
            grid_cells=grid_cells, simulated_cells=simulated,
            cell_failures=len(engine.cell_failures), checks=checks,
            summaries=summaries, cache_hits=cache.hits,
            cache_misses=cache.misses,
            degradations=[event.describe() for event in engine.degradations])


def _registry_resolver(names: Sequence[str],
                       settings_for: Callable[[int], ExperimentSettings]):
    def resolve(engine: SweepEngine, seed: int):
        settings = settings_for(seed)
        suite = run_experiments(list(names), settings=settings, engine=engine)
        specs = [REGISTRY[name].build_spec(settings) for name in names
                 if REGISTRY[name].has_grid]
        requests = MergedGrid.merge(specs).requests()
        checks = [check for report in suite.reports for check in report.checks]
        summaries = {report.name: {"summary": report.result.summary,
                                   "series": report.result.series}
                     for report in suite.reports}
        return requests, suite.engine["grid_cells_total"], checks, summaries
    return resolve


def _paper_stream(engine: SweepEngine, seed: int):
    """Baseline + ISA-assisted over the 100M ``*-paper`` horizons.

    Beyond 8M instructions the engine streams samples, so both
    configurations replay each generated sample before it is dropped.  The
    paper check is Figure 7's ISA-assisted geo-mean over these two profiles.
    """
    settings = ExperimentSettings.paper(benchmarks=PAPER_STREAM_PROFILES,
                                        sampling=PAPER_STREAM_SAMPLING)
    settings = dataclasses.replace(settings, seed=seed)
    spec = ExperimentSpec.build(
        fig7.NAME, {fig7.ISA_ASSISTED: WatchdogConfig.isa_assisted_uaf()},
        settings=settings)
    cells = engine.run_spec(spec)
    result = fig7.DEFINITION.extract(ExperimentContext(
        settings=settings, sweep=OverheadSweep(settings, engine=engine),
        spec=spec, cells=cells))
    checks = [check for check in fig7.DEFINITION.evaluate(result)
              if check.measured is not None]
    summaries = {"fig7": {"summary": result.summary, "series": result.series}}
    return spec.requests(), len(spec), checks, summaries


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("fig7-detail", workers=1, resolve=_registry_resolver(
            ["fig7"], lambda seed: ExperimentSettings(seed=seed))),
        Workload("paper-stream", workers=1, resolve=_paper_stream),
        Workload("suite-sweep", workers=SUITE_SWEEP_WORKERS,
                 resolve=_registry_resolver(
                     list(REGISTRY), lambda seed: dataclasses.replace(
                         ExperimentSettings.quick(
                             instructions=SUITE_SWEEP_INSTRUCTIONS),
                         seed=seed))),
    )
}


def digest(result: PassResult) -> str:
    """sha256 over every cell's simulated counters and every summary.

    Keyed by grid coordinates and sorted, so it is independent of execution
    order, pooling and whether the cells came from simulation or the cache.
    """
    cells = sorted((list(key), cell.to_dict())
                   for key, cell in result.cells.items())
    blob = json.dumps({"cells": cells, "summaries": result.summaries},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def horizon_instructions(result: PassResult) -> int:
    """Instructions the simulated cells covered, fast-forwarded ones included.

    A multi-core mix cell covers its horizon once per member core.
    """
    requests = {request.key: request for request in result.requests}
    return sum(requests[key].instructions * max(len(cell.cores), 1)
               for key, cell in result.cells.items())


def paper_deviation(checks: Sequence[MetricCheck]) -> Tuple[float, List[str]]:
    """Mean |measured - expected| / tolerance over the toleranced checks.

    Checks with zero tolerance are exact (table mismatches, Juliet
    detections); they are not averaged but must hold, and the ones that do
    not are returned as errors.
    """
    scaled = [abs(check.measured - check.expected) / check.tolerance
              for check in checks
              if check.tolerance > 0 and check.measured is not None]
    exact_errors = [check.describe() for check in checks
                    if check.tolerance <= 0 and not check.ok]
    return (sum(scaled) / len(scaled) if scaled else 0.0), exact_errors
