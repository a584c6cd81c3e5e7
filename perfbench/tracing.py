"""Per-layer spans recorded from outside the program.

:func:`install` wraps each layer's public entry point where its caller looks
it up (a class attribute, or the module attribute a call-time import reads)
with a span on one in-process stack.  A span's *self time* is its duration
minus the time its child spans cover, so the self times of all layers sum to
the time spent inside any wrapped layer.  Spans stay in memory and are
written out at the end as Chrome trace-event JSON (https://ui.perfetto.dev
opens it) beside the per-layer metrics.

Spans recorded in pool workers never reach the parent, so a traced run is
serial; the pool's effect shows only in the untraced end-to-end numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _first_arg(args, kwargs, result) -> int:
    # fast_forward(self, count): the skipped instructions.
    return int(args[1] if len(args) > 1 else kwargs["count"])


def _total_uops(args, kwargs, result) -> int:
    return result.total_uops


#: (layer, module, attribute path, work counter).  One layer may have
#: several entry points (``emit`` and ``trace`` both materialize ops) or
#: several lookup sites of one function (the engine imported
#: ``aggregate_outcomes`` by name; the multi-core path imports it from the
#: simulator module at call time).  The counter turns a call into work
#: units for the layer's rate metric.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("workloads.emit", "repro.workloads.synthetic",
     "SyntheticWorkload.emit", _result_len),
    ("workloads.emit", "repro.workloads.synthetic",
     "SyntheticWorkload.trace", _result_len),
    ("workloads.fast_forward", "repro.workloads.synthetic",
     "SyntheticWorkload.fast_forward", _first_arg),
    ("workloads.bundle_generate", "repro.workloads.bundle",
     "TraceBundle.generate", None),
    ("workloads.segment_bundle", "repro.workloads.streaming",
     "SampleStream.segment_bundle", None),
    # TraceBundle._compiled imports these from the module at call time.
    ("compiled.tokenize", "repro.sim.compiled", "tokenize", _result_len),
    ("compiled.compile_measured", "repro.sim.compiled",
     "StreamCompiler.compile_measured", _result_len),
    ("compiled.compile_warm", "repro.sim.compiled",
     "StreamCompiler.compile_warm", None),
    # StreamCompiler.working_set_arrays delegates to the module function.
    ("compiled.working_set_arrays", "repro.sim.compiled",
     "working_set_arrays", None),
    # Simulator._run_compiled and the multi-core warm-up call compiled_mod.*.
    ("compiled.warm_working_set", "repro.sim.compiled",
     "warm_working_set", None),
    ("compiled.warm_trace", "repro.sim.compiled", "warm_trace", None),
    ("pipeline.simulate_compiled", "repro.pipeline.core",
     "OutOfOrderCore.simulate_compiled", _total_uops),
    ("simulator.accumulate", "repro.sim.simulator",
     "OutcomeAccumulator.add", None),
    ("simulator.accumulate", "repro.sim.simulator",
     "OutcomeAccumulator.finalize", None),
    ("simulator.accumulate", "repro.sim.simulator",
     "aggregate_outcomes", None),
    ("simulator.accumulate", "repro.sim.engine", "aggregate_outcomes", None),
    ("multicore.run_mix", "repro.sim.multicore",
     "MultiCoreSimulator.run_mix", None),
    ("program.machine_run", "repro.program.machine", "Machine.run", None),
    ("engine.run_requests", "repro.sim.engine",
     "SweepEngine.run_requests", None),
    ("cache.store", "repro.sim.cache", "ResultCache.store", None),
    ("cache.load", "repro.sim.cache", "ResultCache.load", None),
)

#: Layer -> name of its rate metric (work units per self-time second).
RATES = {
    "workloads.emit": "ops_per_s",
    "workloads.fast_forward": "ops_per_s",
    "compiled.tokenize": "ops_per_s",
    "compiled.compile_measured": "uops_per_s",
    "pipeline.simulate_compiled": "uops_per_s",
}

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))


class SpanRecorder:
    """A span stack with per-layer totals and a trace-event log."""

    def __init__(self) -> None:
        self.active = False
        self.origin_ns = time.perf_counter_ns()
        self._stack: List[List] = []
        #: layer -> [calls, self_ns, work units]
        self.totals: Dict[str, List[int]] = {layer: [0, 0, 0]
                                             for layer in LAYERS}
        self.events: List[dict] = []

    def call(self, layer: str, work: Optional[Callable], fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        # [layer, start, child time]
        frame = [layer, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        returned = False
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            totals = self.totals[layer]
            totals[0] += 1
            totals[1] += duration - frame[2]
            if work is not None and returned:
                totals[2] += work(args, kwargs, result)
            self.events.append({
                "name": layer, "cat": layer.split(".", 1)[0], "ph": "X",
                "ts": (frame[1] - self.origin_ns) / 1000.0,
                "dur": duration / 1000.0, "pid": os.getpid(), "tid": 0,
                "args": {"self_us": (duration - frame[2]) / 1000.0}})

    def write_trace(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, handle)


def _wrap(recorder: SpanRecorder, layer: str, work, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, work, fn, args, kwargs)
    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point; raises if one no longer exists.

    A missing entry point means the program was refactored under the
    benchmark, which must fail loudly rather than report a layer as idle.
    """
    for layer, module_name, path, work in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        if attribute not in vars(owner):
            raise AttributeError(f"{module_name}.{path} not found; the "
                                 f"benchmark's entry-point table is stale")
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(_wrap(recorder, layer, work,
                                           original.__func__))
        else:
            wrapped = _wrap(recorder, layer, work, original)
        setattr(owner, attribute, wrapped)


def layer_metrics(recorder: SpanRecorder, traced_wall_s: float) -> Dict[str, float]:
    """``<layer>.calls``, ``.self_s``, ``.share`` and rates for every layer."""
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, self_ns, work = recorder.totals[layer]
        self_s = self_ns / 1e9
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / traced_wall_s
        if layer in RATES:
            metrics[f"{layer}.{RATES[layer]}"] = work / self_s if self_s else 0.0
    covered = sum(recorder.totals[layer][1] for layer in LAYERS) / 1e9
    metrics["trace.coverage_frac"] = covered / traced_wall_s
    return metrics
