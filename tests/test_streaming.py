"""Tests for streaming sampled simulation (one sample in memory).

Covers the :class:`~repro.workloads.streaming.SampleStream` walk against the
retained bundle built from it, the replay-on-demand property (a random
single sample regenerated from the state core alone equals the continuous
walk's, native fast-forward kernel on and off), literal digests of sampled
results through :meth:`Simulator.run_profile`, :meth:`Simulator.run_bundle`
and the sweep engine (serial and pooled, compiled and reference pipelines,
timecore on and off), the §9.1 outcome fold, the state core's retired-slot
compaction (bit-invisible on every span path), the audited bundle footprint
accounting, and the billion-instruction profile/bench plumbing.
"""

import dataclasses
import hashlib
import random
import zlib

import pytest

from repro.core.config import WatchdogConfig
from repro.core.pointer_id import PointerIdStats
from repro.core.uop_injection import InjectionStats
from repro.errors import ConfigurationError
from repro.memory.pages import PageAccountant
from repro.pipeline.core import TimingResult
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.simulator import (
    OutcomeAccumulator,
    SimulationOutcome,
    Simulator,
    aggregate_outcomes,
)
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import (
    ONE_B_HORIZON_INSTRUCTIONS,
    benchmark_names,
    one_b_profile_names,
    profile_by_name,
)
from repro.workloads.streaming import SampleStream
from repro.workloads.synthetic import SyntheticWorkload

ISA = WatchdogConfig.isa_assisted_uaf()

#: A schedule that genuinely samples the suite's short synthetic traces.
SMALL = SamplingConfig(fast_forward=2000, warmup=500, sample=1500)


def _segment_digest(segment) -> int:
    """A stream digest of one sample (warm-up + measured op streams)."""
    digest = 0
    for op in segment.warmup:
        digest = zlib.crc32(repr(op).encode(), digest)
    for op in segment.measured:
        digest = zlib.crc32(repr(op).encode(), digest)
    return digest


def _assert_segments_equal(left, right):
    assert left.measured == right.measured
    assert left.warmup == right.warmup
    assert left.working_set.lines == right.working_set.lines
    assert left.working_set.locks == right.working_set.locks
    assert _segment_digest(left) == _segment_digest(right)


@pytest.fixture
def ffcore_disabled(monkeypatch):
    """Force the pure-Python fast-forward span loop for one test."""
    from repro.native import build

    monkeypatch.setenv("REPRO_FFCORE", "0")
    build.forget("ffcore")
    yield
    build.forget("ffcore")


class TestSampleStream:
    def test_segments_match_eager_bundle(self):
        for benchmark, seed in (("mcf-long", 7), ("perl", 3)):
            bundle = TraceBundle.generate(benchmark, seed=seed,
                                          instructions=20_000, sampling=SMALL)
            stream = SampleStream(benchmark, seed, 20_000, SMALL)
            segments = list(stream.segments())
            assert len(segments) == len(stream) == len(bundle.samples)
            for streamed, eager in zip(segments, bundle.samples):
                _assert_segments_equal(streamed, eager)

    def test_rejects_schedules_that_cannot_stream(self):
        with pytest.raises(ConfigurationError):
            SampleStream("mcf", 0, 10_000, SamplingConfig.unsampled(10_000))
        with pytest.raises(ConfigurationError):
            # Measures nothing at this horizon: one incomplete period.
            SampleStream("mcf", 0, 1_000, SMALL)

    def test_segment_index_bounds(self):
        stream = SampleStream("mcf-long", 7, 20_000, SMALL)
        with pytest.raises(IndexError):
            stream.segment(len(stream))
        with pytest.raises(IndexError):
            stream.segment(-1)

    def test_segment_bundle_is_single_sample(self):
        stream = SampleStream("mcf-long", 7, 20_000, SMALL)
        segment = next(iter(stream.segments()))
        bundle = stream.segment_bundle(segment)
        assert bundle.samples == (segment,)
        assert bundle.benchmark == "mcf-long"
        assert bundle.measured == () and bundle.warmup == ()
        assert bundle.sampling == SMALL


class TestReplayOnDemand:
    """Regenerating one random sample from the state core is bit-identical."""

    def _check_profiles(self, cases):
        rng = random.Random(0x5EED)
        for benchmark, instructions, sampling in cases:
            bundle = TraceBundle.generate(benchmark, seed=11,
                                          instructions=instructions,
                                          sampling=sampling)
            stream = SampleStream(benchmark, 11, instructions, sampling)
            assert len(stream) == len(bundle.samples)
            index = rng.randrange(len(stream))
            _assert_segments_equal(stream.segment(index),
                                   bundle.samples[index])

    def test_long_and_paper_profiles_native(self):
        self._check_profiles([
            ("mcf-long", 300_000, SamplingConfig.quick()),
            ("gcc-long", 300_000, SamplingConfig.quick()),
            ("lbm-long", 300_000, SamplingConfig.quick()),
            ("perl-long", 300_000, SamplingConfig.quick()),
            ("mcf-paper", 1_000_000, SamplingConfig.paper_scaled(250_000)),
            ("gcc-paper", 1_000_000, SamplingConfig.paper_scaled(250_000)),
        ])

    def test_long_profiles_python_fallback(self, ffcore_disabled):
        self._check_profiles([
            ("mcf-long", 120_000, SamplingConfig.quick()),
            ("perl-long", 120_000, SamplingConfig.quick()),
        ])

    def test_first_and_last_samples(self):
        # Edge windows: the first sample (nothing precedes its warm-up but a
        # skip) and the last (stream ends at its measure window boundary).
        bundle = TraceBundle.generate("gcc-long", seed=5,
                                      instructions=40_000, sampling=SMALL)
        stream = SampleStream("gcc-long", 5, 40_000, SMALL)
        _assert_segments_equal(stream.segment(0), bundle.samples[0])
        last = len(bundle.samples) - 1
        _assert_segments_equal(stream.segment(last), bundle.samples[last])


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _outcome_digest(outcome) -> str:
    """A digest of everything a sampled outcome carries, floats exactly."""
    timing = outcome.timing
    return _digest((
        outcome.benchmark, outcome.configuration,
        dataclasses.replace(timing, port_waits={}),
        sorted(timing.port_waits.items()),
        outcome.injection, outcome.pointer_stats,
        sorted(outcome.pages.data_words), sorted(outcome.pages.shadow_words)))


#: Sampled-result digests recorded from the two-path implementation that
#: preceded streaming-only execution, where the retained-bundle path and the
#: streaming path each produced exactly these values (serial, pooled over
#: two workers, compiled and reference pipelines, timecore on and off).
#: mcf-long, 20k instructions, seed 7, schedule SMALL:
MCF_LONG_DIGESTS = {"baseline": "126e31c1bdc5b2a0", "isa": "d1f0d1990a879879"}
#: gcc-long, 20k instructions, seed 3, schedule SMALL, ISA-assisted:
GCC_LONG_ISA_DIGEST = "84d9bd8f2ac06be3"
#: The two CellResults of :meth:`TestEngineStreaming._job`:
JOB_CELLS_DIGEST = "50f002bb14710935"
#: The sorted cells of a one-benchmark sweep over the same workload:
SWEEP_CELLS_DIGEST = "502f65c56e479cf7"


class TestStreamingGoldenEquality:
    @pytest.mark.parametrize("timecore", [None, False])
    def test_run_profile_streaming_equals_retained(self, timecore):
        profile = profile_by_name("mcf-long")
        bundle = TraceBundle.generate(profile, seed=7, instructions=20_000,
                                      sampling=SMALL)
        for name, config in (("baseline", WatchdogConfig.disabled()),
                             ("isa", ISA)):
            simulator = Simulator(timecore=timecore)
            streamed = simulator.run_profile(
                profile, config, instructions=20_000, seed=7, sampling=SMALL)
            retained = simulator.run_bundle(bundle, config)
            assert _outcome_digest(streamed) == MCF_LONG_DIGESTS[name]
            assert _outcome_digest(retained) == MCF_LONG_DIGESTS[name]

    def test_run_streaming_equals_run_bundle(self):
        bundle = TraceBundle.generate("gcc-long", seed=3,
                                      instructions=20_000, sampling=SMALL)
        simulator = Simulator()
        retained = simulator.run_bundle(bundle, ISA)
        streamed = simulator.run_streaming("gcc-long", ISA,
                                           instructions=20_000,
                                           sampling=SMALL, seed=3)
        assert _outcome_digest(retained) == GCC_LONG_ISA_DIGEST
        assert _outcome_digest(streamed) == GCC_LONG_ISA_DIGEST

    def test_reference_pipeline_streams_identically(self):
        streamed = Simulator(pipeline="reference").run_profile(
            profile_by_name("mcf-long"), ISA, instructions=20_000, seed=7,
            sampling=SMALL)
        assert _outcome_digest(streamed) == MCF_LONG_DIGESTS["isa"]


class _InlinePool:
    """A stand-in sample pool: runs each task at submit, counts in-flight."""

    def __init__(self):
        self.submitted = 0
        self.inflight = 0
        self.peak = 0

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn(*args))
        self.submitted += 1
        self.inflight += 1
        self.peak = max(self.peak, self.inflight)
        done = future.result

        def result(timeout=None):
            self.inflight -= 1
            return done(timeout)

        future.result = result
        return future


class TestEngineStreaming:
    def _job(self):
        from repro.sim.engine import BenchmarkJob

        return BenchmarkJob(
            benchmark="mcf-long", seed=7, instructions=20_000,
            warmup_instructions=None, sampling=SMALL, pipeline="compiled",
            cells=(("baseline", WatchdogConfig.disabled()), ("isa", ISA)))

    def test_serial_streaming_matches_retained(self):
        from repro.sim.engine import execute_job
        from repro.sim.results import CellResult

        job = self._job()
        streamed = execute_job(job)
        assert _digest(streamed) == JOB_CELLS_DIGEST
        # The engine streams sample-major; replaying the retained bundle
        # config-major gives the very same cells.
        bundle = TraceBundle.generate("mcf-long", seed=7,
                                      instructions=20_000, sampling=SMALL)
        simulator = Simulator()
        assert streamed == [
            CellResult.from_outcome(simulator.run_bundle(bundle, config),
                                    label=label)
            for label, config in job.cells]

    def test_pooled_streaming_matches_serial(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.engine import execute_job

        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = execute_job(self._job(), sample_pool=pool, workers=2)
        assert _digest(pooled) == JOB_CELLS_DIGEST

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pooled_sink_window_follows_workers(self, workers):
        from repro.sim.engine import execute_job

        # mcf-long at 20k under SMALL yields 5 samples, more than either
        # window, so the peak shows the window itself.
        pool = _InlinePool()
        cells = execute_job(self._job(), sample_pool=pool, workers=workers)
        assert pool.submitted == 5
        assert pool.peak == workers + 2
        assert _digest(cells) == JOB_CELLS_DIGEST

    def test_sweep_round_trip(self):
        from repro.sim.engine import SweepEngine
        from repro.sim.spec import ExperimentSettings, ExperimentSpec

        settings = ExperimentSettings(benchmarks=("mcf-long",),
                                      instructions=20_000, sampling=SMALL)
        spec = ExperimentSpec.build("stream", {"wd": ISA}, settings=settings)
        cells = SweepEngine().run_spec(spec)
        assert _digest(sorted(cells.items())) == SWEEP_CELLS_DIGEST


def _outcome(cycles, total_uops, port_waits, data_words):
    timing = TimingResult(cycles=cycles, total_uops=total_uops,
                          injected_uops=1, macro_instructions=2,
                          memory_accesses=3, lock_cache_misses=4,
                          l1d_misses=5, port_waits=port_waits)
    return SimulationOutcome(
        benchmark="mcf", configuration="isa", timing=timing,
        injection=InjectionStats(baseline_uops=total_uops - 1,
                                 check_uops=1),
        pointer_stats=PointerIdStats(memory_ops=3, pointer_ops=1),
        pages=PageAccountant(data_words=set(data_words)))


class TestOutcomeAccumulator:
    def test_counters_sum_and_port_waits_are_cycle_weighted(self):
        first = _outcome(100, 150, {"load": 2.0, "store": 1.0}, {0, 8})
        second = _outcome(300, 330, {"load": 4.0}, {8, 16})
        folded = aggregate_outcomes(iter([first, second]))
        assert folded.timing == TimingResult(
            cycles=400, total_uops=480, injected_uops=2,
            macro_instructions=4, memory_accesses=6, lock_cache_misses=8,
            l1d_misses=10,
            port_waits={"load": 2.0 * (100 / 400) + 4.0 * (300 / 400),
                        "store": 1.0 * (100 / 400)})
        assert folded.injection == InjectionStats(baseline_uops=478,
                                                  check_uops=2)
        assert folded.pointer_stats == PointerIdStats(memory_ops=6,
                                                      pointer_ops=2)
        assert folded.pages.data_words == {0, 8, 16}
        assert (folded.benchmark, folded.configuration) == ("mcf", "isa")

    def test_single_outcome_fold_is_identity(self):
        only = _outcome(100, 150, {"load": 2.5, "store": 0.1}, {0, 8})
        folded = aggregate_outcomes([only])
        assert folded.timing == only.timing
        assert folded.injection == only.injection
        assert folded.pointer_stats == only.pointer_stats
        assert folded.pages.data_words == only.pages.data_words

    def test_retained_and_streamed_samples_are_identical(self):
        # The retained bundle replays each sample from one multi-sample
        # bundle; streaming wraps each segment as its own bundle.  Sample by
        # sample the outcomes agree, and so do the folds.
        retained = TraceBundle.generate("mcf-long", seed=7,
                                        instructions=20_000, sampling=SMALL)
        stream = SampleStream("mcf-long", 7, 20_000, SMALL)
        simulator = Simulator()
        streamed = [simulator.sample_outcome(stream.segment_bundle(segment),
                                             0, ISA)
                    for segment in stream.segments()]
        assert len(streamed) == len(retained.samples)
        for index, outcome in enumerate(streamed):
            assert _outcome_digest(outcome) == _outcome_digest(
                simulator.sample_outcome(retained, index, ISA))
        assert _outcome_digest(aggregate_outcomes(streamed)) == \
            _outcome_digest(simulator.run_bundle(retained, ISA)) == \
            MCF_LONG_DIGESTS["isa"]

    def test_empty_accumulator_refuses_finalize(self):
        with pytest.raises(ValueError):
            OutcomeAccumulator().finalize()
        with pytest.raises(ValueError):
            aggregate_outcomes([])


class TestBenchmarkEntryPoints:
    def test_traced_entry_points_resolve(self):
        # perfbench/tracing.py wraps these where callers look them up and
        # refuses to run when one has moved; keep the table resolvable.
        import importlib

        from perfbench.tracing import ENTRY_POINTS

        for _, module_name, path, _ in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            assert attribute in vars(owner), f"{module_name}.{path}"


class TestSlotCompaction:
    """Compacting retired slot arrays must be invisible to the trace."""

    def _pair(self, name, seed, threshold=4):
        reference = SyntheticWorkload(profile_by_name(name), seed=seed)
        compacted = SyntheticWorkload(profile_by_name(name), seed=seed)
        compacted.COMPACT_RETIRED_SLOTS = threshold
        return reference, compacted

    def _assert_converged(self, reference, compacted):
        assert reference.rng.getstate() == compacted.rng.getstate()
        ref_snap = reference.snapshot_working_set()
        cmp_snap = compacted.snapshot_working_set()
        assert ref_snap.lines == cmp_snap.lines
        assert ref_snap.locks == cmp_snap.locks
        # Compaction genuinely fired: the compacted core retired its dead
        # slots while the reference kept appending.
        assert len(compacted._slot_sizes) < len(reference._slot_sizes)
        assert len(compacted._slot_sizes) - len(compacted._order) \
            < compacted.COMPACT_RETIRED_SLOTS + 2

    def test_emit_path(self):
        reference, compacted = self._pair("perl", 3)
        assert reference.emit(60_000) == compacted.emit(60_000)
        self._assert_converged(reference, compacted)

    def test_fast_forward_native_span(self):
        reference, compacted = self._pair("perl", 9)
        for _ in range(6):
            reference.fast_forward(9_000)
            compacted.fast_forward(9_000)
            assert reference.emit(1_000) == compacted.emit(1_000)
        self._assert_converged(reference, compacted)

    def test_fast_forward_python_span(self, ffcore_disabled):
        reference, compacted = self._pair("perl", 11)
        for _ in range(4):
            reference.fast_forward(6_000)
            compacted.fast_forward(6_000)
            assert reference.emit(800) == compacted.emit(800)
        self._assert_converged(reference, compacted)

    def test_pickle_round_trip_after_compaction(self):
        import pickle

        _, compacted = self._pair("perl", 5)
        compacted.fast_forward(20_000)
        clone = pickle.loads(pickle.dumps(compacted))
        assert clone.emit(2_000) == compacted.emit(2_000)


class TestFootprintAudit:
    def test_token_columns_are_budgeted_per_op(self):
        bundle = TraceBundle.generate("mcf", seed=7, instructions=3_000)
        ops = len(bundle.measured) + len(bundle.warmup)
        snapshot = len(bundle.working_set.lines) + len(bundle.working_set.locks)
        # Four int64 token columns per op; tokenize shares them, so
        # building the compiled streams adds only the compiled columns.
        assert bundle.footprint_ops() == 4 * ops + snapshot
        bundle.compiled_streams(ISA)
        assert bundle.footprint_ops() > 4 * ops + snapshot

    def test_python_scheduler_pins_nothing_extra(self):
        bundle = TraceBundle.generate("mcf", seed=7, instructions=3_000)
        streams = bundle.compiled_streams(ISA)
        before = bundle.footprint_ops()
        measured = streams.measured
        assert before >= 2 * len(measured) + 3 * len(measured.mem_pos)
        Simulator(pipeline="compiled", timecore=False).run_bundle(bundle, ISA)
        assert bundle.footprint_ops() == before
        assert set(vars(measured)) == {
            field.name for field in dataclasses.fields(measured)}

    def test_compiled_bundles_evict_lru_first_under_budget(self, monkeypatch):
        from collections import OrderedDict

        from repro.sim import engine as engine_mod

        monkeypatch.setattr(engine_mod, "_BUNDLES", OrderedDict())

        def bundle_for(name):
            return engine_mod._bundle_for(engine_mod.BenchmarkJob(
                benchmark=name, seed=7, instructions=3_000,
                warmup_instructions=None, sampling=None,
                pipeline="compiled", cells=(("wd", ISA),)))

        first = bundle_for("gzip")
        first.compiled_streams(ISA)
        second = bundle_for("mcf")
        second.compiled_streams(ISA)
        budget = first.footprint_ops() + second.footprint_ops()
        monkeypatch.setattr(engine_mod, "_BUNDLES_OP_BUDGET", budget)
        assert bundle_for("gzip") is first  # a memo hit; mcf is now LRU
        third = bundle_for("lbm")
        assert third.footprint_ops() < second.footprint_ops()
        assert [key[0] for key in engine_mod._BUNDLES] == ["gzip", "lbm"]
        assert bundle_for("gzip") is first


class TestOneBPlumbing:
    def test_profiles_registered_but_not_in_figure_grids(self):
        names = one_b_profile_names()
        assert names == ["mcf-1b", "gcc-1b", "lbm-1b", "perl-1b"]
        for name in names:
            assert profile_by_name(name).name == name
            assert name not in benchmark_names()
        assert ONE_B_HORIZON_INSTRUCTIONS == 1_000_000_000

    def test_one_b_cell_smoke_scale(self):
        # The real cell runs the full 1B horizon under `repro bench`; here
        # the same code path runs at test scale.
        from repro.sim.bench import run_one_b_cell

        record = run_one_b_cell(benchmark="mcf-1b", instructions=60_000,
                                sampling=SMALL, seed=7)
        assert record["streaming"] is True
        assert record["samples"] == len(
            SampleStream("mcf-1b", 7, 60_000, SMALL))
        assert record["measured_instructions"] == \
            SamplingSchedule(SMALL).measured_count(60_000)
        assert record["timed_uops"] > 0
        assert record["one_b_ops_per_sec"] > 0

    def test_peak_rss_recorded_on_linux(self):
        import sys

        from repro.sim.bench import peak_rss_mb

        rss = peak_rss_mb()
        if sys.platform.startswith(("linux", "darwin")):
            assert rss is not None and rss > 0

    def test_ceiling_gate(self, tmp_path):
        import json

        from repro.sim.bench import check_against_baseline

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"uops_per_sec": 1, "one_b_peak_rss_mb": 100}))
        record = {"compiled": {"uops_per_sec": 10_000},
                  "one_b": {"peak_rss_mb": 50.0}}
        ok, message = check_against_baseline(record, str(baseline))
        assert ok and "one_b_rss" in message and "ceiling" in message
        record["one_b"]["peak_rss_mb"] = 150.0
        ok, message = check_against_baseline(record, str(baseline))
        assert not ok and "EXCEEDED" in message
        record["one_b"]["peak_rss_mb"] = None
        ok, message = check_against_baseline(record, str(baseline))
        assert ok and "SKIPPED" in message
        del record["one_b"]
        ok, message = check_against_baseline(record, str(baseline))
        assert ok and "SKIPPED" in message
