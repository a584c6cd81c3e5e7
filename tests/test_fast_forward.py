"""Tests for the state-evolution / trace-emission generator split.

Covers the three equivalences the refactor must preserve:

* **golden digests** — traces and sampled bundles are bit-identical to the
  pre-split generator (the digests below were recorded from the monolithic
  ``SyntheticWorkload`` before the state core existed, so they pin
  before-vs-after equality permanently, not merely internal consistency);
* **fast-forward ≡ drained generation** — ``fast_forward(n)`` leaves the
  RNG, allocator, working set, cursors and hot set exactly where emitting
  and discarding ``n`` ops would, for arbitrary window sizes including ones
  that split allocation events;
* **native kernel ≡ pure Python** — the optional C emitter and its
  pure-Python mirror write identical token columns and advance state
  identically, window partitions and allocation-event splits included.

Plus the satellite behaviours: the static shape table, the ``*-paper``
profiles and horizon-fitted schedule, the paper-scale validation, and the
engine's per-sample fan-out determinism.
"""

import dataclasses
import pickle
import zlib

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.sim.engine import SweepEngine
from repro.sim.sampling import SamplingConfig
from repro.sim.spec import ExperimentSettings, ExperimentSpec, RunRequest
from repro.workloads import _ffcore
from repro.workloads.bundle import (
    MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS,
    TraceBundle,
)
from repro.workloads.profiles import (
    PAPER_HORIZON_INSTRUCTIONS,
    BenchmarkProfile,
    benchmark_names,
    paper_profile_names,
    profile_by_name,
)
from repro.sim.compiled import tokenize
from repro.sim.trace import DynamicOp
from repro.workloads.shapes import NUM_SHAPES, SHAPES
from repro.workloads.streaming import SampleStream
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.state_core import MAX_EVENT_OPS

native_only = pytest.mark.skipif(_ffcore.load() is None,
                                 reason="native emit kernel unavailable")

#: Allocation events every few ops: windows constantly split them.
ALLOC_HEAVY = BenchmarkProfile(
    name="alloc-heavy-test", memory_fraction=0.3, load_fraction=0.6,
    word_integer_fraction=0.4, pointer_fraction=0.3,
    fp_access_fraction=0.05, fp_compute_fraction=0.1,
    branch_fraction=0.15, mispredict_rate=0.05, calls_per_kilo=5.0,
    allocs_per_kilo=60.0, typical_alloc_bytes=96,
    working_set_objects=64, temporal_locality=0.7,
    spatial_locality=0.6)
#: An allocation event on almost every event draw.
ALLOC_EVERY_OP = dataclasses.replace(
    profile_by_name("perl"), name="alloc-every-op",
    allocs_per_kilo=300.0, working_set_objects=16)


def columns(tokens):
    """The four token columns of an emitted window, as comparable tuples."""
    assert tokens.insts is SHAPES
    return (tuple(tokens.tids), tuple(tokens.addrs), tuple(tokens.locks),
            tuple(tokens.mis))


def python_emitter(profile, seed):
    """A workload forced onto the pure-Python emitter."""
    workload = SyntheticWorkload(profile, seed=seed)
    workload._ffcore = None
    return workload


def op_key(op):
    inst = op.instruction
    return (inst.opcode.name, str(inst.dest),
            tuple(str(src) for src in inst.srcs), inst.imm, int(inst.size),
            inst.pointer_hint.name, op.address, op.lock_address,
            op.mispredicted)


def digest_ops(ops):
    crc = 0
    for op in ops:
        crc = zlib.crc32(repr(op_key(op)).encode(), crc)
    return f"{crc:08x}"


def digest_bundle(bundle):
    crc = 0
    for sample in bundle.samples:
        crc = zlib.crc32(digest_ops(sample.warmup).encode(), crc)
        crc = zlib.crc32(digest_ops(sample.measured).encode(), crc)
        crc = zlib.crc32(repr(sample.working_set.lines).encode(), crc)
        crc = zlib.crc32(repr(sample.working_set.locks).encode(), crc)
    if not bundle.samples:
        crc = zlib.crc32(digest_ops(bundle.warmup).encode(), crc)
        crc = zlib.crc32(digest_ops(bundle.measured).encode(), crc)
        crc = zlib.crc32(repr(bundle.working_set.lines).encode(), crc)
    return f"{crc:08x}"


def state_fingerprint(workload):
    """Everything the functional state comprises, hashable for equality."""
    return (
        workload.rng.getstate(),
        tuple(workload._order),
        tuple(workload._hot),
        tuple(workload._slot_cursors),
        tuple(workload._slot_bases),
        bytes(workload._slot_rich),
        workload._global_cursor,
        workload._call_depth,
        workload._value_rotation,
        workload._allocation_counter,
        workload.runtime.malloc_calls,
        workload.runtime.free_calls,
        workload.runtime.total_live_bytes(),
        tuple(workload.working_set_lines()),
        tuple(workload.lock_locations()),
    )


class TestGoldenEquality:
    """Digests recorded from the pre-split generator (seed commit 24d7b84)."""

    #: 40k-instruction sampled bundles (seed 7, schedule 2000/500/1500) on
    #: every ``*-long`` profile — the acceptance criterion's target set.
    SAMPLED_LONG = {
        "mcf-long": "e9367782",
        "gcc-long": "5333a50a",
        "lbm-long": "cb03ac95",
        "perl-long": "df71b1dd",
    }
    #: 9k-instruction sampled bundles (seed 3) under a schedule misaligned
    #: with any event structure, so windows split multi-op events.
    SAMPLED_SHORT = {
        "mcf": "2062ab1f",
        "perl": "f97968b8",
        "gcc": "d5eafdb1",
        "twolf": "464bed40",
    }
    #: Conventional (unsampled) bundles, pinning the warm-up/measure
    #: truncation-discard semantics of ``generate()``.
    PLAIN = {
        ("gzip", 7, 3_000): "0696cbb8",
        ("mcf-long", 1, 6_000): "1bcd825c",
    }
    #: Raw continuous traces.
    TRACES = {
        ("gcc", 3, 5_000): "b15d0a39",
        ("perl-long", 2, 5_000): "5418c4a2",
    }

    @pytest.mark.parametrize("name", sorted(SAMPLED_LONG))
    def test_sampled_long_profiles_match_pre_split_generator(self, name):
        bundle = TraceBundle.generate(
            name, seed=7, instructions=40_000,
            sampling=SamplingConfig(fast_forward=2000, warmup=500, sample=1500))
        assert bundle.samples, "schedule must genuinely sample"
        assert digest_bundle(bundle) == self.SAMPLED_LONG[name]

    @pytest.mark.parametrize("name", sorted(SAMPLED_SHORT))
    def test_sampled_event_straddling_windows_match(self, name):
        bundle = TraceBundle.generate(
            name, seed=3, instructions=9_000,
            sampling=SamplingConfig(fast_forward=313, warmup=328, sample=356))
        assert digest_bundle(bundle) == self.SAMPLED_SHORT[name]

    @pytest.mark.parametrize("key", sorted(PLAIN))
    def test_unsampled_bundles_match(self, key):
        name, seed, instructions = key
        bundle = TraceBundle.generate(name, seed=seed,
                                      instructions=instructions)
        assert digest_bundle(bundle) == self.PLAIN[key]

    @pytest.mark.parametrize("key", sorted(TRACES))
    def test_raw_traces_match(self, key):
        name, seed, instructions = key
        workload = SyntheticWorkload(profile_by_name(name), seed=seed)
        assert digest_ops(workload.trace(instructions)) == self.TRACES[key]


class TestFastForwardEquivalence:
    def _pair(self, name, seed, force_python):
        reference = SyntheticWorkload(profile_by_name(name), seed=seed)
        skipper = SyntheticWorkload(profile_by_name(name), seed=seed)
        if force_python:
            skipper._ffcore = None
        return reference, skipper

    @pytest.mark.parametrize("force_python", (False, True))
    @pytest.mark.parametrize("name,seed", (("mcf", 7), ("perl", 3),
                                           ("lbm", 1), ("mcf-long", 7)))
    def test_fast_forward_equals_drained_generation(self, name, seed,
                                                    force_python):
        reference, skipper = self._pair(name, seed, force_python)
        count = 12_000
        reference.emit(count)
        skipper.fast_forward(count)
        assert state_fingerprint(skipper) == state_fingerprint(reference)
        # The continuation — what a measure window would time — matches too.
        assert [op_key(op) for op in skipper.emit(600)] == \
            [op_key(op) for op in reference.emit(600)]

    @pytest.mark.parametrize("force_python", (False, True))
    def test_random_window_partitions(self, force_python):
        """Property-style: any skip/emit partition of the stream is exact.

        The meta-RNG draws window sizes from 1 op (guaranteed to split
        multi-op events, including allocation events on the alloc-heavy
        profiles below) up to several thousand.  The reference emits with
        the default emitter (native when available); with ``force_python``
        the skipper runs the pure-Python mirror, so the emitted token
        columns are compared across the two languages.
        """
        import random as random_mod

        meta = random_mod.Random(20260726)
        cases = [(ALLOC_HEAVY, 11), (ALLOC_HEAVY, 12), (ALLOC_EVERY_OP, 4),
                 (profile_by_name("twolf"), 5), (profile_by_name("gcc"), 9)]
        for profile, seed in cases:
            reference = SyntheticWorkload(profile, seed=seed)
            skipper = SyntheticWorkload(profile, seed=seed)
            if force_python:
                skipper._ffcore = None
            emitted = []
            for _ in range(12):
                skip = meta.choice((1, 2, 3, 7, meta.randrange(1, 40),
                                    meta.randrange(50, 3000)))
                take = meta.randrange(1, 80)
                reference_window = reference.emit(skip + take)[skip:]
                skipper.fast_forward(skip)
                emitted.append((reference_window, skipper.emit(take)))
            for reference_window, skipped_window in emitted:
                assert columns(skipped_window) == columns(reference_window)
                assert [op_key(op) for op in skipped_window] == \
                    [op_key(op) for op in reference_window]
            assert state_fingerprint(skipper) == state_fingerprint(reference)

    @pytest.mark.parametrize("force_python", (False, True))
    @pytest.mark.parametrize("profile", (ALLOC_HEAVY, ALLOC_EVERY_OP),
                             ids=lambda profile: profile.name)
    def test_fast_forward_splits_allocation_events(self, profile,
                                                   force_python):
        """1-op windows split runtime-call sequences, skipped or emitted.

        An emitted 1-op window landing on an allocation event makes the
        native emitter bounce to Python mid-event and patch the lock of the
        event's GETIDENT/SETIDENT op into its output columns; the rest of
        the event waits in the pending buffer.
        """
        reference = SyntheticWorkload(profile, seed=2)
        skipper = SyntheticWorkload(profile, seed=2)
        if force_python:
            skipper._ffcore = None
        reference_ops = reference.emit(400)
        for index in range(400):
            if index % 2 == 0:
                skipper.fast_forward(1)
            else:
                assert columns(skipper.emit(1)) == \
                    columns(reference_ops[index:index + 1])
        assert state_fingerprint(skipper) == state_fingerprint(reference)

    @native_only
    @pytest.mark.parametrize("profile", (ALLOC_HEAVY, ALLOC_EVERY_OP,
                                         profile_by_name("mcf-long")),
                             ids=lambda profile: profile.name)
    def test_every_window_size_matches_python_emitter(self, profile):
        """``emit(k)`` windows for k in 1..MAX_EVENT_OPS, native vs Python.

        Each window size lands event overruns of every length in the
        pending buffer; concatenated, the native windows must be the
        Python emitter's one continuous stream, column for column.
        """
        for k in range(1, MAX_EVENT_OPS + 1):
            native = SyntheticWorkload(profile, seed=k)
            assert native._ffcore is not None
            python = python_emitter(profile, seed=k)
            windows = [native.emit(k) for _ in range(300 // k + 1)]
            stream = python.emit(sum(len(window) for window in windows))
            position = 0
            for window in windows:
                assert columns(window) == \
                    columns(stream[position:position + k])
                position += k
            assert state_fingerprint(native) == state_fingerprint(python)

    def test_sample_segment_pickle_round_trip(self):
        stream = SampleStream(ALLOC_HEAVY, 3, 9_000, SamplingConfig(
            fast_forward=313, warmup=328, sample=356))
        segment = next(iter(stream.segments()))
        blob = pickle.dumps(segment)
        clone = pickle.loads(blob)
        # The shape table travels by reference, never by content.
        assert clone.measured.insts is SHAPES
        assert clone.warmup.insts is SHAPES
        assert b"Instruction" not in blob
        assert columns(clone.measured) == columns(segment.measured)
        assert columns(clone.warmup) == columns(segment.warmup)
        assert clone == segment

    @native_only
    def test_native_kernel_matches_pure_python(self):
        for name, seed, count in (("mcf-long", 7, 30_000),
                                  ("gcc-long", 2, 30_000),
                                  ("lbm", 4, 15_000)):
            native = SyntheticWorkload(profile_by_name(name), seed=seed)
            fallback = SyntheticWorkload(profile_by_name(name), seed=seed)
            assert native._ffcore is not None
            fallback._ffcore = None
            native.fast_forward(count)
            fallback.fast_forward(count)
            assert state_fingerprint(native) == state_fingerprint(fallback)

    def test_generate_refuses_to_drop_pending_ops(self):
        workload = SyntheticWorkload(profile_by_name("perl"), seed=1)
        while not workload._pending:
            workload.emit(1)
        with pytest.raises(ConfigurationError, match="continuous stream"):
            list(workload.generate(10))

    @native_only
    def test_fast_forward_throughput_beats_python_emitter(self):
        """Skip windows far cheaper than emission without a compiler.

        Emission runs in C too, so the premise is now measured against the
        pure-Python column emitter — the path that would carry every window
        without a compiler.  Fast-forward is the same loop with its writes
        switched off, so this needs the native kernel to hold.
        Conservative 2x bound; `repro bench` tracks the real rates.
        """
        import time

        emitter = python_emitter(profile_by_name("mcf-long"), seed=7)
        started = time.perf_counter()
        emitter.emit(20_000)
        emit_wall = time.perf_counter() - started
        workload = SyntheticWorkload(profile_by_name("mcf-long"), seed=7)
        workload.emit(20_000)
        started = time.perf_counter()
        workload.fast_forward(20_000)
        skip_wall = time.perf_counter() - started
        assert skip_wall * 2 < emit_wall

    @native_only
    def test_native_emitter_beats_python_emitter(self):
        """The C emitter writes the same columns at least 3x faster."""
        import time

        walls = []
        for workload in (SyntheticWorkload(profile_by_name("mcf-long"),
                                           seed=7),
                         python_emitter(profile_by_name("mcf-long"), seed=7)):
            started = time.perf_counter()
            workload.emit(20_000)
            walls.append(time.perf_counter() - started)
        native_wall, python_wall = walls
        assert native_wall * 3 < python_wall


class TestShapeTable:
    def test_table_is_a_module_constant_with_590_entries(self):
        assert isinstance(SHAPES, tuple)
        assert len(SHAPES) == NUM_SHAPES == 590
        workload = SyntheticWorkload(profile_by_name("gcc"), seed=1)
        assert workload.emit(500).insts is SHAPES
        assert not hasattr(workload, "_instruction_cache")

    def test_every_shape_is_emitted_by_some_profile(self):
        seen = set()
        for name in benchmark_names():
            workload = SyntheticWorkload(profile_by_name(name), seed=0)
            seen.update(workload.emit(60_000).tids)
        assert seen == set(range(NUM_SHAPES))

    def test_tokenize_keys_are_injective_over_the_table(self):
        # Interning one op per shape must give every shape its own token id
        # even though tokenize ignores immediates.
        tokens = tokenize([DynamicOp(inst) for inst in SHAPES])
        assert list(tokens.tids) == list(range(NUM_SHAPES))

    def test_tokenize_of_emitted_tokens_is_identity(self):
        workload = SyntheticWorkload(profile_by_name("gcc"), seed=3)
        emitted = workload.emit(3_000)
        assert tokenize(emitted) is emitted
        # ...and re-interning the materialized ops gives the same trace.
        assert tokenize(list(emitted)) == emitted


class TestPaperScale:
    def test_paper_profiles_registered_but_not_in_figure_grids(self):
        names = paper_profile_names()
        assert "mcf-paper" in names
        for name in names:
            assert profile_by_name(name).name == name
            assert name not in benchmark_names()

    def test_paper_scaled_schedule_keeps_the_papers_proportions(self):
        schedule = SamplingConfig.paper_scaled()
        assert schedule.period == 10_000_000
        assert schedule.sampled_fraction == pytest.approx(0.02)
        assert schedule.warmup == schedule.sample
        custom = SamplingConfig.paper_scaled(1_000_000)
        assert custom.period == 1_000_000
        assert custom.sampled_fraction == pytest.approx(0.02)
        with pytest.raises(ConfigurationError):
            SamplingConfig.paper_scaled(10)

    def test_paper_scaled_fits_the_paper_horizon(self):
        from repro.sim.sampling import SamplingSchedule

        schedule = SamplingSchedule(SamplingConfig.paper_scaled())
        measured = schedule.measured_count(PAPER_HORIZON_INSTRUCTIONS)
        assert measured == PAPER_HORIZON_INSTRUCTIONS // 50  # 2%

    def test_spec_rejects_schedule_that_measures_nothing_at_paper_scale(self):
        with pytest.raises(ConfigurationError, match="paper-scale"):
            ExperimentSettings(benchmarks=("mcf-paper",),
                               instructions=PAPER_HORIZON_INSTRUCTIONS,
                               sampling=SamplingConfig.paper())
        with pytest.raises(ConfigurationError, match="paper-scale"):
            RunRequest("mcf-paper", "wd", WatchdogConfig.isa_assisted_uaf(),
                       instructions=PAPER_HORIZON_INSTRUCTIONS,
                       sampling=SamplingConfig.paper())

    def test_bundle_rejects_normalization_at_paper_scale(self):
        with pytest.raises(ConfigurationError, match="paper-scale|unsampled"):
            TraceBundle.generate(
                "mcf-paper", seed=7,
                instructions=MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS + 1,
                sampling=SamplingConfig.paper())

    def test_unsampled_paper_horizon_rejected_everywhere(self):
        # Forgetting --sampling entirely must not materialize 100M ops.
        with pytest.raises(ConfigurationError, match="sampling schedule"):
            TraceBundle.generate(
                "mcf-paper", seed=7,
                instructions=MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS + 1)
        with pytest.raises(ConfigurationError, match="sampling schedule"):
            ExperimentSettings(benchmarks=("mcf-paper",),
                               instructions=PAPER_HORIZON_INSTRUCTIONS)
        with pytest.raises(ConfigurationError, match="sampling schedule"):
            RunRequest("mcf-paper", "wd", WatchdogConfig.isa_assisted_uaf(),
                       instructions=PAPER_HORIZON_INSTRUCTIONS)

    def test_paper_settings_classmethod(self):
        settings = ExperimentSettings.paper()
        assert settings.instructions == PAPER_HORIZON_INSTRUCTIONS
        assert set(settings.benchmarks) == set(paper_profile_names())
        assert settings.sampling.sampled_fraction == pytest.approx(0.02)

    def test_small_horizons_still_normalize_quietly(self):
        # Below the materialization bound the old normalize-to-unsampled
        # behaviour is unchanged.
        plain = TraceBundle.generate("gzip", seed=7, instructions=3_000)
        short = TraceBundle.generate("gzip", seed=7, instructions=3_000,
                                     sampling=SamplingConfig.quick())
        assert short == plain


class TestEngineSampleFanOut:
    ISA = WatchdogConfig.isa_assisted_uaf()
    SMALL = SamplingConfig(fast_forward=2000, warmup=500, sample=1500)

    def spec(self):
        settings = ExperimentSettings(benchmarks=("mcf",),
                                      instructions=18_000,
                                      sampling=self.SMALL)
        return ExperimentSpec.build(
            "fanout", {"wd": self.ISA}, settings=settings)

    def test_single_job_fans_samples_across_pool_bit_identically(self):
        spec = self.spec()
        serial = SweepEngine(workers=1)
        expected = serial.run_spec(spec)
        parallel = SweepEngine(workers=2)
        try:
            got = parallel.run_spec(spec)
        finally:
            parallel.close()
        assert got == expected
        assert parallel.simulated_cells == len(spec)

    def test_fan_out_only_engages_for_singleton_sampled_jobs(self):
        # Two benchmarks -> two jobs -> ordinary per-job parallelism; the
        # results must still match serial execution exactly.
        settings = ExperimentSettings(benchmarks=("gzip", "mcf"),
                                      instructions=12_000,
                                      sampling=self.SMALL)
        spec = ExperimentSpec.build("pair", {"wd": self.ISA},
                                    settings=settings)
        serial = SweepEngine(workers=1)
        expected = serial.run_spec(spec)
        parallel = SweepEngine(workers=2)
        try:
            got = parallel.run_spec(spec)
        finally:
            parallel.close()
        assert got == expected
