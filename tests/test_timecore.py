"""Lifecycle and golden-equality tests for the native timing core.

The C kernel (:mod:`repro.native._timecore`) is strictly optional: these
tests pin down the loader lifecycle — the ``REPRO_TIMECORE=0`` kill switch,
the refusal to hand out a kernel whose self-test fails, and on-disk artifact
reuse — and the golden contract that kernel-on and kernel-off produce
bit-identical ``TimingResult``/``HierarchyStats`` across every benchmark
profile and Table 2 configuration, sampled and unsampled.
"""

import pytest

from repro.native import _timecore, build
from repro.sim.results import CellResult
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import benchmark_names

from tests.test_compiled_pipeline import CONFIGURATIONS, INSTRUCTIONS, SEED

KERNEL_AVAILABLE = _timecore.load() is not None

needs_kernel = pytest.mark.skipif(not KERNEL_AVAILABLE,
                                  reason="native timing core unavailable")


@pytest.fixture
def reload_kernel():
    """Drop the process-wide load decision around a test, restoring after.

    ``build._LOADED`` memoizes one decision per kernel per process; tests
    that change the environment or break the self-test must clear it to
    force a fresh load, and clear it again afterwards so later tests get
    the normal kernel back.
    """
    build._LOADED.pop("timecore", None)
    yield
    build._LOADED.pop("timecore", None)


class TestLoaderLifecycle:
    def test_kill_switch_forces_python_fallback(self, monkeypatch,
                                                reload_kernel):
        monkeypatch.setenv("REPRO_TIMECORE", "0")
        assert _timecore.load() is None
        # The pipeline still runs (pure Python), end to end.
        bundle = TraceBundle.generate("gzip", seed=3, instructions=400)
        config = CONFIGURATIONS["isa-assisted"]
        outcome = Simulator(pipeline="compiled").run_bundle(bundle, config)
        assert outcome.timing.total_uops > 0

    def test_failed_self_test_refuses_kernel(self, monkeypatch,
                                             reload_kernel):
        monkeypatch.delenv("REPRO_TIMECORE", raising=False)
        monkeypatch.setattr(_timecore, "_self_test", lambda lib: False)
        assert _timecore.load() is None

    def test_crashing_self_test_refuses_kernel(self, monkeypatch,
                                               reload_kernel):
        def boom(lib):
            raise RuntimeError("corrupted artifact")

        monkeypatch.delenv("REPRO_TIMECORE", raising=False)
        monkeypatch.setattr(_timecore, "_self_test", boom)
        assert _timecore.load() is None

    @needs_kernel
    def test_cached_artifact_is_reused(self, tmp_path, monkeypatch,
                                       reload_kernel):
        monkeypatch.delenv("REPRO_TIMECORE", raising=False)
        monkeypatch.setenv("REPRO_TIMECORE_DIR", str(tmp_path))
        assert _timecore.load() is not None
        artifacts = list(tmp_path.glob("timecore-*.so"))
        assert len(artifacts) == 1
        # A second load (fresh decision, same directory) must bind the
        # existing artifact without invoking the compiler.
        build._LOADED.pop("timecore", None)

        def no_compile(source, so_path):
            raise AssertionError("compile_source called despite cached .so")

        monkeypatch.setattr(build, "compile_source", no_compile)
        assert _timecore.load() is not None

    @needs_kernel
    def test_load_decision_is_memoized(self, reload_kernel):
        first = _timecore.load()
        assert _timecore.load() is first


class TestSimulatorKnob:
    @needs_kernel
    def test_timecore_false_forces_python_loops(self):
        simulator = Simulator(pipeline="compiled", timecore=False)
        bundle = TraceBundle.generate("mcf", seed=5, instructions=400)
        config = CONFIGURATIONS["conservative"]
        forced_off = simulator.run_bundle(bundle, config)
        forced_on = Simulator(pipeline="compiled",
                              timecore=True).run_bundle(bundle, config)
        assert forced_off.timing == forced_on.timing

    def test_knob_reaches_the_core(self):
        from repro.pipeline.core import OutOfOrderCore

        core = OutOfOrderCore(timecore=False)
        assert core.hierarchy.native_override is False
        core = OutOfOrderCore(timecore=True)
        assert core.hierarchy.native_override is True


@needs_kernel
class TestGoldenEquality:
    """Kernel on vs off: every profile x every Table 2 configuration."""

    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_profile_matches_python_under_all_configurations(
            self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=INSTRUCTIONS)
        kernel_sim = Simulator(pipeline="compiled", timecore=True)
        python_sim = Simulator(pipeline="compiled", timecore=False)
        for label, config in CONFIGURATIONS.items():
            kernel = kernel_sim.run_bundle(bundle, config)
            python = python_sim.run_bundle(bundle, config)
            assert kernel.timing == python.timing, \
                f"{profile_name}/{label}: timing diverged"
            assert CellResult.from_outcome(kernel, label=label) == \
                CellResult.from_outcome(python, label=label), \
                f"{profile_name}/{label}: statistics diverged"

    @pytest.mark.parametrize("profile_name", ("mcf-long", "gcc-long"))
    def test_sampled_long_profile_matches_python(self, profile_name):
        sampling = SamplingConfig(fast_forward=313, warmup=328, sample=356)
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=4_000, sampling=sampling)
        assert bundle.samples, "schedule must genuinely sample at this scale"
        for label in ("baseline", "isa-assisted", "ideal-shadow"):
            config = CONFIGURATIONS[label]
            kernel = Simulator(pipeline="compiled",
                               timecore=True).run_bundle(bundle, config)
            python = Simulator(pipeline="compiled",
                               timecore=False).run_bundle(bundle, config)
            assert kernel.timing == python.timing, \
                f"{profile_name}/{label}: sampled timing diverged"
            assert CellResult.from_outcome(kernel, label=label) == \
                CellResult.from_outcome(python, label=label), \
                f"{profile_name}/{label}: sampled statistics diverged"

    def test_hierarchy_batch_state_and_stats_match(self):
        """The kernel's batch equals one ``access()`` call per element,
        including full LRU state and statistics."""
        import random

        from repro.memory.hierarchy import _SPEC_PORTS
        from repro.pipeline.core import OutOfOrderCore

        rng = random.Random(99)
        addrs, specs, positions = [], [], []
        for _ in range(3_000):
            addrs.append(rng.randrange(1 << 22))
            specs.append(rng.randrange(3) | rng.randrange(2) << 2 | 8)
            positions.append(len(positions))
        config = CONFIGURATIONS["isa-assisted"]
        kernel_h = OutOfOrderCore(watchdog=config, timecore=True).hierarchy
        kernel_h.warm_batch(addrs[:500], 0)
        kernel_lats = [0] * len(addrs)
        kernel_h.access_batch(addrs, specs, positions, kernel_lats)

        python_h = OutOfOrderCore(watchdog=config, timecore=False).hierarchy
        for address in addrs[:500]:
            python_h.access(address)
        python_h.reset_stats()
        python_lats = [python_h.access(address, bool(spec & 4),
                                       _SPEC_PORTS[spec & 3])
                       for address, spec in zip(addrs, specs)]

        assert kernel_lats == python_lats
        assert kernel_h.stats == python_h.stats
        assert kernel_h.stats.accesses == python_h.stats.accesses
        assert kernel_h.stats.total_latency == python_h.stats.total_latency
        assert _timecore._same_hierarchy(kernel_h, python_h)

    def test_warm_batch_leaves_state_and_zero_statistics(self):
        """Both warm-up paths reset every counter and agree on state."""
        import random

        from repro.pipeline.core import OutOfOrderCore

        rng = random.Random(7)
        addrs = [rng.randrange(1 << 22) for _ in range(2_000)]
        specs = [rng.randrange(3) | rng.randrange(2) << 2 for _ in addrs]
        config = CONFIGURATIONS["isa-assisted"]
        hierarchies = []
        for timecore in (True, False):
            hierarchy = OutOfOrderCore(watchdog=config,
                                       timecore=timecore).hierarchy
            hierarchy.warm_batch(addrs, specs)
            hierarchies.append(hierarchy)
        kernel_h, python_h = hierarchies
        assert python_h.stats.accesses == {}
        assert (python_h.l1d.hits, python_h.l2.misses,
                python_h.dtlb.misses) == (0, 0, 0)
        assert _timecore._same_hierarchy(kernel_h, python_h)
