"""Flat-array stream compilation: packed words, overflow, pooled arenas.

The stream compiler emits kernel-ready ``array("q")`` columns directly
(``CompiledStream.words``), the one µop format both schedulers consume.
These tests pin down the contract:

* every benchmark profile compiles to packed words under every Table 2
  configuration, and the words decode back to themselves;
* a µop whose fields overflow the packed word format raises
  :class:`~repro.errors.CompiledTraceUnsupported`, and the simulator then
  runs the reference pipeline with unchanged results;
* the native state-export arenas are pooled — a second hierarchy reuses the
  first one's (zeroed) arenas and produces bit-identical statistics.
"""

import gc
from array import array

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import CompiledTraceUnsupported
from repro.memory.hierarchy import MemoryHierarchy
from repro.native import _timecore
from repro.native._timecore import pack_entry_words, unpack_entry_words
from repro.sim.simulator import Simulator
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import benchmark_names

CONFIGURATIONS = {
    "baseline": WatchdogConfig.disabled(),
    "conservative": WatchdogConfig.conservative_uaf(),
    "isa-assisted": WatchdogConfig.isa_assisted_uaf(),
    "no-lock-cache": WatchdogConfig.no_lock_cache(),
    "ideal-shadow": WatchdogConfig.idealized_shadow(),
    "bounds-fused": WatchdogConfig.full_safety_fused(),
    "bounds-2uop": WatchdogConfig.full_safety_two_uops(),
    "no-copy-elim": WatchdogConfig.isa_assisted_uaf().with_(
        copy_elimination=False),
}

INSTRUCTIONS = 600
SEED = 11

KERNEL = _timecore.load()
needs_kernel = pytest.mark.skipif(KERNEL is None,
                                  reason="native timing core unavailable")


class TestFlatStreams:
    """Every profile/config compiles to the one packed-word format."""

    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_every_configuration_compiles(self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=INSTRUCTIONS)
        for label, config in CONFIGURATIONS.items():
            stream = bundle.compiled_streams(config).measured
            assert len(stream) == len(stream.words) > 0
            assert pack_entry_words(unpack_entry_words(stream.words)) \
                == stream.words, f"{profile_name}/{label}: round trip"

    def test_columns_are_int64_arrays(self):
        bundle = TraceBundle.generate("mcf", seed=SEED,
                                      instructions=INSTRUCTIONS)
        streams = bundle.compiled_streams(WatchdogConfig.isa_assisted_uaf())
        measured = streams.measured
        for column in (measured.words, measured.lat_template,
                       measured.mem_pos, measured.mem_addr,
                       measured.mem_spec):
            assert isinstance(column, array) and column.typecode == "q"
        assert isinstance(streams.warm.addrs, array)
        assert isinstance(streams.warm.specs, array)

    def test_with_core_preserves_flat_form(self):
        bundle = TraceBundle.generate("gzip", seed=SEED,
                                      instructions=INSTRUCTIONS)
        stream = bundle.compiled_streams(WatchdogConfig.isa_assisted_uaf()) \
            .measured
        assert stream.with_core(stream.core) is stream
        moved = stream.with_core(stream.core + 3)
        assert moved.core == stream.core + 3
        assert moved.words is stream.words
        assert moved.lat_template is stream.lat_template
        assert moved.mem_addr is stream.mem_addr
        assert stream.core != moved.core  # original untouched


class TestPackedWordFormat:
    """The packer round-trips in-range rows and refuses overflow."""

    IN_RANGE = [
        (511, 63, 62, -1, 62, -1, 62, -1),
        (0, 0, -1, -1, -1, -1, -1, -1),
        (5, 3, 0, 1, 2, 3, 4, 5),
    ]
    OVERFLOW = [
        (0, 64, 0, -1, -1, -1, -1, -1),    # cost too wide
        (512, 0, 0, -1, -1, -1, -1, -1),   # flags too wide
        (0, 0, 63, -1, -1, -1, -1, -1),    # slot too wide
        (0, 0, -2, -1, -1, -1, -1, -1),    # slot below the none marker
        (0, -1, 0, -1, -1, -1, -1, -1),    # negative cost
    ]

    def test_round_trip(self):
        words = pack_entry_words(self.IN_RANGE)
        assert unpack_entry_words(words) == self.IN_RANGE

    def test_overflow_refused(self):
        for row in self.OVERFLOW:
            with pytest.raises(CompiledTraceUnsupported):
                pack_entry_words(self.IN_RANGE + [row])


def test_overflow_falls_back_to_reference(monkeypatch):
    """A template that overflows the packed format runs on the reference
    pipeline, with the result the compiled pipeline would have given."""
    config = WatchdogConfig.isa_assisted_uaf()
    bundle = TraceBundle.generate("mcf", seed=SEED, instructions=INSTRUCTIONS)
    flat = Simulator(pipeline="compiled").run_bundle(bundle, config)
    reference = Simulator(pipeline="reference").run_bundle(bundle, config)

    # Widen every µop's cost past its 6-bit field before the real packer
    # sees it.  A fresh template cache keeps the refused templates out of
    # other tests (and other tests' templates out of this one).
    import repro.sim.compiled as compiled_module

    def overflowing(entries):
        return pack_entry_words([(flags, 64, *rest)
                                 for flags, _cost, *rest in entries])

    monkeypatch.setattr(compiled_module, "_TEMPLATE_CACHE", {})
    monkeypatch.setattr(compiled_module, "pack_entry_words", overflowing)
    degraded_bundle = TraceBundle.generate("mcf", seed=SEED,
                                           instructions=INSTRUCTIONS)
    with pytest.raises(CompiledTraceUnsupported):
        degraded_bundle.compiled_streams(config)
    degraded = Simulator(pipeline="compiled").run_bundle(degraded_bundle,
                                                         config)
    assert degraded.timing == flat.timing == reference.timing


@needs_kernel
class TestArenaPooling:
    """State-export arenas are recycled across hierarchies via _ARENAS."""

    def _run_batch(self, hierarchy):
        n = 512
        addrs = array("q", [64 * i * 7 for i in range(n)])
        specs = array("q", [(i % 3 == 0) << 2 | 1 << 3 for i in range(n)])
        positions = array("q", range(n))
        lats = array("q", bytes(8 * n))
        hierarchy.access_batch(addrs, specs, positions, lats)
        return lats

    def test_second_hierarchy_reuses_pooled_arenas(self):
        first = MemoryHierarchy()
        lats_first = self._run_batch(first)
        state = first.__dict__["_tc_state"]
        shared = first.shared.__dict__["_tc_shared"]
        first_ids = {id(a) for a in state["_arenas"]}
        first_ids |= {id(a) for a in shared["_arenas"]}
        l3_size = len(shared["l3"])
        l3_id = id(shared["l3"])
        stats_first = first.stats
        del first, state, shared
        gc.collect()

        # The finalizers returned every arena to the pool's free lists.
        assert any(id(a) == l3_id for a in _timecore._ARENAS.get(l3_size, []))

        second = MemoryHierarchy()
        lats_second = self._run_batch(second)
        state = second.__dict__["_tc_state"]
        shared = second.shared.__dict__["_tc_shared"]
        second_ids = {id(a) for a in state["_arenas"]}
        second_ids |= {id(a) for a in shared["_arenas"]}
        # Same config, same shapes: every arena comes back from the pool —
        # no fresh L3 allocate-and-zero on the second cell.
        assert second_ids <= first_ids
        assert id(shared["l3"]) == l3_id
        # The pooled (re-zeroed) arenas behave exactly like fresh ones.
        assert lats_second == lats_first
        assert second.stats == stats_first

    def test_pool_capacity_is_bounded(self):
        size = 1 << 14
        free = _timecore._ARENAS.setdefault(size, [])
        del free[:]
        arenas = [[array("q", bytes(8 * size))]
                  for _ in range(_timecore._POOL_LIMIT + 4)]
        for group in arenas:
            _timecore._release_arenas(group)
        assert len(free) == _timecore._POOL_LIMIT
        del free[:]

    def test_cell_results_identical_across_pool_reuse(self):
        config = WatchdogConfig.isa_assisted_uaf()
        bundle = TraceBundle.generate("equake", seed=SEED, instructions=400)
        simulator = Simulator(pipeline="compiled")
        first = simulator.run_bundle(bundle, config)
        gc.collect()  # retire the first cell's hierarchy into the pool
        second = simulator.run_bundle(bundle, config)
        assert first.timing == second.timing
